"""Evaluation metrics for beats, downbeats, boundaries, and labels.

Event scores (F-measure at a fixed tolerance) use a maximum-cardinality
one-to-one matching, found by one pass over the sorted events; with
equal-width windows that pass is exact even for pathological spacings.
Beat continuity scores follow the standard definition: a beat counts
when it is close in phase and period to its nearest annotation, runs of
consecutive correct beats are summed (total, not longest), and the
allowed-variation score takes the best over double/half tempo and
off-beat re-annotations. Label agreement is scored by pairwise frame
clustering and by normalised conditional entropies of the frame-label
joint distribution.

Empty inputs follow explicit conventions (documented per function) so
every metric is a total function into [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParameterError
from .postproc import AnalysisResult, Segment


@dataclass
class Beat:
    time: float
    bar_position: int = 1


@dataclass
class Annotation:
    """Reference events for one track."""

    beats: list[Beat]
    segments: list[Segment]
    duration: float

    def validate(self) -> None:
        times = [b.time for b in self.beats]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise InputError("annotated beat times must be strictly ascending")
        if any(b.bar_position < 1 for b in self.beats):
            raise InputError("bar positions start at 1")

    def beat_times(self) -> np.ndarray:
        return np.asarray([b.time for b in self.beats])

    def downbeat_times(self) -> np.ndarray:
        return np.asarray([b.time for b in self.beats if b.bar_position == 1])


@dataclass
class MetricsReport:
    beat_f1: float = 0.0
    beat_cmlt: float = 0.0
    beat_amlt: float = 0.0
    downbeat_f1: float = 0.0
    downbeat_cmlt: float = 0.0
    downbeat_amlt: float = 0.0
    segment_hr05: float = 0.0
    segment_precision: float = 0.0
    segment_recall: float = 0.0
    label_pwf: float = 0.0
    label_pw_precision: float = 0.0
    label_pw_recall: float = 0.0
    label_sf: float = 0.0
    label_s_over: float = 0.0
    label_s_under: float = 0.0

    def to_dict(self) -> dict[str, float]:
        return {k: round(float(v), 6) for k, v in vars(self).items()}

    def validate(self) -> None:
        for k, v in vars(self).items():
            if not 0.0 <= v <= 1.0:
                raise InputError(f"score {k}={v} outside [0, 1]")


# ---------------------------------------------------------------------------
# event matching
# ---------------------------------------------------------------------------

def _max_matching(est: np.ndarray, ref: np.ndarray, tol: float) -> int:
    """Maximum-cardinality matching between events within ``tol`` seconds.

    Every window has the same width, so matching the earliest unmatched
    estimate to the earliest unmatched reference it reaches is optimal
    (Glover 1967). An event that is too early for its counterpart is too
    early for every later one as well, since rounding of ``e - r`` is
    monotone, so it is skipped for good.
    """
    est = np.sort(est).tolist()
    ref = np.sort(ref).tolist()
    i = j = count = 0
    while i < len(est) and j < len(ref):
        if abs(est[i] - ref[j]) <= tol:
            count += 1
            i += 1
            j += 1
        elif est[i] < ref[j]:
            i += 1
        else:
            j += 1
    return count


def event_f1(est, ref, tol: float) -> tuple[float, float, float]:
    """F-measure, precision, recall of event lists at tolerance ``tol``.

    Both lists empty scores 1; exactly one empty scores 0.
    """
    if tol < 0:
        raise ParameterError("tolerance must be non-negative")
    est = np.asarray(est, dtype=np.float64).reshape(-1)
    ref = np.asarray(ref, dtype=np.float64).reshape(-1)
    if est.size == 0 and ref.size == 0:
        return 1.0, 1.0, 1.0
    if est.size == 0 or ref.size == 0:
        return 0.0, 0.0, 0.0
    hits = _max_matching(est, ref, tol)
    precision = hits / est.size
    recall = hits / ref.size
    if hits == 0:
        return 0.0, precision, recall
    return 2 * precision * recall / (precision + recall), precision, recall


# ---------------------------------------------------------------------------
# continuity
# ---------------------------------------------------------------------------

def _intervals(times: np.ndarray) -> np.ndarray:
    """Inter-event interval attributed to each event; the first borrows
    the following interval so it can still be scored."""
    iv = np.empty_like(times)
    iv[1:] = np.diff(times)
    iv[0] = iv[1] if times.size > 1 else 0.0
    return iv


def _continuity_total(est: np.ndarray, ref: np.ndarray, phase_tol: float,
                      period_tol: float) -> float:
    if est.size < 2 or ref.size < 2:
        return 0.0
    ref_iv = _intervals(ref)
    est_iv = _intervals(est)
    nearest = np.clip(np.searchsorted(ref, est), 1, ref.size - 1)
    nearest = np.where(np.abs(ref[nearest - 1] - est) <= np.abs(ref[nearest] - est),
                       nearest - 1, nearest)
    window = ref_iv[nearest]
    ok = (np.abs(est - ref[nearest]) < phase_tol * window) \
        & (np.abs(est_iv - window) < period_tol * window)
    return ok.sum() / max(est.size, ref.size)


def _tempo_variations(ref: np.ndarray) -> list[np.ndarray]:
    half_steps = np.arange(0, ref.size - 0.5, 0.5)
    doubled = np.interp(half_steps, np.arange(ref.size), ref)
    return [ref, doubled[1::2], doubled, ref[::2], ref[1::2]]


def continuity(est, ref, phase_tol: float = 0.175, period_tol: float = 0.175
               ) -> tuple[float, float]:
    """(CMLt, AMLt): total continuity at the annotated metrical level and
    the best over the allowed variations (original, off-beat, double
    tempo, and both half-tempo phases)."""
    est = np.asarray(est, dtype=np.float64).reshape(-1)
    ref = np.asarray(ref, dtype=np.float64).reshape(-1)
    if ref.size < 2:
        raise InputError("continuity needs at least two reference beats")
    cmlt = _continuity_total(est, ref, phase_tol, period_tol)
    amlt = max(_continuity_total(est, var, phase_tol, period_tol)
               for var in _tempo_variations(ref) if var.size >= 2)
    return cmlt, max(cmlt, amlt)


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------

def segment_boundaries(segments: list[Segment]) -> np.ndarray:
    """Boundary times of a segmentation: every start plus the final end
    (track endpoints included)."""
    if not segments:
        return np.empty(0)
    return np.asarray([s.start for s in segments] + [segments[-1].end])


def boundary_hit_rate(est_segments: list[Segment], ref_segments: list[Segment],
                      window: float = 0.5) -> tuple[float, float, float]:
    """Boundary hit-rate F-measure at ``window`` seconds."""
    return event_f1(segment_boundaries(est_segments),
                    segment_boundaries(ref_segments), window)


def _frame_labels(segments: list[Segment], duration: float, frame: float
                  ) -> np.ndarray:
    """Integer label ids sampled every ``frame`` seconds."""
    n = int(np.ceil(duration / frame))
    ids = {}
    out = np.zeros(n, dtype=np.int64)
    starts = np.asarray([s.start for s in segments])
    for i in range(n):
        t = i * frame
        j = int(np.clip(np.searchsorted(starts, t, side="right") - 1,
                        0, len(segments) - 1))
        out[i] = ids.setdefault(segments[j].label, len(ids))
    return out


def _joint_counts(est_segments: list[Segment], ref_segments: list[Segment],
                  frame: float) -> np.ndarray | None:
    """Frame counts ``[ref labels, est labels]`` over the reference span,
    or None when the estimate holds no segment."""
    duration = ref_segments[-1].end if ref_segments else 0.0
    if duration <= 0:
        raise InputError("reference segmentation has zero duration")
    if not est_segments:
        return None
    est_ids = _frame_labels(est_segments, duration, frame)
    ref_ids = _frame_labels(ref_segments, duration, frame)
    joint = np.zeros((ref_ids.max() + 1, est_ids.max() + 1), dtype=np.int64)
    np.add.at(joint, (ref_ids, est_ids), 1)
    return joint


def pairwise_f(est_segments: list[Segment], ref_segments: list[Segment],
               frame: float = 0.1) -> tuple[float, float, float]:
    """Pairwise frame-clustering F-measure.

    Defined over the sets of unordered same-label frame pairs; computed
    from the label contingency table rather than by pair enumeration.
    Both pair sets empty scores 1; exactly one, or the estimate, empty scores 0.
    """
    joint = _joint_counts(est_segments, ref_segments, frame)
    if joint is None:
        return 0.0, 0.0, 0.0

    def pairs(counts):
        return float((counts * (counts - 1) // 2).sum())

    both = pairs(joint)
    in_est = pairs(joint.sum(axis=0))
    in_ref = pairs(joint.sum(axis=1))
    if in_est == 0 and in_ref == 0:
        return 1.0, 1.0, 1.0
    if in_est == 0 or in_ref == 0:
        return 0.0, 0.0, 0.0
    precision = both / in_est
    recall = both / in_ref
    if both == 0:
        return 0.0, precision, recall
    return 2 * precision * recall / (precision + recall), precision, recall


def entropy_scores(est_segments: list[Segment], ref_segments: list[Segment],
                   frame: float = 0.1) -> tuple[float, float, float]:
    """(Sf, S_over, S_under) from normalised conditional entropies.

    ``S_over = 1 - H(est|ref) / log2(#est labels)`` and symmetrically for
    S_under; a single-label side makes the normaliser log2(1) = 0 and the
    score 1 by convention. Sf is the harmonic mean, 0 if either side is 0.
    An empty estimate scores 0 on all three.
    """
    counts = _joint_counts(est_segments, ref_segments, frame)
    if counts is None:
        return 0.0, 0.0, 0.0
    joint = counts / counts.sum()

    def cond_entropy(p):
        # H(cols | rows) in bits
        rows = p.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            logterm = np.where(p > 0, np.log2(p / rows), 0.0)
        return float(-(p * logterm).sum())

    n_est = joint.shape[1]
    n_ref = joint.shape[0]
    s_over = 1.0 if n_est == 1 else 1.0 - cond_entropy(joint) / np.log2(n_est)
    s_under = 1.0 if n_ref == 1 else 1.0 - cond_entropy(joint.T) / np.log2(n_ref)
    s_over = float(np.clip(s_over, 0.0, 1.0))
    s_under = float(np.clip(s_under, 0.0, 1.0))
    if s_over <= 0.0 or s_under <= 0.0:
        return 0.0, s_over, s_under
    return 2 * s_over * s_under / (s_over + s_under), s_over, s_under


# ---------------------------------------------------------------------------
# whole-track evaluation
# ---------------------------------------------------------------------------

BEAT_TOLERANCE = 0.07
BOUNDARY_WINDOW = 0.5


def evaluate_track(result: AnalysisResult, ref: Annotation) -> MetricsReport:
    """Score one decoded track against its annotation."""
    ref.validate()
    ref_duration = ref.duration
    if abs(result.duration - ref_duration) > 1.0:
        raise InputError(
            f"durations differ: result {result.duration}s vs {ref_duration}s")

    report = MetricsReport()
    ref_beats = ref.beat_times()
    ref_downs = ref.downbeat_times()

    report.beat_f1, _, _ = event_f1(result.beats, ref_beats, BEAT_TOLERANCE)
    report.downbeat_f1, _, _ = event_f1(result.downbeats, ref_downs,
                                        BEAT_TOLERANCE)
    if ref_beats.size >= 2:
        report.beat_cmlt, report.beat_amlt = continuity(result.beats, ref_beats)
    if ref_downs.size >= 2:
        report.downbeat_cmlt, report.downbeat_amlt = continuity(
            result.downbeats, ref_downs)

    (report.segment_hr05, report.segment_precision,
     report.segment_recall) = boundary_hit_rate(result.segments, ref.segments,
                                                BOUNDARY_WINDOW)
    (report.label_pwf, report.label_pw_precision,
     report.label_pw_recall) = pairwise_f(result.segments, ref.segments)
    (report.label_sf, report.label_s_over,
     report.label_s_under) = entropy_scores(result.segments, ref.segments)
    report.validate()
    return report

