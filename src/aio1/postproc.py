"""Decoders that turn per-frame activations into discrete events.

Beats and downbeats come from exact Viterbi decoding over a bar-pointer
state space: a hidden state is (bar length, bar position, tempo in
whole frames per beat, phase within the beat). Within a beat the pointer
advances one frame at a time; when the phase wraps, the bar position
steps within its bar length and the tempo may change, paying a log
penalty proportional to the relative tempo jump. The bar length never
changes, so a single Viterbi pass over the states of every candidate
bar length picks the best one. States in the leading fraction of a beat
period emit the beat (or, on bar position one, the downbeat) activation;
every other state emits the leftover probability mass.

Section boundaries are picked from the boundary activation after
subtracting a centred sliding-window mean: a frame is emitted when the
normalised value is positive and is the strict maximum of its
neighborhood (earliest frame wins ties). Sections between boundaries
get the label with the highest mean per-frame probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

# relative tolerance used only to reject floating-point residue when the
# normalised boundary signal is compared against zero; not a detection
# threshold (scales with the activation, so picking is scale-invariant)
_REL_EPS = 1e-12

# boundary picking, in seconds: the centred sliding-mean window, the peak
# window on either side of a candidate, and the margin at each track edge
MEAN_WINDOW_S, PEAK_WINDOW_S, EDGE_S = 24.0, 6.0, 1.0

DEFAULT_VOCAB = ("intro", "verse", "chorus", "bridge", "inst", "outro",
                 "silence", "misc")


@dataclass(frozen=True)
class DbnConfig:
    min_bpm: float = 55.0
    max_bpm: float = 215.0
    beats_per_bar: tuple[int, ...] = (3, 4)
    transition_lambda: float = 100.0
    observation_lambda: float = 16.0

    def validate(self) -> None:
        if not 0 < self.min_bpm < self.max_bpm:
            raise InputError("need 0 < min_bpm < max_bpm")
        if not self.observation_lambda > 1:
            raise InputError("observation_lambda must exceed 1")
        if not self.beats_per_bar:
            raise InputError("beats_per_bar needs at least one candidate")
        if any(b < 2 for b in self.beats_per_bar):
            raise InputError("beats_per_bar candidates must be >= 2")


@dataclass
class Segment:
    start: float
    end: float
    label: str


@dataclass
class AnalysisResult:
    """Decoded events for one track; times in seconds."""

    beats: np.ndarray
    downbeats: np.ndarray
    segments: list[Segment]
    duration: float

    def validate(self) -> None:
        if (np.diff(self.beats) <= 0).any():
            raise InputError("beat times must be strictly ascending")
        beat_set = self.beats
        for t in self.downbeats:
            if np.abs(beat_set - t).min(initial=np.inf) > 1e-3:
                raise InputError("every downbeat must also be a beat")
        if self.segments:
            if abs(self.segments[0].start) > 1e-6:
                raise InputError("first segment must start at 0")
            if abs(self.segments[-1].end - self.duration) > 1e-6:
                raise InputError("last segment must end at the duration")
            for a, b in zip(self.segments, self.segments[1:]):
                if abs(a.end - b.start) > 1e-6 or b.start <= a.start:
                    raise InputError("segments must tile the track")


# ---------------------------------------------------------------------------
# bar-pointer Viterbi
# ---------------------------------------------------------------------------

def dbn_decode(beat: np.ndarray, downbeat: np.ndarray, fps: float,
               cfg: DbnConfig | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Beat and downbeat times from per-frame activations.

    One Viterbi pass runs over a single state space holding every bar
    length in ``cfg.beats_per_bar``. Its rows are (bar length, bar
    position) in candidate order; each row holds one block of ``tau``
    consecutive phases per tempo ``tau``. Bar positions wrap only within
    their own bar length, and each bar length starts from its own
    uniform prior, so the pass equals a separate decode per bar length.
    The best final state wins; exact ties go to the earlier candidate,
    then to the lower state.

    The scores of all frames live in one buffer of ``frames + n`` slots,
    and frame t views the ``n`` slots that start one slot before frame
    t - 1's. The within-beat advance (phase f comes from phase f - 1) is
    then free, and the previous frame stays readable in place. Each frame
    adds the off-beat emission to every state as one scalar, then
    rewrites the few beat-window states (the leading phases of each tempo
    block, every phase 0 among them) from their values before that add
    plus their own class. Phase 0 takes the best tempo transition, picked
    from a preallocated ``[rows, new, old]`` candidate buffer. Every
    state gets the same float64 additions as a plain per-state update.
    """
    cfg = cfg or DbnConfig()
    cfg.validate()
    beat = np.asarray(beat)
    downbeat = np.asarray(downbeat)
    if beat.size == 0:
        raise InputError("empty beat activation")
    if beat.shape != downbeat.shape:
        raise InputError("beat and downbeat activations must align")
    if not fps > 0:
        raise InputError(f"fps must be positive, got {fps}")
    if beat.size < fps:
        raise InputError("need at least one second of activations")
    for arr, name in ((beat, "beat"), (downbeat, "downbeat")):
        if ((arr < 0) | (arr > 1)).any() or not np.isfinite(arr).all():
            raise InputError(f"{name} activation outside [0, 1]")

    taus = np.arange(int(np.ceil(fps * 60.0 / cfg.max_bpm)),
                     int(np.floor(fps * 60.0 / cfg.min_bpm)) + 1)
    if taus.size == 0:
        raise InputError(f"no whole-frame beat period at {fps} fps lies in "
                         f"{cfg.min_bpm}-{cfg.max_bpm} BPM")
    nt = len(taus)
    per_row = int(taus.sum())
    frames = len(beat)

    # rows: (bar length, bar position); prev_row wraps within the bar length
    bpb = np.asarray(cfg.beats_per_bar)
    row_start = np.repeat(np.cumsum(bpb) - bpb, bpb)
    bar_pos = np.arange(len(row_start)) - row_start
    prev_row = row_start + (bar_pos - 1) % np.repeat(bpb, bpb)
    rows = len(bar_pos)
    n = rows * per_row

    # within a row: tempo blocks of tau phases each
    first_off = np.cumsum(taus) - taus                   # phase 0 of each tempo
    tempo = np.repeat(np.arange(nt), taus)               # tempo index per offset
    phase = np.arange(per_row) - first_off[tempo]
    last_off = first_off + taus - 1

    # emission classes: 0 = off-beat, 1 = beat window, 2 = downbeat window;
    # a row's window states all share its class
    in_window = phase < taus[tempo] / cfg.observation_lambda
    row_class = np.where(bar_pos == 0, 2, 1)[:, None]
    obs_log = np.empty((frames, 3))                      # log emission per class
    off_beat, on_beat, on_down = obs_log.T               # float64 column views
    on_beat[:] = beat
    on_down[:] = downbeat
    np.subtract(1.0, on_beat, out=off_beat)
    off_beat -= on_down
    np.clip(off_beat, 1e-6, 1.0, out=off_beat)
    off_beat /= cfg.observation_lambda - 1.0
    np.clip(on_beat, 1e-6, 1.0, out=on_beat)
    np.clip(on_down, 1e-6, 1.0, out=on_down)
    np.log(obs_log, out=obs_log)

    ratio = taus[:, None].astype(np.float64) / taus[None, :]
    penalty = -cfg.transition_lambda * np.abs(ratio - 1.0)            # [new, old]

    # flat state ids: the last phase of every tempo at the previous bar
    # position; the window states of every row, phase 0 of each tempo first
    row_base = np.arange(rows)[:, None] * per_row
    ends_idx = prev_row[:, None] * per_row + last_off    # [rows, old]
    rest_idx = row_base + np.flatnonzero(in_window & (phase > 0))
    win_idx = np.concatenate([row_base + first_off, rest_idx], axis=1)
    pick = np.arange(rows * nt).reshape(rows, nt) * nt   # flat [rows, new, 0]

    # frame t's scores are buf[frames - 1 - t:][:n], one slot before frame
    # t - 1's, so phase f at t aliases phase f - 1 at t - 1
    buf = np.zeros(frames + n)
    delta = buf[frames - 1:frames - 1 + n]
    prior = np.repeat(-np.log(bpb * per_row), bpb * per_row)
    delta[:] = prior + obs_log[0, 0]
    delta[win_idx] = prior[win_idx] + obs_log[0, row_class]
    pointers = np.empty((frames, rows, nt), dtype=np.min_scalar_type(nt - 1))
    cand = np.empty((rows, nt, nt))
    win = np.empty(win_idx.shape)
    # every index below is in range; mode="clip" writes the strided win
    # views directly, where the default mode="raise" buffers them
    for t in range(1, frames):
        prev, delta = delta, buf[frames - 1 - t:frames - 1 - t + n]
        np.add(np.take(prev, ends_idx)[:, None, :], penalty, out=cand)
        best = cand.argmax(axis=2)
        pointers[t] = best
        best += pick
        np.take(cand, best, out=win[:, :nt], mode="clip")
        np.take(delta, rest_idx, out=win[:, nt:], mode="clip")
        win += obs_log[t, row_class]
        delta += obs_log[t, 0]
        delta[win_idx] = win

    # backtrace: within a beat the predecessor is deterministic
    row, off = divmod(int(delta.argmax()), per_row)
    path_row = np.empty(frames, dtype=np.int64)
    path_off = np.empty(frames, dtype=np.int64)
    path_row[-1], path_off[-1] = row, off
    for t in range(frames - 1, 0, -1):
        if phase[off] > 0:
            off -= 1
        else:
            old_ti = pointers[t, row, tempo[off]]
            row, off = int(prev_row[row]), int(last_off[old_ti])
        path_row[t - 1], path_off[t - 1] = row, off

    beat_frames = np.flatnonzero(phase[path_off] == 0)
    down_frames = beat_frames[bar_pos[path_row[beat_frames]] == 0]
    return beat_frames / fps, down_frames / fps


# ---------------------------------------------------------------------------
# boundary picking and labeling
# ---------------------------------------------------------------------------

def pick_boundaries(boundary: np.ndarray, fps: float) -> np.ndarray:
    """Boundary times from the boundary activation (no threshold).

    The activation is normalised by subtracting a centred sliding mean
    (window truncated at the track edges); a frame is picked when the
    normalised value is positive and strictly maximal within the peak
    window, with ties going to the earliest frame. Picks within
    ``EDGE_S`` of the track edges are dropped; the edges themselves are
    implicit boundaries.
    """
    act = np.asarray(boundary, dtype=np.float64)
    if act.ndim != 1:
        raise InputError("boundary activation must be one-dimensional")
    t_total = act.size
    if t_total == 0:
        return np.empty(0)
    if ((act < 0) | (act > 1)).any():
        raise InputError("boundary activation outside [0, 1]")

    half = int(round(MEAN_WINDOW_S * fps / 2))
    csum = np.concatenate([[0.0], np.cumsum(act)])
    lo = np.maximum(np.arange(t_total) - half, 0)
    hi = np.minimum(np.arange(t_total) + half + 1, t_total)
    local_mean = (csum[hi] - csum[lo]) / (hi - lo)
    n = act - local_mean

    eps = _REL_EPS * max(float(np.abs(act).max()), 1.0)
    half_peak = int(round(PEAK_WINDOW_S * fps))
    candidates = np.flatnonzero(n > eps)
    picked = []
    for t in candidates:
        w_lo = max(t - half_peak, 0)
        w_hi = min(t + half_peak + 1, t_total)
        seg = n[w_lo:w_hi]
        if n[t] < seg.max():
            continue
        if int(w_lo + seg.argmax()) != t:        # earlier equal value wins
            continue
        picked.append(t)
    times = np.asarray(picked, dtype=np.float64) / fps
    duration = t_total / fps
    keep = (times >= EDGE_S) & (times <= duration - EDGE_S)
    return times[keep]


def label_segments(labels: np.ndarray, boundaries: np.ndarray, duration: float,
                   vocab: tuple[str, ...]) -> list[Segment]:
    """Split [0, duration] at the boundaries and label each span by the
    highest mean per-frame label probability (ties to the lower index)."""
    labels = np.asarray(labels)
    frames, n_vocab = labels.shape
    if n_vocab != len(vocab):
        raise InputError("label matrix does not match the vocabulary")
    fps = frames / duration
    edges = [0.0] + [float(b) for b in boundaries] + [duration]
    for a, b in zip(edges, edges[1:]):
        if b <= a:
            raise InputError("boundaries must be strictly ascending inside the track")
    segments = []
    for a, b in zip(edges, edges[1:]):
        lo = min(int(round(a * fps)), frames - 1)
        hi = max(int(round(b * fps)), lo + 1)
        mean = labels[lo:min(hi, frames)].mean(axis=0)
        segments.append(Segment(start=a, end=b, label=vocab[int(mean.argmax())]))
    return segments


def analyze_activations(acts, vocab: tuple[str, ...] | None = None) -> AnalysisResult:
    """Full decode of one track's activations into an AnalysisResult."""
    vocab = vocab or DEFAULT_VOCAB
    beats, downbeats = dbn_decode(acts.beat, acts.downbeat, acts.fps)
    boundaries = pick_boundaries(acts.boundary, acts.fps)
    duration = acts.num_frames / acts.fps
    segments = label_segments(acts.labels, boundaries, duration, vocab)
    result = AnalysisResult(beats=beats, downbeats=downbeats, segments=segments,
                            duration=duration)
    result.validate()
    return result
