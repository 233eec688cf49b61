"""Metric definitions against enumeration oracles and hand-computed
joint tables."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from aio1.errors import InputError
from aio1.metrics import (Annotation, Beat, _frame_labels, boundary_hit_rate,
                          continuity, entropy_scores, evaluate_track, event_f1,
                          pairwise_f, segment_boundaries)
from aio1.postproc import AnalysisResult, Segment


def segs(*spans):
    return [Segment(a, b, lab) for a, b, lab in spans]


def brute_force_matching(est, ref, tol):
    """Exhaustive maximum matching over all injective assignments."""
    if len(est) > len(ref):
        est, ref = ref, est
    best = 0
    for combo in itertools.permutations(range(len(ref)), len(est)):
        hits = sum(1 for i, j in enumerate(combo) if abs(est[i] - ref[j]) <= tol)
        best = max(best, hits)
    return best


# ---------------------------------------------------------------------------
# event F1
# ---------------------------------------------------------------------------

def test_event_f1_identical():
    times = np.arange(10) * 0.5
    assert event_f1(times, times, 0.07) == (1.0, 1.0, 1.0)


def test_event_f1_all_shifted_out():
    ref = np.arange(10) * 0.5
    f1, p, r = event_f1(ref + 0.1, ref, 0.07)
    assert f1 == 0.0 and p == 0.0 and r == 0.0


def test_event_f1_one_missing():
    ref = np.arange(10) * 0.5
    est = np.delete(ref, 4)
    f1, p, r = event_f1(est, ref, 0.07)
    assert p == 1.0
    assert r == 0.9
    assert abs(f1 - oracle_f1(est, ref, 0.07, assignment_matching)) < 1e-12
    assert abs(f1 - 0.9474) < 5e-4


def assignment_matching(est, ref, tol):
    """Exact maximum matching: the optimal assignment on the 0/1 hit matrix."""
    if len(est) == 0 or len(ref) == 0:
        return 0
    hit = np.array([[abs(e - r) <= tol for r in ref] for e in est], dtype=float)
    rows, cols = linear_sum_assignment(hit, maximize=True)
    return int(hit[rows, cols].sum())


def oracle_f1(est, ref, tol, matching=brute_force_matching):
    hits = matching(list(est), list(ref), tol)
    if len(est) == 0 and len(ref) == 0:
        return 1.0
    if len(est) == 0 or len(ref) == 0 or hits == 0:
        return 0.0
    p, r = hits / len(est), hits / len(ref)
    return 2 * p * r / (p + r)


def test_event_f1_empty_conventions():
    assert event_f1([], [], 0.07)[0] == 1.0
    assert event_f1([1.0], [], 0.07)[0] == 0.0
    assert event_f1([], [1.0], 0.07)[0] == 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0, 5), min_size=0, max_size=7),
       st.lists(st.floats(0, 5), min_size=0, max_size=7),
       st.floats(0.01, 1.0))
def test_event_f1_matches_exhaustive(est, ref, tol):
    est, ref = sorted(est), sorted(ref)
    got = event_f1(est, ref, tol)[0]
    assert abs(got - oracle_f1(est, ref, tol)) < 1e-12


def test_event_f1_matching_cardinality_pathological():
    # greedy nearest-first would match 1.0<->1.04 and strand 0.98
    ref = [1.0, 1.1]
    est = [0.98, 1.04]
    f1, p, r = event_f1(est, ref, 0.07)
    assert p == 1.0 and r == 1.0


def test_event_f1_long_chain_of_overlapping_windows():
    # every estimate reaches two references; a recursive augmenting-path
    # search overflows the stack on this input
    ref = np.arange(2000) * 0.1
    assert event_f1(ref - 0.05, ref, 0.07) == (1.0, 1.0, 1.0)


def test_event_f1_float_edge_of_window():
    # 1.76 - 1.69 rounds to just above 0.07, so the pair does not match
    assert event_f1([1.69], [1.76], 0.07) == (0.0, 0.0, 0.0)


def test_event_f1_symmetry():
    rng = np.random.default_rng(3)
    a = np.sort(rng.uniform(0, 10, 8))
    b = np.sort(rng.uniform(0, 10, 5))
    _, p_ab, _ = event_f1(a, b, 0.3)
    _, _, r_ba = event_f1(b, a, 0.3)
    assert p_ab == r_ba


# ---------------------------------------------------------------------------
# continuity
# ---------------------------------------------------------------------------

def test_continuity_identical():
    ref = np.arange(20) * 0.5
    assert continuity(ref, ref) == (1.0, 1.0)


def test_continuity_double_tempo():
    ref = np.arange(20) * 0.5
    est = np.arange(39) * 0.25
    cmlt, amlt = continuity(est, ref)
    assert cmlt == 0.0
    assert amlt == 1.0


def test_continuity_half_shifted():
    ref = np.arange(40) * 0.5
    est = ref.copy()
    est[20:] += 0.2    # 40% of the inter-beat interval
    cmlt, _ = continuity(est, ref)
    assert abs(cmlt - 0.5) <= 0.06


def test_continuity_requires_two_refs():
    with pytest.raises(InputError):
        continuity([1.0], [1.0])


def test_cmlt_never_exceeds_amlt():
    rng = np.random.default_rng(4)
    for _ in range(25):
        ref = np.sort(rng.uniform(0, 30, rng.integers(2, 30)))
        est = np.sort(rng.uniform(0, 30, rng.integers(0, 30)))
        cmlt, amlt = continuity(est, ref)
        assert cmlt <= amlt + 1e-12
        assert 0.0 <= cmlt <= 1.0 and 0.0 <= amlt <= 1.0


# ---------------------------------------------------------------------------
# boundary hit rate
# ---------------------------------------------------------------------------

def test_boundary_identical():
    s = segs((0, 30, "a"), (30, 60, "b"))
    assert boundary_hit_rate(s, s)[0] == 1.0


def test_boundary_hit_within_window():
    ref = segs((0, 30, "a"), (30, 60, "b"))
    est = segs((0, 30.4, "a"), (30.4, 60, "b"))
    f, p, r = boundary_hit_rate(est, ref, window=0.5)
    assert f == 1.0


def test_boundary_asymmetric_case():
    # ref internal boundaries {30, 60, 90}; est {30.2, 58, 91}; endpoints
    # 0 and 120 always pair. At a 1 s window 91<->90 also pairs, giving
    # the 4/5 score; at the default 0.5 s window only 30.2<->30 survives.
    ref = segs((0, 30, "a"), (30, 60, "b"), (60, 90, "c"), (90, 120, "d"))
    est = segs((0, 30.2, "a"), (30.2, 58, "b"), (58, 91, "c"), (91, 120, "d"))
    f, p, r = boundary_hit_rate(est, ref, window=1.0)
    assert (p, r) == (0.8, 0.8)
    assert abs(f - 0.8) < 1e-12
    hits = brute_force_matching(list(segment_boundaries(est)),
                                list(segment_boundaries(ref)), 1.0)
    assert hits == 4
    f05, p05, r05 = boundary_hit_rate(est, ref, window=0.5)
    assert (p05, r05) == (0.6, 0.6)
    assert brute_force_matching(list(segment_boundaries(est)),
                                list(segment_boundaries(ref)), 0.5) == 3


# ---------------------------------------------------------------------------
# frame labels: the vectorised sampler against a per-frame loop
# ---------------------------------------------------------------------------

def loop_frame_labels(segments, duration, frame):
    """One frame at a time: the segment holding ``i * frame``, its label
    numbered in order of first appearance."""
    n = int(np.ceil(duration / frame))
    ids = {}
    out = np.zeros(n, dtype=np.int64)
    starts = np.asarray([s.start for s in segments])
    for i in range(n):
        j = int(np.clip(np.searchsorted(starts, i * frame, side="right") - 1,
                        0, len(segments) - 1))
        out[i] = ids.setdefault(segments[j].label, len(ids))
    return out


def random_segmentation(rng):
    """1-12 segments with spans from 0.01 s (between two frames) to 20 s
    and labels drawn from a small pool, so labels repeat and some
    segments hold no frame."""
    k = int(rng.integers(1, 13))
    spans = np.where(rng.random(k) < 0.2, rng.uniform(0.01, 0.1, k),
                     rng.uniform(0.1, 20.0, k))
    edges = np.concatenate([[0.0], np.cumsum(spans)])
    labels = [str(rng.integers(0, 5)) for _ in range(k)]
    return [Segment(float(a), float(b), lab)
            for a, b, lab in zip(edges[:-1], edges[1:], labels)]


def test_frame_labels_match_loop():
    rng = np.random.default_rng(11)
    for _ in range(300):
        segments = random_segmentation(rng)
        duration = segments[-1].end * float(rng.uniform(0.5, 1.2))
        frame = float(rng.choice([0.1, 0.05, 0.37]))
        got = _frame_labels(segments, duration, frame)
        want = loop_frame_labels(segments, duration, frame)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# pairwise frame clustering
# ---------------------------------------------------------------------------

def test_pairwise_identical():
    s = segs((0, 10, "a"), (10, 25, "b"))
    assert pairwise_f(s, s)[0] == 1.0


def test_pairwise_label_renaming_invariance():
    ref = segs((0, 10, "a"), (10, 25, "b"), (25, 30, "a"))
    est = segs((0, 12, "x"), (12, 30, "y"))
    renamed = segs((0, 12, "verse"), (12, 30, "chorus"))
    assert pairwise_f(est, ref) == pairwise_f(renamed, ref)


def test_pairwise_four_frame_example():
    # frames at 0.1 s: ref AABB, est AAAB over 0.4 s
    ref = segs((0, 0.2, "A"), (0.2, 0.4, "B"))
    est = segs((0, 0.3, "A"), (0.3, 0.4, "B"))
    pwf, p, r = pairwise_f(est, ref, frame=0.1)
    # 6 pairs total; est same-label: {01,02,12}; ref: {01,23}; common: {01}
    assert abs(p - 1 / 3) < 1e-12
    assert abs(r - 1 / 2) < 1e-12
    assert abs(pwf - 0.4) < 1e-12


def test_pairwise_frame_halving_stability():
    rng = np.random.default_rng(5)
    for _ in range(10):
        edges = np.cumsum(rng.uniform(1.0, 8.0, 5))
        labels = [str(rng.integers(0, 3)) for _ in range(5)]
        ref = [Segment(float(a), float(b), lab) for a, b, lab in
               zip(np.concatenate([[0], edges[:-1]]), edges, labels)]
        est = [Segment(s.start, s.end, str(rng.integers(0, 3))) for s in ref]
        c1 = pairwise_f(est, ref, frame=0.1)[0]
        c2 = pairwise_f(est, ref, frame=0.05)[0]
        assert abs(c1 - c2) < 0.01
        s1 = entropy_scores(est, ref, frame=0.1)[0]
        s2 = entropy_scores(est, ref, frame=0.05)[0]
        assert abs(s1 - s2) < 0.01


# ---------------------------------------------------------------------------
# entropy scores
# ---------------------------------------------------------------------------

def test_entropy_identical():
    s = segs((0, 10, "a"), (10, 25, "b"))
    sf, so, su = entropy_scores(s, s)
    assert sf == 1.0 and so == 1.0 and su == 1.0


def test_entropy_bijective_relabel():
    ref = segs((0, 10, "a"), (10, 25, "b"))
    est = segs((0, 10, "chorus"), (10, 25, "verse"))
    assert entropy_scores(est, ref)[0] == 1.0


def test_entropy_single_estimated_label():
    # hand-computed 2x1 joint table: p = [[.5], [.5]]
    # H(est|ref) = 0 but #est = 1 -> S_over = 1 by convention
    # H(ref|est) = 1 bit, log2(#ref) = 1 -> S_under = 0 -> Sf = 0
    ref = segs((0, 10, "a"), (10, 20, "b"))
    est = segs((0, 20, "x"),)
    sf, so, su = entropy_scores(est, ref)
    assert so == 1.0
    assert su == 0.0
    assert sf == 0.0


def test_empty_estimate_scores_zero():
    ref = segs((0, 10, "a"), (10, 20, "b"))
    assert pairwise_f([], ref) == (0.0, 0.0, 0.0)
    assert entropy_scores([], ref) == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# evaluate_track
# ---------------------------------------------------------------------------

def annotation_and_matching_result():
    beats = [Beat(0.5 * i, bar_position=(i % 4) + 1) for i in range(40)]
    segments = segs((0, 8, "verse"), (8, 16, "chorus"), (16, 20, "outro"))
    ann = Annotation(beats=beats, segments=segments, duration=20.0)
    result = AnalysisResult(
        beats=np.asarray([b.time for b in beats]),
        downbeats=np.asarray([b.time for b in beats if b.bar_position == 1]),
        segments=[Segment(s.start, s.end, s.label) for s in segments],
        duration=20.0)
    return ann, result


def test_evaluate_track_perfect():
    ann, result = annotation_and_matching_result()
    report = evaluate_track(result, ann)
    for key, value in report.to_dict().items():
        assert value == 1.0, key


def test_evaluate_track_empty_result():
    ann, _ = annotation_and_matching_result()
    empty = AnalysisResult(beats=np.empty(0), downbeats=np.empty(0),
                           segments=[Segment(0.0, 20.0, "misc")], duration=20.0)
    report = evaluate_track(empty, ann)
    assert report.beat_f1 == 0.0
    assert report.downbeat_f1 == 0.0
    assert report.beat_cmlt == 0.0
    report.validate()


def test_evaluate_track_matches_standalone_ops():
    ann, result = annotation_and_matching_result()
    rng = np.random.default_rng(6)
    noisy = AnalysisResult(
        beats=np.sort(rng.uniform(0, 20, 35)),
        downbeats=np.empty(0),
        segments=segs((0, 11.0, "verse"), (11.0, 20.0, "bridge")),
        duration=20.0)
    noisy.downbeats = noisy.beats[::4]
    report = evaluate_track(noisy, ann)
    assert report.beat_f1 == event_f1(noisy.beats, ann.beat_times(), 0.07)[0]
    assert report.downbeat_cmlt == continuity(noisy.downbeats,
                                              ann.downbeat_times())[0]
    assert report.segment_hr05 == boundary_hit_rate(noisy.segments,
                                                    ann.segments)[0]
    assert report.label_pwf == pairwise_f(noisy.segments, ann.segments)[0]
    assert report.label_sf == entropy_scores(noisy.segments, ann.segments)[0]
    report.validate()


def test_evaluate_track_duration_mismatch():
    ann, result = annotation_and_matching_result()
    result.duration = 25.0
    with pytest.raises(InputError):
        evaluate_track(result, ann)
