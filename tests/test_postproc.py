"""Decoders: bar-pointer Viterbi, boundary picking, segment labeling."""

import tracemalloc
import warnings

import numpy as np
import pytest

from aio1 import postproc
from aio1.errors import InputError
from aio1.postproc import (AnalysisResult, DbnConfig, Segment, dbn_decode,
                           label_segments, pick_boundaries)

FPS = 100.0


def plant_beats(total_s, period_frames, accent_every, fps=FPS):
    """Synthetic activations with plateaus at the planted events.

    Plateaus span the decoder's beat window (floor(period / 16) + 1
    frames) so the aligned path is the unique optimum rather than one of
    several ties shifted by a frame.
    """
    frames = int(total_s * fps)
    width = period_frames // 16 + 1
    beat = np.full(frames, 0.01)
    down = np.full(frames, 0.01)
    beat_frames = np.arange(0, frames - width, period_frames)
    for i, f in enumerate(beat_frames):
        beat[f:f + width] = 0.9
        if i % accent_every == 0:
            down[f:f + width] = 0.85
    return beat, down, beat_frames / fps


def test_dbn_120bpm_four_beat_bars():
    beat, down, grid = plant_beats(180, 50, 4)
    beats, downs = dbn_decode(beat, down, FPS)
    assert len(beats) > 300
    err = np.abs(beats[:, None] - grid[None, :]).min(axis=1)
    assert err.max() <= 0.030
    # downbeats fall on every 4th decoded beat
    down_idx = np.searchsorted(beats, downs)
    assert np.all(np.diff(down_idx) == 4)
    spacing = np.diff(downs)
    np.testing.assert_allclose(spacing, 2.0, atol=0.03)


def test_dbn_90bpm_three_beat_bars():
    period = round(FPS * 60 / 90)
    beat, down, grid = plant_beats(120, period, 3)
    beats, downs = dbn_decode(beat, down, FPS)
    err = np.abs(beats[:, None] - grid[None, :]).min(axis=1)
    assert err.max() <= 0.030
    down_idx = np.searchsorted(beats, downs)
    assert np.all(np.diff(down_idx) == 3)


def test_dbn_all_zero_keeps_tempo_range():
    cfg = DbnConfig()
    beats, _ = dbn_decode(np.zeros(1500), np.zeros(1500), FPS, cfg)
    ibis = np.diff(beats)
    assert ibis.size > 0
    assert (ibis >= 60.0 / cfg.max_bpm - 1.0 / FPS).all()
    assert (ibis <= 60.0 / cfg.min_bpm + 1.0 / FPS).all()


def test_dbn_downbeats_subset_of_beats():
    beat, down, _ = plant_beats(60, 45, 4)
    beats, downs = dbn_decode(beat, down, FPS)
    for t in downs:
        assert np.abs(beats - t).min() < 1e-3


def test_dbn_input_validation():
    with pytest.raises(InputError):
        dbn_decode(np.zeros(0), np.zeros(0), FPS)
    with pytest.raises(InputError):
        dbn_decode(np.zeros(10), np.zeros(10), FPS)
    with pytest.raises(InputError):
        dbn_decode(np.full(200, 1.5), np.zeros(200), FPS)


def test_dbn_tempo_range_without_whole_frame_period():
    # 100.5-101 BPM at 100 fps asks for a beat period of 59.4-59.7 frames
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="no whole-frame beat period"):
            dbn_decode(np.full(200, 0.1), np.zeros(200), FPS,
                       DbnConfig(min_bpm=100.5, max_bpm=101))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("min_bpm", [0.0, -10.0])
def test_dbn_rejects_non_positive_min_bpm(min_bpm):
    with pytest.raises(InputError, match="min_bpm"):
        dbn_decode(np.full(200, 0.1), np.zeros(200), FPS,
                   DbnConfig(min_bpm=min_bpm))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [1.0, 0.5])
def test_dbn_rejects_observation_lambda_up_to_one(lam):
    with pytest.raises(InputError, match="observation_lambda"):
        dbn_decode(np.full(200, 0.1), np.zeros(200), FPS,
                   DbnConfig(observation_lambda=lam))


@pytest.mark.parametrize("beats_per_bar", [(), []])
def test_dbn_rejects_empty_beats_per_bar(beats_per_bar):
    with pytest.raises(InputError, match="beats_per_bar"):
        dbn_decode(np.full(200, 0.1), np.zeros(200), FPS,
                   DbnConfig(beats_per_bar=beats_per_bar))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fps", [0.0, -100.0])
def test_dbn_rejects_non_positive_fps(fps):
    with pytest.raises(InputError, match="fps"):
        dbn_decode(np.full(200, 0.1), np.zeros(200), fps)


def test_dbn_memory_grows_by_its_backpointers():
    """Per frame the decoder keeps one uint8 backpointer per (row, tempo)
    and a few float64 values (its score slot and log emissions), so
    tracemalloc's peak grows by at most ``rows * nt + 80`` bytes a frame
    from 3,000 to 6,000 frames; intp pointers or a per-frame table of row
    emissions would exceed it."""
    cfg = DbnConfig()
    rows = sum(cfg.beats_per_bar)
    nt = int(np.floor(FPS * 60 / cfg.min_bpm)) - int(np.ceil(FPS * 60 / cfg.max_bpm)) + 1
    peaks = {}
    for frames in (3000, 6000):
        beat, down, _ = plant_beats(frames / FPS, 50, 4)
        tracemalloc.start()
        try:
            dbn_decode(beat, down, FPS, cfg)
            peaks[frames] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    slope = (peaks[6000] - peaks[3000]) / 3000
    assert slope <= rows * nt + 80, slope


# ---------------------------------------------------------------------------
# boundary picking
# ---------------------------------------------------------------------------

def gaussian_bump(center_s, height, total_s, sigma_s=0.5, fps=FPS):
    t = np.arange(int(total_s * fps)) / fps
    return height * np.exp(-0.5 * ((t - center_s) / sigma_s) ** 2)


def test_single_bump_is_picked():
    act = gaussian_bump(30.0, 0.8, 60.0)
    times = pick_boundaries(act, FPS)
    assert len(times) == 1
    assert abs(times[0] - 30.0) <= 0.05


def test_constant_activation_picks_nothing():
    assert pick_boundaries(np.full(6000, 0.3), FPS).size == 0
    assert pick_boundaries(np.zeros(6000), FPS).size == 0


def test_close_smaller_bump_suppressed():
    act = gaussian_bump(30.0, 0.9, 60.0) + gaussian_bump(32.0, 0.6, 60.0)
    act = np.clip(act, 0.0, 1.0)
    times = pick_boundaries(act, FPS)
    assert len(times) == 1
    assert abs(times[0] - 30.0) <= 0.05


def test_edge_peaks_dropped():
    act = gaussian_bump(0.3, 0.9, 60.0) + gaussian_bump(59.8, 0.9, 60.0)
    act = np.clip(act, 0.0, 1.0)
    assert pick_boundaries(act, FPS).size == 0


def test_shift_equivariance_interior():
    base = gaussian_bump(25.0, 0.7, 90.0)
    shifted = gaussian_bump(25.0 + 3.0, 0.7, 90.0)
    t0 = pick_boundaries(base, FPS)
    t1 = pick_boundaries(shifted, FPS)
    np.testing.assert_allclose(t1, t0 + 3.0, atol=1e-6)


def test_scale_invariance_zero_floor():
    act = gaussian_bump(20.0, 0.5, 60.0) + gaussian_bump(40.0, 0.25, 60.0)
    ref = pick_boundaries(act, FPS)
    for alpha in (2.0, 0.5, 0.125):
        np.testing.assert_allclose(pick_boundaries(alpha * act, FPS), ref)


def _pick_boundaries_loop(act: np.ndarray, fps: float) -> np.ndarray:
    """``pick_boundaries`` as a loop over the candidate frames: a frame is
    picked when it is above eps and the first maximum of its peak window."""
    t_total = act.size
    half = int(round(postproc.MEAN_WINDOW_S * fps / 2))
    csum = np.concatenate([[0.0], np.cumsum(act)])
    lo = np.maximum(np.arange(t_total) - half, 0)
    hi = np.minimum(np.arange(t_total) + half + 1, t_total)
    n = act - (csum[hi] - csum[lo]) / (hi - lo)
    eps = postproc._REL_EPS * max(float(np.abs(act).max()), 1.0)
    half_peak = int(round(postproc.PEAK_WINDOW_S * fps))
    picked = []
    for t in np.flatnonzero(n > eps):
        w_lo = max(t - half_peak, 0)
        seg = n[w_lo:min(t + half_peak + 1, t_total)]
        if n[t] >= seg.max() and int(w_lo + seg.argmax()) == t:
            picked.append(t)
    times = np.asarray(picked, dtype=np.float64) / fps
    keep = (times >= postproc.EDGE_S) & (times <= t_total / fps - postproc.EDGE_S)
    return times[keep]


def test_pick_boundaries_matches_the_loop():
    """Random, quantised (many equal values) and plateau activations, from
    one frame up, at frame rates down to 0.05 fps, where the peak window
    is the frame alone."""
    rng = np.random.default_rng(17)
    cases = 0
    for frames in (1, 2, 3, 8, 61, 400, 2500):
        for fps in (0.05, 0.1, 0.4, 1.0, 2.5, 10.0, 100.0):
            for kind in ("uniform", "levels", "plateaus", "bumps"):
                if kind == "uniform":
                    act = rng.random(frames)
                elif kind == "levels":
                    act = rng.integers(0, 3, frames) / 2.0
                elif kind == "plateaus":
                    act = np.repeat(rng.integers(0, 4, frames) / 3.0,
                                    rng.integers(1, 40, frames))[:frames]
                else:
                    act = np.zeros(frames)
                    act[rng.integers(0, frames, max(frames // 50, 1))] = 1.0
                got = pick_boundaries(act, fps)
                want = _pick_boundaries_loop(act, fps)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want, err_msg=f"{frames} {fps} {kind}")
                cases += 1
    assert cases == 196


def test_pick_boundaries_rejects_nan():
    act = gaussian_bump(30.0, 0.8, 60.0)
    act[100] = np.nan
    with pytest.raises(InputError, match="outside"):
        pick_boundaries(act, FPS)


# ---------------------------------------------------------------------------
# segment labeling
# ---------------------------------------------------------------------------

VOCAB = ("intro", "verse", "chorus", "bridge")


def test_uniform_distribution_ties_to_first_label():
    labels = np.full((1000, 4), 0.25)
    segs = label_segments(labels, np.array([4.0]), 10.0, VOCAB)
    assert [s.label for s in segs] == ["intro", "intro"]


def test_one_hot_everywhere():
    labels = np.zeros((1000, 4))
    labels[:, 2] = 1.0
    segs = label_segments(labels, np.array([3.0, 7.0]), 10.0, VOCAB)
    assert [s.label for s in segs] == ["chorus"] * 3


def test_half_verse_half_chorus():
    labels = np.zeros((2000, 4))
    labels[:1000, 1] = 1.0
    labels[1000:, 2] = 1.0
    segs = label_segments(labels, np.array([10.0]), 20.0, VOCAB)
    assert [s.label for s in segs] == ["verse", "chorus"]
    assert segs[0].start == 0.0
    assert segs[-1].end == 20.0


@pytest.mark.filterwarnings("error")
def test_boundary_in_the_last_half_frame_reads_the_last_frame():
    # 9.996 s rounds to frame 1000 of a 1,000-frame track
    labels = np.zeros((1000, 4))
    labels[:, 2] = 1.0
    segs = label_segments(labels, np.array([9.996]), 10.0, VOCAB)
    assert [s.label for s in segs] == ["chorus", "chorus"]


def test_segments_tile_duration():
    rng = np.random.default_rng(0)
    labels = rng.random((500, 4))
    labels /= labels.sum(axis=1, keepdims=True)
    bounds = np.array([1.3, 2.6, 4.0])
    segs = label_segments(labels, bounds, 5.0, VOCAB)
    assert segs[0].start == 0.0
    assert segs[-1].end == 5.0
    for a, b in zip(segs, segs[1:]):
        assert a.end == b.start


def test_analysis_result_validation():
    r = AnalysisResult(beats=np.array([0.5, 1.0]), downbeats=np.array([0.5]),
                       segments=[Segment(0.0, 4.0, "verse")], duration=4.0)
    r.validate()
    bad = AnalysisResult(beats=np.array([0.5, 1.0]), downbeats=np.array([0.7]),
                         segments=[Segment(0.0, 4.0, "verse")], duration=4.0)
    with pytest.raises(InputError):
        bad.validate()
    # a downbeat may lie up to 1 ms from its beat, on either side of the
    # first and the last beat
    for downs, ok in (([0.4991, 1.0009], True), ([0.5009, 0.9991], True),
                      ([0.4989], False), ([1.0011], False),
                      ([0.5011], False), ([0.9989], False)):
        r.downbeats = np.array(downs)
        if ok:
            r.validate()
        else:
            with pytest.raises(InputError, match="downbeat"):
                r.validate()
    no_beats = AnalysisResult(beats=np.zeros(0), downbeats=np.array([0.5]),
                              segments=[Segment(0.0, 4.0, "verse")], duration=4.0)
    with pytest.raises(InputError, match="downbeat"):
        no_beats.validate()
