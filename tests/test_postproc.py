"""Decoders: bar-pointer Viterbi, boundary picking, segment labeling."""

import warnings

import numpy as np
import pytest

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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fps", [0.0, -100.0])
def test_dbn_rejects_non_positive_fps(fps):
    with pytest.raises(InputError, match="fps"):
        dbn_decode(np.full(200, 0.1), np.zeros(200), fps)


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
                       segments=[Segment(0.0, 4.0, "verse")],
                       boundary_times=np.array([]), duration=4.0)
    r.validate()
    bad = AnalysisResult(beats=np.array([0.5, 1.0]), downbeats=np.array([0.7]),
                         segments=[Segment(0.0, 4.0, "verse")],
                         boundary_times=np.array([]), duration=4.0)
    with pytest.raises(InputError):
        bad.validate()
