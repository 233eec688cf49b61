"""The single-pass bar-pointer decoder against the per-bar-length decoder
it replaced, frozen here as the reference: beats and downbeats must be
exactly equal."""

import numpy as np
import pytest

from aio1.errors import InputError
from aio1.postproc import DbnConfig, dbn_decode

from test_postproc import FPS, plant_beats


# ---------------------------------------------------------------------------
# frozen reference: one Viterbi run per bar length, best log-likelihood wins
# ---------------------------------------------------------------------------

class _BarStateSpace:
    """Flat enumeration of (bar, tempo, phase) states for one bar length."""

    def __init__(self, beats_per_bar, taus):
        self.b = beats_per_bar
        self.taus = taus
        per_bar = int(taus.sum())
        self.n = beats_per_bar * per_bar
        self.bar = np.empty(self.n, dtype=np.int32)
        self.tau = np.empty(self.n, dtype=np.int32)
        self.phase = np.empty(self.n, dtype=np.int32)
        self.first = np.empty((beats_per_bar, len(taus)), dtype=np.int64)
        self.last = np.empty((beats_per_bar, len(taus)), dtype=np.int64)
        pos = 0
        for bar in range(beats_per_bar):
            for ti, tau in enumerate(taus):
                tau = int(tau)
                sl = slice(pos, pos + tau)
                self.bar[sl] = bar
                self.tau[sl] = tau
                self.phase[sl] = np.arange(tau)
                self.first[bar, ti] = pos
                self.last[bar, ti] = pos + tau - 1
                pos += tau


def _decode_single(beat, downbeat, fps, cfg, beats_per_bar):
    taus = np.arange(int(np.ceil(fps * 60.0 / cfg.max_bpm)),
                     int(np.floor(fps * 60.0 / cfg.min_bpm)) + 1)
    space = _BarStateSpace(beats_per_bar, taus)
    nt = len(taus)
    frames = len(beat)

    in_window = space.phase < space.tau / cfg.observation_lambda
    obs_class = np.where(in_window, np.where(space.bar == 0, 2, 1), 0)

    b = np.clip(beat, 1e-6, 1.0)
    d = np.clip(downbeat, 1e-6, 1.0)
    rest = np.clip(1.0 - beat - downbeat, 1e-6, 1.0) / (cfg.observation_lambda - 1.0)
    obs_log = np.stack([np.log(rest), np.log(b), np.log(d)], axis=1)

    ratio = taus[None, :].astype(np.float64) / taus[:, None]
    penalty = -cfg.transition_lambda * np.abs(ratio - 1.0)            # [old, new]

    delta = np.full(space.n, -np.log(space.n), dtype=np.float64)
    delta += obs_log[0, obs_class]
    pointers = np.empty((frames, beats_per_bar, nt), dtype=np.int16)
    pointers[0] = -1
    shifted = np.empty_like(delta)
    first_idx = space.first
    last_idx = space.last

    for t in range(1, frames):
        shifted[1:] = delta[:-1]
        shifted[0] = -np.inf
        for bar in range(beats_per_bar):
            prev_bar = bar - 1 if bar else beats_per_bar - 1
            ends = delta[last_idx[prev_bar]]
            cand = ends[:, None] + penalty
            best_old = cand.argmax(axis=0)
            shifted[first_idx[bar]] = cand[best_old, np.arange(nt)]
            pointers[t, bar] = best_old
        shifted += obs_log[t, obs_class]
        delta, shifted = shifted, delta

    state = int(delta.argmax())
    loglik = float(delta[state])
    path = np.empty(frames, dtype=np.int64)
    path[-1] = state
    for t in range(frames - 1, 0, -1):
        if space.phase[state] > 0:
            state -= 1
        else:
            bar = int(space.bar[state])
            prev_bar = bar - 1 if bar else beats_per_bar - 1
            ti = int(np.searchsorted(taus, space.tau[state]))
            old_ti = int(pointers[t, bar, ti])
            state = int(last_idx[prev_bar, old_ti])
        path[t - 1] = state

    beat_frames = np.flatnonzero(space.phase[path] == 0)
    down_frames = beat_frames[space.bar[path[beat_frames]] == 0]
    return beat_frames / fps, down_frames / fps, loglik


def reference_decode(beat, downbeat, fps, cfg=None):
    cfg = cfg or DbnConfig()
    beat = np.asarray(beat, dtype=np.float64)
    downbeat = np.asarray(downbeat, dtype=np.float64)
    best = None
    for bpb in cfg.beats_per_bar:
        beats, downs, loglik = _decode_single(beat, downbeat, fps, cfg, bpb)
        if best is None or loglik > best[2]:
            best = (beats, downs, loglik)
    return best[0], best[1]


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

def random_track(seed, fps=FPS):
    """Seeded activations of 1-40 s in one of three styles: uniform noise,
    coarsely quantised noise (many exact ties), or a noisy planted grid."""
    rng = np.random.default_rng(seed)
    frames = int(rng.integers(int(fps), int(40 * fps) + 1))
    style = seed % 3
    if style == 0:
        beat, down = rng.random(frames), rng.random(frames)
    elif style == 1:
        beat = rng.integers(0, 4, frames) / 8.0
        down = rng.integers(0, 4, frames) / 8.0
    else:
        period = int(rng.integers(30, 100))
        meter = int(rng.integers(2, 6))
        beat = 0.2 * rng.random(frames)
        down = 0.2 * rng.random(frames)
        on = np.arange(int(rng.integers(0, period)), frames, period)
        beat[on] = 0.5 + 0.4 * rng.random(on.size)
        down[on[::meter]] = 0.5 + 0.4 * rng.random(on[::meter].size)
    return beat, down


def assert_same_as_reference(beat, down, fps=FPS, cfg=None):
    ref_beats, ref_downs = reference_decode(beat, down, fps, cfg)
    beats, downs = dbn_decode(beat, down, fps, cfg)
    assert np.array_equal(beats, ref_beats)
    assert np.array_equal(downs, ref_downs)


PLANTED = [(180, 50, 4), (120, round(FPS * 60 / 90), 3), (60, 45, 4)]


@pytest.mark.parametrize("total_s,period,accent", PLANTED)
def test_planted_fixtures_match_reference(total_s, period, accent):
    beat, down, _ = plant_beats(total_s, period, accent)
    assert_same_as_reference(beat, down)


def test_path_entering_mid_beat_matches_reference():
    """The first planted beat at frame period - 1, so the decoded path
    starts inside a beat and the backtrace ends without a phase 0."""
    period = 50
    beat, down, _ = plant_beats(60, period, 4)
    lead = np.full(period - 1, 0.01)
    beat, down = (np.concatenate([lead, a[:1 - period]]) for a in (beat, down))
    beats, _ = dbn_decode(beat, down, FPS)
    assert beats[0] == (period - 1) / FPS
    assert_same_as_reference(beat, down)


def test_tempo_change_matches_reference():
    """The beat period drops from 50 to 40 frames halfway, on a downbeat,
    so the backtrace follows a pointer across a tempo jump."""
    slow, fast = plant_beats(30, 50, 4), plant_beats(30, 40, 4)
    beat, down = (np.concatenate([a, b]) for a, b in zip(slow[:2], fast[:2]))
    beats, _ = dbn_decode(beat, down, FPS)
    ibis = np.round(np.diff(beats) * FPS).astype(int)
    assert set(ibis[:40]) == {50} and set(ibis[-40:]) == {40}
    assert_same_as_reference(beat, down)


def test_all_zero_matches_reference():
    assert_same_as_reference(np.zeros(1500), np.zeros(1500))


@pytest.mark.parametrize("seed", range(20))
def test_random_tracks_match_reference(seed):
    assert_same_as_reference(*random_track(seed))


CONFIGS = [DbnConfig(beats_per_bar=(4,)), DbnConfig(beats_per_bar=(4, 3)),
           DbnConfig(beats_per_bar=(2, 3, 4)),
           DbnConfig(min_bpm=80.0, max_bpm=160.0, beats_per_bar=(3, 4)),
           DbnConfig(beats_per_bar=(2,))]
CONFIG_IDS = ["4", "4-3", "2-3-4", "80-160bpm", "2"]


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("seed", [100, 101, 102])
def test_bar_length_candidates_match_reference(cfg, seed):
    assert_same_as_reference(*random_track(seed), cfg=cfg)


@pytest.mark.parametrize("cfg", CONFIGS, ids=CONFIG_IDS)
def test_bar_length_candidates_planted_match_reference(cfg):
    beat, down, _ = plant_beats(30, 60, 3)
    assert_same_as_reference(beat, down, cfg=cfg)


# Other frame rates: 50 fps, the 44100/1024 hop of many beat trackers,
# and 10 fps, where tau runs 3-10 and the beat window is phase 0 alone.
RATES = [50.0, 44100 / 1024, 10.0]
RATE_IDS = ["50", "44100-1024", "10"]


@pytest.mark.parametrize("fps", RATES, ids=RATE_IDS)
@pytest.mark.parametrize("seed", [200, 201, 202])
def test_other_frame_rates_match_reference(fps, seed):
    assert_same_as_reference(*random_track(seed, fps), fps=fps)


@pytest.mark.parametrize("fps", RATES, ids=RATE_IDS)
def test_other_frame_rates_planted_match_reference(fps):
    period = max(int(round(fps * 60 / 120)), 4)
    beat, down, _ = plant_beats(30, period, 4, fps=fps)
    assert_same_as_reference(beat, down, fps=fps)


@pytest.mark.parametrize("fps", [FPS] + RATES, ids=["100"] + RATE_IDS)
def test_shortest_track_matches_reference(fps):
    """A track of exactly ceil(fps) frames, the shortest one accepted."""
    rng = np.random.default_rng(int(fps))
    frames = int(np.ceil(fps))
    beat, down = rng.random(frames), rng.random(frames)
    assert_same_as_reference(beat, down, fps=fps)
    with pytest.raises(InputError):
        dbn_decode(beat[:-1], down[:-1], fps)
