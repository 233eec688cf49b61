"""Spectrogram extraction and the shared-weight conv feature extractor."""

import numpy as np
import pytest

import aio1.tensor as tz
from aio1.errors import ConfigError, InputError
from aio1.frontend import (SpectrogramConfig, StemSpectrogram, compute_logspec,
                           filterbank, frontend_forward, init_frontend_weights,
                           pooled_bands, stems_from_audio)
from aio1.tensor import Tensor


def test_default_filterbank_has_81_bands():
    cfg = SpectrogramConfig()
    cfg.validate()
    assert filterbank(cfg).shape == (1025, 81)


def test_silence_gives_zero_frames():
    cfg = SpectrogramConfig()
    spec = compute_logspec(np.zeros(44100, dtype=np.float32), cfg)
    assert spec.shape == (100, 81)
    np.testing.assert_array_equal(spec, 0.0)


def test_frame_count_is_ceil_of_hop_ratio():
    cfg = SpectrogramConfig()
    assert compute_logspec(np.zeros(44100), cfg).shape[0] == 100
    assert compute_logspec(np.zeros(44101), cfg).shape[0] == 101
    assert compute_logspec(np.zeros(440), cfg).shape[0] == 1


def test_sine_peaks_at_nearest_band():
    cfg = SpectrogramConfig()
    t = np.arange(44100) / cfg.sample_rate
    spec = compute_logspec(np.sin(2 * np.pi * 440.0 * t), cfg)
    centers = filterbank(cfg).argmax(axis=0) * cfg.sample_rate / cfg.fft_size
    want = int(np.abs(centers - 440.0).argmin())
    # interior frames only; edge frames see reflection-padding artifacts
    got = spec[10:-10].argmax(axis=1)
    assert (got == want).all()


def test_empty_waveform_rejected():
    with pytest.raises(InputError):
        compute_logspec(np.zeros(0))


def test_stems_from_audio_requires_all_stems():
    with pytest.raises(InputError):
        stems_from_audio({"bass": np.zeros(4410)})


def test_stem_spectrogram_validation():
    good = StemSpectrogram(values=np.zeros((4, 10, 81), np.float32), fps=100.0)
    good.validate()
    bad = StemSpectrogram(values=np.full((4, 10, 81), np.nan, np.float32),
                          fps=100.0)
    with pytest.raises(InputError):
        bad.validate()


# ---------------------------------------------------------------------------
# feature extractor
# ---------------------------------------------------------------------------

def _forward(x, bands=27, channels=(4, 5, 6), pools=(3, 3, 3), dim=8, seed=0):
    rng = np.random.default_rng(seed)
    w = init_frontend_weights(bands, channels, pools, dim, rng)
    return frontend_forward(Tensor(x), w, pools), w


@pytest.mark.parametrize("frames", [1, 50, 700])
def test_time_resolution_preserved(frames):
    x = np.random.default_rng(1).random((3, frames, 27)).astype(np.float32)
    out, _ = _forward(x)
    assert out.shape == (3, frames, 8)


def test_identical_stems_identical_embeddings():
    rng = np.random.default_rng(2)
    one = rng.random((1, 40, 27)).astype(np.float32)
    x = np.concatenate([one, one], axis=0)
    out, _ = _forward(x)
    np.testing.assert_array_equal(out.data[0], out.data[1])


def test_per_stem_independence():
    rng = np.random.default_rng(3)
    x = rng.random((3, 30, 27)).astype(np.float32)
    base, w = _forward(x)
    x2 = x.copy()
    x2[1] += rng.random((30, 27)).astype(np.float32)
    changed = frontend_forward(Tensor(x2), w, (3, 3, 3)).data
    np.testing.assert_array_equal(changed[0], base.data[0])
    np.testing.assert_array_equal(changed[2], base.data[2])
    assert not np.allclose(changed[1], base.data[1])


def test_zero_input_constant_embedding():
    out, w = _forward(np.zeros((2, 25, 27), np.float32))
    w.conv2_b.data[:] = 0.3            # nonzero bias: still frame-constant
    w.proj_b.data[:] = np.arange(8) * 0.1
    out = frontend_forward(Tensor(np.zeros((2, 25, 27), np.float32)), w, (3, 3, 3))
    per_frame = out.data[0]
    np.testing.assert_allclose(per_frame,
                               np.broadcast_to(per_frame[0], per_frame.shape),
                               atol=1e-6)
    assert np.abs(per_frame).max() > 0.0


def test_too_few_bands_rejected():
    x = np.zeros((1, 10, 20), np.float32)
    with pytest.raises(ConfigError):
        _forward(x, bands=20)


def test_pooled_bands_arithmetic():
    assert pooled_bands(81, (3, 3, 3)) == 3
    assert pooled_bands(9, (3, 3, 1)) == 1
    assert pooled_bands(10, (3, 3)) == 2


def test_frontend_grad_check():
    rng = np.random.default_rng(4)
    w = init_frontend_weights(9, (2, 3, 2), (3, 3, 1), 4, rng, dtype=np.float64)
    x = Tensor(rng.standard_normal((2, 6, 9)), requires_grad=True)
    tensors = [x] + [t for _, t in w.named()]

    def loss():
        return tz.tsum(tz.sigmoid(frontend_forward(x, w, (3, 3, 1))))

    err = tz.grad_check(loss, tensors)
    assert err < 1e-4, err
