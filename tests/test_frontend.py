"""Spectrogram extraction and the shared-weight conv feature extractor."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import aio1
import aio1.tensor as tz
from aio1.errors import ConfigError, InputError
from aio1.frontend import (FFT_SIZE, HOP, SAMPLE_RATE, StemSpectrogram, compute_logspec,
                           filterbank, frontend_forward, init_frontend_weights,
                           pooled_bands, stems_from_audio)
from aio1.tensor import Tensor

from gradcheck import grad_check
from graph_ops import sigmoid, tsum


def test_default_filterbank_has_81_bands():
    assert filterbank().shape == (1025, 81)


def test_silence_gives_zero_frames():
    spec = compute_logspec(np.zeros(44100, dtype=np.float32))
    assert spec.shape == (100, 81)
    np.testing.assert_array_equal(spec, 0.0)


def test_frame_count_is_ceil_of_hop_ratio():
    assert compute_logspec(np.zeros(44100)).shape[0] == 100
    assert compute_logspec(np.zeros(44101)).shape[0] == 101
    assert compute_logspec(np.zeros(440)).shape[0] == 1


def test_sine_peaks_at_nearest_band():
    t = np.arange(44100) / SAMPLE_RATE
    spec = compute_logspec(np.sin(2 * np.pi * 440.0 * t))
    centers = filterbank().argmax(axis=0) * SAMPLE_RATE / FFT_SIZE
    want = int(np.abs(centers - 440.0).argmin())
    # interior frames only; edge frames see reflection-padding artifacts
    got = spec[10:-10].argmax(axis=1)
    assert (got == want).all()


@pytest.mark.blas_order
def test_spectrogram_frame_does_not_depend_on_track_length():
    """A prefix of a track has the longer track's frames, up to the frames
    whose window reaches past the prefix's end: 8,200 frames once left an
    8-frame block that summed in another order (2.4e-7 off)."""
    x = np.random.default_rng(40).standard_normal(9000 * HOP).astype(np.float32)
    full = compute_logspec(x)
    for frames in (4100, 8190, 8200, 8214):
        inner = frames - FFT_SIZE // (2 * HOP) - 1
        np.testing.assert_array_equal(compute_logspec(x[:frames * HOP])[:inner],
                                      full[:inner], err_msg=str(frames))


def logspec_float64(samples):
    """``compute_logspec`` with a float64 FFT and filterbank GEMM over the
    same float32 windowed frames."""
    x = np.asarray(samples, dtype=np.float32)
    frames = -(-x.size // HOP)
    xp = np.pad(x, FFT_SIZE // 2, mode="reflect")
    windows = sliding_window_view(xp, FFT_SIZE)[::HOP][:frames]
    framed = (windows * np.hanning(FFT_SIZE).astype(np.float32)).astype(np.float64)
    mag = np.abs(np.fft.rfft(framed, axis=1))
    return np.log(1.0 + mag @ filterbank().astype(np.float64))


@pytest.mark.blas_order
@pytest.mark.parametrize("signal", ["noise", "loud-noise", "sine"])
def test_spectrogram_matches_float64_oracle(signal):
    n = 3 * SAMPLE_RATE
    if signal == "sine":
        x = np.sin(2 * np.pi * 440.0 * np.arange(n) / SAMPLE_RATE)
    else:
        scale = 8.0 if signal == "loud-noise" else 1.0
        x = scale * np.random.default_rng(41).standard_normal(n)
    x = x.astype(np.float32)
    np.testing.assert_allclose(compute_logspec(x), logspec_float64(x), rtol=0, atol=2e-5)


def _with_cpus(monkeypatch, n, x):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return compute_logspec(x)


@pytest.mark.blas_order
def test_spectrogram_does_not_depend_on_worker_count(monkeypatch):
    x = np.random.default_rng(42).standard_normal(2 * SAMPLE_RATE + 123).astype(np.float32)
    np.testing.assert_array_equal(_with_cpus(monkeypatch, 1, x), _with_cpus(monkeypatch, 4, x))


@pytest.mark.blas_order
def test_spectrogram_memory_is_three_times_its_frames():
    """A 20 s stem peaks at under three times its float32 windowed frames:
    the windowed block, the FFT's complex64 output and its magnitudes.
    numpy's float32 ``rfft`` makes about 78 MiB of temporaries here."""
    x = np.random.default_rng(43).standard_normal(20 * SAMPLE_RATE).astype(np.float32)
    frames = -(-x.size // HOP)
    compute_logspec(x[:SAMPLE_RATE])                  # fill the lazy caches
    tracemalloc.start()
    try:
        compute_logspec(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * frames * FFT_SIZE * 4, peak / 2**20


def test_importing_the_package_loads_no_scipy():
    code = ("import sys, aio1.postproc, aio1.metrics, aio1.model, aio1.training, "
            "aio1.attention; print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    src = str(Path(aio1.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert out.stdout.strip() == "[]", out.stdout


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
    return frontend_forward(Tensor(x), w, pools, 0.0), w


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
    changed = frontend_forward(Tensor(x2), w, (3, 3, 3), 0.0).data
    np.testing.assert_array_equal(changed[0], base.data[0])
    np.testing.assert_array_equal(changed[2], base.data[2])
    assert not np.allclose(changed[1], base.data[1])


def test_zero_input_constant_embedding():
    out, w = _forward(np.zeros((2, 25, 27), np.float32))
    w.conv2_b.data[:] = 0.3            # nonzero bias: still frame-constant
    w.proj_b.data[:] = np.arange(8) * 0.1
    out = frontend_forward(Tensor(np.zeros((2, 25, 27), np.float32)), w, (3, 3, 3), 0.0)
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
    tensors = [x] + [t for _, t in tz.named(w, "frontend")]

    def loss():
        return tsum(sigmoid(frontend_forward(x, w, (3, 3, 1), 0.0)))

    err = grad_check(loss, tensors)
    assert err < 1e-4, err


def frontend_loops(x, w, pools):
    """Float64 loop reference for ``frontend_forward`` in channels-first
    order: per-pixel convolution, ELU, max over each (possibly short)
    frequency window, then the projection of the channel-major features."""
    h = x[:, None]                                           # [S, 1, T, F]
    convs = ((w.conv1_w, w.conv1_b, (1, 1)), (w.conv2_w, w.conv2_b, (1, 1)),
             (w.conv3_w, w.conv3_b, (0, 1)))
    for (k, b, (ph, pw)), width in zip(convs, pools):
        k, b = k.data, b.data
        s, _, t, f = h.shape
        cout, _, kh, kw = k.shape
        hp = np.pad(h, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        oh, ow = t + 2 * ph - kh + 1, f + 2 * pw - kw + 1
        conv = np.empty((s, cout, oh, ow))
        for n in range(s):
            for o in range(cout):
                for i in range(oh):
                    for j in range(ow):
                        conv[n, o, i, j] = (hp[n, :, i:i + kh, j:j + kw] * k[o]).sum() + b[o]
        act = np.where(conv > 0, conv, np.expm1(np.minimum(conv, 0.0)))
        starts = range(0, ow, width)
        h = np.stack([act[..., q:q + width].max(axis=-1) for q in starts], axis=-1)
    s, c, t, f = h.shape
    feat = h.transpose(0, 2, 1, 3).reshape(s, t, c * f)
    return feat @ w.proj_w.data + w.proj_b.data


@pytest.mark.parametrize("bands,channels,pools", [
    (9, (2, 3, 4), (3, 3, 1)),         # the tiny preset's front end
    (11, (2, 3, 2), (3, 3, 1)),        # remainders at the first two pools
    (54, (3, 2, 3), (3, 3, 3)),        # two pooled bands, no remainder
], ids=["tiny", "remainder", "54-bands"])
def test_frontend_matches_loop_reference(bands, channels, pools):
    rng = np.random.default_rng(5)
    w = init_frontend_weights(bands, channels, pools, 8, rng, dtype=np.float64)
    for bias in (w.conv1_b, w.conv2_b, w.conv3_b, w.proj_b):
        bias.data[:] = rng.standard_normal(bias.shape)
    x = rng.standard_normal((2, 7, bands))
    got = frontend_forward(Tensor(x), w, pools, 0.0).data
    np.testing.assert_allclose(got, frontend_loops(x, w, pools), rtol=0, atol=1e-10)
