"""Spectrogram extraction and the convolutional feature extractor.

Audio enters as per-stem mono waveforms (or precomputed spectrograms) and
leaves as per-stem, per-frame embeddings. The spectrogram is fixed, as in
the paper: ``SAMPLE_RATE`` = 44.1 kHz audio, a Hann-windowed magnitude
STFT of ``FFT_SIZE`` = 2048 samples every ``HOP`` = 441 samples
(``FPS`` = 100 frames per second), run through a triangular filterbank
whose centers are spaced ``BANDS_PER_OCTAVE`` = 12 per octave from
``FMIN`` = 30 Hz to ``FMAX`` = 17 kHz and snapped to FFT bins (duplicate
low-frequency centers are merged, which is what leaves 81 bands),
followed by ``log(1 + x)``. The FFT is ``scipy.fft.rfft`` on as many
workers as the process has CPUs (``os.sched_getaffinity``); it allocates
only its output, and its log values stay within 2e-5 of a float64 FFT of
the same frames. ``scipy.fft`` is imported on the first spectrogram, so
importing the package loads no scipy module.

The feature extractor applies three conv + ELU + frequency-pool stages,
with dropout before each pool when training, and weights shared across
stems, then a linear map down to the embedding size. Each stage is one
``tz.conv_block`` graph node. Its conv and pool are the array functions
``tz.conv2d`` and ``tz.maxpool``, which build no node of their own. The
conv copies the im2col windows in tiles of about 8,192 output positions,
and the ELU, dropout and pool run on each tile while it is in cache, so
no conv, ELU or dropout output of the whole input is made. The node
keeps only its pooled output and, per pooled value, the slot of its
window's first maximum and the ELU value and mask bit there: 3.3 bytes
per float32 conv output value at pool width 3. The backward copies the
windows one group of kernel taps at a time, so neither pass holds the
whole im2col matrix. Time resolution is never reduced; only the
frequency axis shrinks.
Activations are channels last, ``[stems, frames, bands, channels]``.

The model runs the extractor over time tiles with a halo of the convs'
reach (``aio1.model._frontend``), in training and at inference alike, so
one tile's activations are alive at a time. Each tile draws its own
slices of the dropout keep masks (:func:`mask_slicer`, 1 byte per conv
output value) when it runs: PCG64 jumps ahead in O(log n) steps, so a
copy of the generator starts at each stem's slice of the whole-track
draw, and the tiles see the masks one whole-track call would, while no
mask for the whole track is ever made.
"""

from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor as tz
from .errors import ConfigError, InputError
from .tensor import Tensor

STEM_NAMES = ("bass", "drums", "other", "vocals")

SAMPLE_RATE = 44100
FFT_SIZE = 2048
HOP = 441
FPS = SAMPLE_RATE / HOP
BANDS_PER_OCTAVE = 12
FMIN = 30.0
FMAX = 17000.0


@cache
def filterbank() -> np.ndarray:
    """Triangular log-spaced filterbank, ``[fft_bins, bands]``, unit area."""
    n_bins = FFT_SIZE // 2 + 1
    bin_width = SAMPLE_RATE / FFT_SIZE
    n = int(math.ceil(BANDS_PER_OCTAVE * math.log2(FMAX / FMIN)))
    freqs = FMIN * 2.0 ** (np.arange(n + 1) / BANDS_PER_OCTAVE)
    freqs = freqs[freqs <= FMAX]
    centers = np.unique(np.round(freqs / bin_width).astype(int))
    centers = centers[(centers > 0) & (centers < n_bins)]
    fb = np.zeros((n_bins, len(centers) - 2), dtype=np.float32)
    for i in range(1, len(centers) - 1):
        lo, mid, hi = centers[i - 1], centers[i], centers[i + 1]
        rise = np.arange(lo, mid + 1) - lo
        fb[lo:mid + 1, i - 1] = rise / max(mid - lo, 1)
        fall = hi - np.arange(mid, hi + 1)
        fb[mid:hi + 1, i - 1] = fall / max(hi - mid, 1)
        fb[:, i - 1] /= fb[:, i - 1].sum()
    return fb


def compute_logspec(samples: np.ndarray) -> np.ndarray:
    """Log-filterbank spectrogram ``[T, bands]`` of a mono waveform.

    Frame ``t`` is centred on sample ``t * HOP`` (reflection padding at the
    edges) so ``T == ceil(len / HOP)`` exactly. Deterministic; the caller
    is responsible for handing in audio at ``SAMPLE_RATE``. The float32
    FFT is ``scipy.fft.rfft`` with one worker per CPU this process may use;
    the worker count changes no value, and log values are within 2e-5 of
    a float64 FFT of the same frames.
    """
    from scipy.fft import rfft
    x = np.asarray(samples, dtype=np.float32).reshape(-1)
    if x.size == 0:
        raise InputError("empty waveform")
    n = x.size
    frames = -(-n // HOP)
    pad = FFT_SIZE // 2
    mode = "reflect" if n > pad else "edge"
    xp = np.pad(x, (pad, pad), mode=mode)
    window = np.hanning(FFT_SIZE).astype(np.float32)
    fb = filterbank()
    out = np.empty((frames, fb.shape[1]), dtype=np.float32)
    every = sliding_window_view(xp, FFT_SIZE)      # a view: no copy
    workers = len(os.sched_getaffinity(0))
    # near-equal blocks of up to 512 frames, so a block's temporaries (4 MiB
    # of windowed frames, 4 MiB of spectrum) stay small. On a track of more
    # than _SMALL_GEMM // fb.size (12) frames no block is small enough for the
    # small-GEMM kernel, so a frame's values do not depend on the length;
    # a shorter track is one block, which that kernel may sum differently
    bounds = tz._spans(frames, 512, 1, fb.size)
    for start, stop in zip(bounds, bounds[1:]):
        windows = every[start * HOP:(stop - 1) * HOP + 1:HOP]
        mag = np.abs(rfft(windows * window, axis=1, workers=workers))
        out[start:stop] = np.log(1.0 + mag @ fb)
    return out


@dataclass
class StemSpectrogram:
    """Per-stem log-filterbank spectrograms sharing one time base."""

    values: np.ndarray                      # [stems, frames, bands]
    fps: float

    def validate(self) -> None:
        v = self.values
        if v.ndim != 3:
            raise InputError(f"expected [stems, frames, bands], got {v.shape}")
        if not np.isfinite(v).all():
            raise InputError("spectrogram contains non-finite values")

    @property
    def num_stems(self) -> int:
        return self.values.shape[0]

    @property
    def num_frames(self) -> int:
        return self.values.shape[1]


def stems_from_audio(waveforms: dict[str, np.ndarray]) -> StemSpectrogram:
    """Build a StemSpectrogram from named mono waveforms (fixed stem order)."""
    missing = [s for s in STEM_NAMES if s not in waveforms]
    if missing:
        raise InputError(f"missing stems: {', '.join(missing)}")
    specs = [compute_logspec(waveforms[s]) for s in STEM_NAMES]
    frames = min(s.shape[0] for s in specs)
    values = np.stack([s[:frames] for s in specs])
    return StemSpectrogram(values=values, fps=FPS)


# ---------------------------------------------------------------------------
# convolutional feature extractor
# ---------------------------------------------------------------------------

@dataclass
class FrontendWeights:
    conv1_w: Tensor = tz.param("conv1.weight")
    conv1_b: Tensor = tz.param("conv1.bias")
    conv2_w: Tensor = tz.param("conv2.weight")
    conv2_b: Tensor = tz.param("conv2.bias")
    conv3_w: Tensor = tz.param("conv3.weight")
    conv3_b: Tensor = tz.param("conv3.bias")
    proj_w: Tensor = tz.param("proj.weight")
    proj_b: Tensor = tz.param("proj.bias")


def pooled_bands(bands: int, pool_widths: tuple[int, ...]) -> int:
    out = bands
    for w in pool_widths:
        out = -(-out // w)
    return out


def check_frontend_plan(bands: int, pool_widths: tuple[int, ...]) -> None:
    need = int(np.prod(pool_widths))
    if bands < need:
        raise ConfigError(
            f"{bands} bands are too few for pools {pool_widths} (need >= {need})")


def init_frontend_weights(bands: int, conv_channels: tuple[int, int, int],
                          pool_widths: tuple[int, ...], embed_dim: int,
                          rng: np.random.Generator, dtype=np.float32
                          ) -> FrontendWeights:
    check_frontend_plan(bands, pool_widths)
    c1, c2, c3 = conv_channels

    def conv(cout, cin, kh, kw):
        return tz.fan_in_uniform(rng, (cout, cin, kh, kw), cin * kh * kw, dtype)

    feat = c3 * pooled_bands(bands, pool_widths)
    return FrontendWeights(
        conv1_w=conv(c1, 1, 3, 3), conv1_b=Tensor(np.zeros(c1, dtype=dtype)),
        conv2_w=conv(c2, c1, 3, 3), conv2_b=Tensor(np.zeros(c2, dtype=dtype)),
        conv3_w=conv(c3, c2, 1, 3), conv3_b=Tensor(np.zeros(c3, dtype=dtype)),
        proj_w=tz.fan_in_uniform(rng, (feat, embed_dim), feat, dtype),
        proj_b=Tensor(np.zeros(embed_dim, dtype=dtype)))


def mask_slicer(shape: tuple[int, int, int], w: FrontendWeights,
                pool_widths: tuple[int, ...], rate: float, rng: np.random.Generator | None
                ) -> Callable[[int, int], list[np.ndarray | None]]:
    """The dropout keep masks of the three conv layers for an input of
    ``shape`` ``[S, T, bands]``, a span of frames at a time. Whole, they are
    one bool ``[S, T, F, C]`` array per layer, the shape of its conv output,
    drawn with ``tz._dropout_mask`` from ``rng`` in layer order; the function
    returned maps ``lo, hi`` to their ``[:, lo:hi]`` slices, bit for bit,
    and draws nothing else. Each call copies ``rng`` as it was and jumps the
    copy to each stem's slice (``tz._skip``), so a span gives the same masks
    every time; ``rng`` itself moves on past the whole draw at once. Without
    ``rng`` or at rate 0 each mask is None and nothing is drawn. This is
    the one place the front end draws from a generator."""
    s, t, bands = shape
    layers, words = [], 0               # (first word, bands, channels) per mask
    for kernels, pool in zip((w.conv1_w, w.conv2_w, w.conv3_w), pool_widths):
        layers.append((words, bands, kernels.shape[0]))
        words += s * t * bands * kernels.shape[0]
        bands = -(-bands // pool)
    if rng is None or rate == 0.0:
        return lambda lo, hi: [None] * len(layers)
    start = copy.deepcopy(rng)
    tz._skip(rng, words)

    def frames(lo: int, hi: int) -> list[np.ndarray | None]:
        at, masks, draw = 0, [], copy.deepcopy(start)
        for first, f, c in layers:
            stems = []
            for i in range(s):
                word = first + (i * t + lo) * f * c
                tz._skip(draw, word - at)
                stems.append(tz._dropout_mask((hi - lo, f, c), rate, draw,
                                              w.conv1_w.dtype)[0])
                at = word + (hi - lo) * f * c
            masks.append(np.stack(stems))
        return masks

    return frames


def frontend_forward(x: Tensor, w: FrontendWeights, pool_widths: tuple[int, ...],
                     dropout_rate: float,
                     masks: Sequence[np.ndarray | None] = (None, None, None)) -> Tensor:
    """Per-stem embeddings ``[S, T, C]`` from spectrograms ``[S, T, bands]``.

    All stems share the same weights; time resolution is preserved (the
    convolutions pad the time axis, pooling only touches frequency). The
    ``masks`` of :func:`mask_slicer` for a span of frames turn dropout on.
    """
    s, t, bands = x.shape
    check_frontend_plan(bands, pool_widths)
    h = x.reshape(s, t, bands, 1)
    convs = ((w.conv1_w, w.conv1_b), (w.conv2_w, w.conv2_b), (w.conv3_w, w.conv3_b))
    for (k, b), pool, keep in zip(convs, pool_widths, masks):
        pad = (k.shape[2] // 2, k.shape[3] // 2)
        h = tz.conv_block(h, k, b, pad, dropout_rate, keep, pool)
    # [S, T, F, c3] -> [S, T, c3 * F], channel-major like the rows of proj_w
    h = h.transpose(0, 1, 3, 2).reshape(s, t, -1)
    return tz.linear(h, w.proj_w, w.proj_b)
