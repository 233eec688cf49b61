"""Spectrogram extraction and the convolutional feature extractor.

Audio enters as per-stem mono waveforms (or precomputed spectrograms) and
leaves as per-stem, per-frame embeddings. The spectrogram is a magnitude
STFT run through a triangular filterbank whose centers are spaced twelve
per octave and snapped to FFT bins (duplicate low-frequency centers are
merged, which is what makes the default configuration land on 81 bands),
followed by ``log(1 + x)``.

The feature extractor applies three conv + ELU + frequency-pool stages
with weights shared across stems, then a linear map down to the embedding
size. Time resolution is never reduced; only the frequency axis shrinks.
At inference the model calls it once per fixed-size time tile with a
2-frame halo (see ``aio1.model.forward_logits``), so its memory does not
grow with the track.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor as tz
from .errors import ConfigError, InputError
from .tensor import Tensor

STEM_NAMES = ("bass", "drums", "other", "vocals")


@dataclass(frozen=True)
class SpectrogramConfig:
    sample_rate: int = 44100
    fft_size: int = 2048
    hop: int = 441
    bands_per_octave: int = 12
    fmin: float = 30.0
    fmax: float = 17000.0
    log_offset: float = 1.0

    @property
    def fps(self) -> float:
        return self.sample_rate / self.hop

    def validate(self) -> None:
        if self.sample_rate % self.hop != 0:
            raise ConfigError("hop must divide the sample rate evenly")
        filterbank(self)  # raises ConfigError when no band fits


@lru_cache(maxsize=8)
def filterbank(cfg: SpectrogramConfig) -> np.ndarray:
    """Triangular log-spaced filterbank, ``[fft_bins, bands]``, unit area."""
    n_bins = cfg.fft_size // 2 + 1
    bin_width = cfg.sample_rate / cfg.fft_size
    n = int(math.ceil(cfg.bands_per_octave * math.log2(cfg.fmax / cfg.fmin)))
    freqs = cfg.fmin * 2.0 ** (np.arange(n + 1) / cfg.bands_per_octave)
    freqs = freqs[freqs <= cfg.fmax]
    centers = np.unique(np.round(freqs / bin_width).astype(int))
    centers = centers[(centers > 0) & (centers < n_bins)]
    if len(centers) < 3:
        raise ConfigError("filterbank parameters leave fewer than one band")
    fb = np.zeros((n_bins, len(centers) - 2), dtype=np.float32)
    for i in range(1, len(centers) - 1):
        lo, mid, hi = centers[i - 1], centers[i], centers[i + 1]
        rise = np.arange(lo, mid + 1) - lo
        fb[lo:mid + 1, i - 1] = rise / max(mid - lo, 1)
        fall = hi - np.arange(mid, hi + 1)
        fb[mid:hi + 1, i - 1] = fall / max(hi - mid, 1)
        fb[:, i - 1] /= fb[:, i - 1].sum()
    return fb


def compute_logspec(samples: np.ndarray, cfg: SpectrogramConfig | None = None,
                    ) -> np.ndarray:
    """Log-filterbank spectrogram ``[T, bands]`` of a mono waveform.

    Frame ``t`` is centred on sample ``t * hop`` (reflection padding at the
    edges) so ``T == ceil(len / hop)`` exactly. Deterministic; the caller
    is responsible for handing in audio at ``cfg.sample_rate``.
    """
    cfg = cfg or SpectrogramConfig()
    x = np.asarray(samples, dtype=np.float32).reshape(-1)
    if x.size == 0:
        raise InputError("empty waveform")
    n = x.size
    frames = -(-n // cfg.hop)
    pad = cfg.fft_size // 2
    mode = "reflect" if n > pad else "edge"
    xp = np.pad(x, (pad, pad), mode=mode)
    window = np.hanning(cfg.fft_size).astype(np.float32)
    fb = filterbank(cfg)
    out = np.empty((frames, fb.shape[1]), dtype=np.float32)
    every = sliding_window_view(xp, cfg.fft_size)      # a view: no copy
    block = 4096
    for start in range(0, frames, block):
        stop = min(start + block, frames)
        windows = every[start * cfg.hop:(stop - 1) * cfg.hop + 1:cfg.hop]
        mag = np.abs(np.fft.rfft(windows * window, axis=1))
        out[start:stop] = np.log(cfg.log_offset + mag @ fb)
    return out


@dataclass
class StemSpectrogram:
    """Per-stem log-filterbank spectrograms sharing one time base."""

    values: np.ndarray                      # [stems, frames, bands]
    fps: float
    stems: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.stems is None:
            s = self.values.shape[0]
            self.stems = STEM_NAMES if s == len(STEM_NAMES) else tuple(
                f"stem{i}" for i in range(s))

    def validate(self) -> None:
        v = self.values
        if v.ndim != 3:
            raise InputError(f"expected [stems, frames, bands], got {v.shape}")
        if len(self.stems) != v.shape[0]:
            raise InputError("stem names do not match the value tensor")
        if not np.isfinite(v).all():
            raise InputError("spectrogram contains non-finite values")

    @property
    def num_stems(self) -> int:
        return self.values.shape[0]

    @property
    def num_frames(self) -> int:
        return self.values.shape[1]


def stems_from_audio(waveforms: dict[str, np.ndarray],
                     cfg: SpectrogramConfig | None = None) -> StemSpectrogram:
    """Build a StemSpectrogram from named mono waveforms (fixed stem order)."""
    cfg = cfg or SpectrogramConfig()
    missing = [s for s in STEM_NAMES if s not in waveforms]
    if missing:
        raise InputError(f"missing stems: {', '.join(missing)}")
    specs = [compute_logspec(waveforms[s], cfg) for s in STEM_NAMES]
    frames = min(s.shape[0] for s in specs)
    values = np.stack([s[:frames] for s in specs])
    return StemSpectrogram(values=values, fps=cfg.fps, stems=STEM_NAMES)


# ---------------------------------------------------------------------------
# convolutional feature extractor
# ---------------------------------------------------------------------------

@dataclass
class FrontendWeights:
    conv1_w: Tensor
    conv1_b: Tensor
    conv2_w: Tensor
    conv2_b: Tensor
    conv3_w: Tensor
    conv3_b: Tensor
    proj_w: Tensor
    proj_b: Tensor

    def named(self, prefix: str = "frontend"):
        yield f"{prefix}.conv1.weight", self.conv1_w
        yield f"{prefix}.conv1.bias", self.conv1_b
        yield f"{prefix}.conv2.weight", self.conv2_w
        yield f"{prefix}.conv2.bias", self.conv2_b
        yield f"{prefix}.conv3.weight", self.conv3_w
        yield f"{prefix}.conv3.bias", self.conv3_b
        yield f"{prefix}.proj.weight", self.proj_w
        yield f"{prefix}.proj.bias", self.proj_b


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
        bound = 1.0 / math.sqrt(cin * kh * kw)
        return Tensor(rng.uniform(-bound, bound, (cout, cin, kh, kw)).astype(dtype))

    feat = c3 * pooled_bands(bands, pool_widths)
    bound = 1.0 / math.sqrt(feat)
    return FrontendWeights(
        conv1_w=conv(c1, 1, 3, 3), conv1_b=Tensor(np.zeros(c1, dtype=dtype)),
        conv2_w=conv(c2, c1, 3, 3), conv2_b=Tensor(np.zeros(c2, dtype=dtype)),
        conv3_w=conv(c3, c2, 1, 3), conv3_b=Tensor(np.zeros(c3, dtype=dtype)),
        proj_w=Tensor(rng.uniform(-bound, bound, (feat, embed_dim)).astype(dtype)),
        proj_b=Tensor(np.zeros(embed_dim, dtype=dtype)))


# frames on either side of an output frame that the front end reads: the
# two 3x3 convs reach one frame each; conv3 is 1x3 and pooling only
# touches frequency
TIME_REACH = 2


def frontend_forward(x: Tensor, w: FrontendWeights,
                     pool_widths: tuple[int, ...] = (3, 3, 3), dropout_rate: float = 0.2,
                     rng: np.random.Generator | None = None) -> Tensor:
    """Per-stem embeddings ``[S, T, C]`` from spectrograms ``[S, T, bands]``.

    All stems share the same weights; time resolution is preserved (the
    convolutions pad the time axis, pooling only touches frequency). An
    ``rng`` turns dropout on.
    """
    s, t, bands = x.shape
    check_frontend_plan(bands, pool_widths)
    h = x.reshape(s, 1, t, bands)
    convs = ((w.conv1_w, w.conv1_b, (1, 1)), (w.conv2_w, w.conv2_b, (1, 1)),
             (w.conv3_w, w.conv3_b, (0, 1)))
    for (kw_, kb, pad), pool in zip(convs, pool_widths):
        h = tz.conv2d(h, kw_, pad)
        h = h + kb.reshape(1, -1, 1, 1)
        h = tz.elu(h)
        h = tz.dropout(h, dropout_rate, rng)
        h = tz.maxpool(h, axis=3, width=pool)
    # [S, c3, T, F] -> [S, T, c3 * F]
    h = h.transpose(0, 2, 1, 3).reshape(s, t, -1)
    return tz.matmul(h, w.proj_w) + w.proj_b
