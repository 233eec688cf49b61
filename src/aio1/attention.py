"""Neighborhood attention over time and over the (stem, time) grid.

Both kernels project their input to queries, keys and values and hand
them to the fused :func:`aio1.tensor.neighborhood_attention` op with a
cached set of windows:

* ``na1d`` — attention over time, restricted to the ``k`` nearest frames
  of the query's dilation coset. Windows near the sequence edges shift
  inward instead of padding with zeros, so every query attends to exactly
  ``min(k, coset size)`` real frames. Window slots no frame can fill
  (cosets shorter than the kernel) are not computed.
* ``na2d`` — attention over the (stem, time) grid with a square kernel.
  The time axis keeps the inward-shift rule; the stem axis is centred on
  the query's stem, and stems beyond the grid are left out of the window
  rather than attended to, so edge stems attend over narrower windows.

Each attention head owns one learned scalar bias per relative offset
reachable inside a window (``2k-1`` offsets in 1-D, ``(2k-1)^2`` in 2-D,
indexed by the dilation-normalised offset).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tensor as tz
from .errors import ConfigError
from .tensor import Tensor


@dataclass(frozen=True)
class AttentionConfig:
    """Window geometry and head layout for one attention module."""

    kernel_size: int = 5
    dilation: int = 1
    num_heads: int = 4

    def validate(self, embed_dim: int) -> None:
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ConfigError(f"kernel_size must be odd and positive, got {self.kernel_size}")
        if self.dilation < 1:
            raise ConfigError(f"dilation must be >= 1, got {self.dilation}")
        if self.num_heads < 1 or embed_dim % self.num_heads != 0:
            raise ConfigError(
                f"num_heads {self.num_heads} must divide embed_dim {embed_dim}")


@dataclass
class AttentionWeights:
    """Projections plus the per-head relative position bias table.

    ``rpb`` is ``[heads, 2k-1]`` for 1-D windows and ``[heads, (2k-1)^2]``
    for 2-D windows, indexed by dilation-normalised offsets.
    """

    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    rpb: Tensor

    def named(self, prefix: str):
        yield f"{prefix}.query.weight", self.wq
        yield f"{prefix}.query.bias", self.bq
        yield f"{prefix}.key.weight", self.wk
        yield f"{prefix}.key.bias", self.bk
        yield f"{prefix}.value.weight", self.wv
        yield f"{prefix}.value.bias", self.bv
        yield f"{prefix}.out.weight", self.wo
        yield f"{prefix}.out.bias", self.bo
        yield f"{prefix}.rpb", self.rpb


def init_attention_weights(embed_dim: int, cfg: AttentionConfig,
                           rng: np.random.Generator, two_d: bool = False,
                           dtype=np.float32) -> AttentionWeights:
    """Fan-in scaled uniform projections, zero biases, zero bias table."""
    bound = 1.0 / np.sqrt(embed_dim)

    def lin():
        return Tensor(rng.uniform(-bound, bound, (embed_dim, embed_dim)).astype(dtype))

    def zeros(shape):
        return Tensor(np.zeros(shape, dtype=dtype))

    span = 2 * cfg.kernel_size - 1
    table = span * span if two_d else span
    return AttentionWeights(
        wq=lin(), bq=zeros(embed_dim), wk=lin(), bk=zeros(embed_dim),
        wv=lin(), bv=zeros(embed_dim), wo=lin(), bo=zeros(embed_dim),
        rpb=zeros((cfg.num_heads, table)))


# ---------------------------------------------------------------------------
# window geometry
# ---------------------------------------------------------------------------

# The window caches hold about two track lengths of the default preset's
# 12 dilations (a training chunk and a validation track). One 10-minute
# length pins about 55 MB of 1-D tables and 64 MB of grid windows, and a
# 1-D table rebuilds in under 0.1 s even at that length.
@lru_cache(maxsize=32)
def _window_table(length: int, kernel_size: int, dilation: int) -> tz.WindowGroup:
    """Windows of every frame as one group ``min(k, largest coset)`` slots
    wide.

    Frame ``i`` attends to the run of ``k`` members of its coset ``{j : j
    == i (mod d)}`` centred on ``i`` where possible and shifted inward at
    the edges, or to the whole coset when it holds at most ``k`` frames.
    Rows of shorter cosets pad with the query index, masked.
    """
    i = np.arange(length)
    residue = i % dilation
    coset = (length - residue + dilation - 1) // dilation
    start = np.clip(i // dilation - (kernel_size - 1) // 2, 0,
                    np.maximum(coset - kernel_size, 0))
    slot = np.arange(min(kernel_size, -(-length // dilation)))
    valid = slot < np.minimum(coset, kernel_size)[:, None]
    idx = np.where(valid, residue[:, None] + (start[:, None] + slot) * dilation,
                   i[:, None])
    rel = (idx - i[:, None]) // dilation + kernel_size - 1
    return _frozen_group(slice(0, length), idx, rel, None if valid.all() else valid)


def _frozen_group(rows, idx, rel, valid) -> tz.WindowGroup:
    """A cached group whose arrays nobody may write."""
    for arr in (idx, rel, valid):
        if arr is not None:
            arr.flags.writeable = False
    return tz.WindowGroup(rows, idx, rel, valid)


# ---------------------------------------------------------------------------
# attention over time and over the (stem, time) grid
# ---------------------------------------------------------------------------

def _attend(x: Tensor, w: AttentionWeights, cfg: AttentionConfig, windows,
            attn_dropout: float, rng: np.random.Generator | None) -> Tensor:
    """Project ``[..., N, C]`` to queries, keys and values, attend over
    ``windows``, and project back."""
    if w.rpb.shape[0] != cfg.num_heads:
        raise ConfigError(f"bias table has {w.rpb.shape[0]} heads, "
                          f"config {cfg.num_heads}")
    q = tz.matmul(x, w.wq) + w.bq
    k = tz.matmul(x, w.wk) + w.bk
    v = tz.matmul(x, w.wv) + w.bv
    out = tz.neighborhood_attention(q, k, v, w.rpb, windows, attn_dropout, rng)
    return tz.matmul(out, w.wo) + w.bo


def na1d(x: Tensor, w: AttentionWeights, cfg: AttentionConfig, attn_dropout: float = 0.0,
         rng: np.random.Generator | None = None) -> Tensor:
    """Dilated neighborhood attention over the time axis of ``[..., T, C]``."""
    cfg.validate(x.shape[-1])
    table = _window_table(x.shape[-2], cfg.kernel_size, cfg.dilation)
    return _attend(x, w, cfg, (table,), attn_dropout, rng)


@lru_cache(maxsize=2)
def _grid_windows(num_stems: int, frames: int,
                  kernel_size: int) -> tuple[tz.WindowGroup, ...]:
    """Windows for the (stem, time) grid, flattened to ``N = S*T`` cells.

    Time uses nearest-neighbor windows. The stem axis is a centred window
    whose out-of-range stems are left out, so a stem's rows share one
    width: its in-range stems times the time window. Consecutive stems of
    equal width form one group. Slots keep the bias index of the full
    ``k*k`` kernel.
    """
    half = (kernel_size - 1) // 2
    span = 2 * kernel_size - 1
    t_idx = _window_table(frames, kernel_size, 1).idx           # all real
    dt = t_idx - np.arange(frames)[:, None] + kernel_size - 1
    groups = []
    for s in range(num_stems):
        offs = np.arange(max(-half, -s), min(half, num_stems - 1 - s) + 1)
        shape = (frames, offs.size * t_idx.shape[1])
        idx = ((s + offs)[None, :, None] * frames + t_idx[:, None, :]).reshape(shape)
        rel = ((offs + kernel_size - 1)[None, :, None] * span
               + dt[:, None, :]).reshape(shape)
        if groups and groups[-1][1].shape[1] == idx.shape[1]:
            first, idx0, rel0 = groups.pop()
            idx, rel = np.concatenate([idx0, idx]), np.concatenate([rel0, rel])
        else:
            first = s
        groups.append((first, idx, rel))
    return tuple(_frozen_group(slice(first * frames, first * frames + len(idx)),
                               idx, rel, None)
                 for first, idx, rel in groups)


def na2d(x: Tensor, w: AttentionWeights, cfg: AttentionConfig, attn_dropout: float = 0.0,
         rng: np.random.Generator | None = None) -> Tensor:
    """Square-kernel neighborhood attention over ``[S, T, C]``."""
    cfg.validate(x.shape[-1])
    if cfg.dilation != 1:
        raise ConfigError("grid attention runs undilated")
    s, t, c = x.shape
    windows = _grid_windows(s, t, cfg.kernel_size)
    out = _attend(x.reshape(s * t, c), w, cfg, windows, attn_dropout, rng)
    return out.reshape(s, t, c)
