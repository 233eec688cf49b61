"""Neighborhood attention kernels.

Three flavours share one windowed-softmax core:

* ``na1d`` — attention over time, restricted to the ``k`` nearest frames
  of the query's dilation coset. Windows near the sequence edges shift
  inward instead of padding with zeros, so every query attends to exactly
  ``min(k, coset size)`` real frames.
* ``na2d`` — attention over the (stem, time) grid with a square kernel.
  The time axis keeps the inward-shift rule; the stem axis is conceptually
  zero-padded so the kernel stays square, and those padded cells are
  masked out of the softmax rather than attended to.
* ``full_attention_oracle`` — a plain dense implementation used to verify
  the windowed kernels: softmax attention with ``-inf`` on masked logits
  plus the same relative position bias.

Each attention head owns one learned scalar bias per relative offset
reachable inside a window (``2k-1`` offsets in 1-D, ``(2k-1)^2`` in 2-D,
indexed by the dilation-normalised offset).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tensor as tz
from .errors import ConfigError, ContractViolation, ParameterError
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

def neighborhood_window_1d(i: int, length: int, kernel_size: int,
                           dilation: int) -> list[int]:
    """Indices attended to by frame ``i`` in a sequence of ``length``.

    The window is the run of ``kernel_size`` positions from the coset
    ``{j : j == i (mod dilation)}`` centred on ``i`` where possible and
    shifted inward at the edges; if the whole coset is smaller than the
    kernel, the whole coset is returned.
    """
    if not 0 <= i < length:
        raise IndexError(f"frame {i} outside [0, {length})")
    if kernel_size < 1 or kernel_size % 2 == 0:
        raise ParameterError("kernel_size must be odd and positive")
    if dilation < 1:
        raise ParameterError("dilation must be >= 1")
    residue = i % dilation
    coset = (length - residue + dilation - 1) // dilation
    pos = i // dilation
    if coset <= kernel_size:
        start = 0
        count = coset
    else:
        start = min(max(pos - (kernel_size - 1) // 2, 0), coset - kernel_size)
        count = kernel_size
    return [residue + (start + j) * dilation for j in range(count)]


@lru_cache(maxsize=256)
def _window_table(length: int, kernel_size: int, dilation: int):
    """Padded window matrix for vectorised attention.

    Returns ``(idx [L,k], valid [L,k])``; rows with short cosets are
    padded with the query index and flagged invalid.
    """
    idx = np.empty((length, kernel_size), dtype=np.int64)
    valid = np.zeros((length, kernel_size), dtype=bool)
    for i in range(length):
        w = neighborhood_window_1d(i, length, kernel_size, dilation)
        idx[i, :len(w)] = w
        idx[i, len(w):] = i
        valid[i, :len(w)] = True
    return idx, valid


def receptive_field(kernel_size: int, dilation: int, fps: float) -> tuple[int, float]:
    """Span in frames and seconds covered by one window."""
    if kernel_size < 1 or dilation < 1 or fps <= 0:
        raise ParameterError("kernel_size, dilation >= 1 and fps > 0 required")
    frames = (kernel_size - 1) * dilation + 1
    return frames, frames / fps


# ---------------------------------------------------------------------------
# shared windowed-attention core
# ---------------------------------------------------------------------------

def _windowed_attention(x: Tensor, w: AttentionWeights, heads: int,
                        idx: np.ndarray, valid: np.ndarray, rel: np.ndarray,
                        attn_dropout: float = 0.0, training: bool = False,
                        rng: np.random.Generator | None = None) -> Tensor:
    """Attention over precomputed windows.

    ``x`` is ``[..., N, C]``; ``idx``/``valid``/``rel`` are ``[N, W]``
    window index, validity, and bias-table index matrices shared across
    any leading batch axes.
    """
    c = x.shape[-1]
    dh = c // heads
    n, width = idx.shape
    lead = x.shape[:-2]
    nl = len(lead)

    q = tz.matmul(x, w.wq) + w.bq
    k = tz.matmul(x, w.wk) + w.bk
    v = tz.matmul(x, w.wv) + w.bv

    kg = tz.take(k, idx, axis=nl).reshape(*lead, n, width, heads, dh)
    vg = tz.take(v, idx, axis=nl).reshape(*lead, n, width, heads, dh)
    qh = q.reshape(*lead, n, 1, heads, dh)

    # broadcast-and-reduce beats batched matmul at these tiny head dims
    logits = (qh * kg).sum(axis=-1) * (1.0 / np.sqrt(dh))   # [..., N, W, H]
    bias = tz.take(w.rpb, rel, axis=1)                      # [H, N, W]
    logits = logits + bias.transpose(1, 2, 0)

    probs = tz.masked_softmax(logits, valid[..., None], axis=-2)
    probs = tz.dropout(probs, attn_dropout, training, rng)

    out = (probs.reshape(*lead, n, width, heads, 1) * vg).sum(axis=nl + 1)
    out = out.reshape(*lead, n, c)
    return tz.matmul(out, w.wo) + w.bo


def na1d(x: Tensor, w: AttentionWeights, cfg: AttentionConfig,
         attn_dropout: float = 0.0, training: bool = False,
         rng: np.random.Generator | None = None) -> Tensor:
    """Dilated neighborhood attention over the time axis of ``[..., T, C]``."""
    cfg.validate(x.shape[-1])
    t = x.shape[-2]
    idx, valid = _window_table(t, cfg.kernel_size, cfg.dilation)
    rel = (idx - np.arange(t)[:, None]) // cfg.dilation + cfg.kernel_size - 1
    return _windowed_attention(x, w, cfg.num_heads, idx, valid, rel,
                               attn_dropout, training, rng)


def _grid_windows(num_stems: int, frames: int, kernel_size: int):
    """Windows for the (stem, time) grid, flattened to ``N = S*T`` cells.

    Time uses nearest-neighbor windows; the stem axis is a centred window
    whose out-of-range cells stay in the kernel but are masked.
    """
    half = (kernel_size - 1) // 2
    t_idx, t_valid = _window_table(frames, kernel_size, 1)
    s_off = np.arange(-half, half + 1)
    s_idx = np.arange(num_stems)[:, None] + s_off[None, :]          # [S, k]
    s_valid = (s_idx >= 0) & (s_idx < num_stems)
    s_safe = np.clip(s_idx, 0, num_stems - 1)

    # combine: cell (s,t) -> flat window of k*k candidate cells
    flat = (s_safe[:, None, :, None] * frames + t_idx[None, :, None, :])
    valid = (s_valid[:, None, :, None] & t_valid[None, :, None, :])
    span = 2 * kernel_size - 1
    ds = np.broadcast_to(s_off[None, None, :, None] + kernel_size - 1, flat.shape)
    dt = (t_idx[None, :, None, :] - np.arange(frames)[None, :, None, None]
          + kernel_size - 1)
    rel = ds * span + np.broadcast_to(dt, flat.shape)
    n = num_stems * frames
    k2 = kernel_size * kernel_size
    return (flat.reshape(n, k2), valid.reshape(n, k2),
            np.ascontiguousarray(rel.reshape(n, k2)))


def na2d(x: Tensor, w: AttentionWeights, cfg: AttentionConfig,
         attn_dropout: float = 0.0, training: bool = False,
         rng: np.random.Generator | None = None) -> Tensor:
    """Square-kernel neighborhood attention over ``[S, T, C]``."""
    cfg.validate(x.shape[-1])
    if cfg.dilation != 1:
        raise ConfigError("grid attention runs undilated")
    s, t, c = x.shape
    idx, valid, rel = _grid_windows(s, t, cfg.kernel_size)
    flat = x.reshape(s * t, c)
    out = _windowed_attention(flat, w, cfg.num_heads, idx, valid, rel,
                              attn_dropout, training, rng)
    return out.reshape(s, t, c)


# ---------------------------------------------------------------------------
# dense oracle
# ---------------------------------------------------------------------------

def na1d_mask(t: int, cfg: AttentionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Dense ``[T, T]`` attend-mask and bias-index matrix matching na1d."""
    mask = np.zeros((t, t), dtype=bool)
    rel = np.zeros((t, t), dtype=np.int64)
    for i in range(t):
        for j in neighborhood_window_1d(i, t, cfg.kernel_size, cfg.dilation):
            mask[i, j] = True
            rel[i, j] = (j - i) // cfg.dilation + cfg.kernel_size - 1
    return mask, rel


def na2d_mask(s: int, t: int, cfg: AttentionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Dense ``[S*T, S*T]`` mask and bias indices matching na2d."""
    idx, valid, rel = _grid_windows(s, t, cfg.kernel_size)
    n = s * t
    mask = np.zeros((n, n), dtype=bool)
    relmat = np.zeros((n, n), dtype=np.int64)
    for cell in range(n):
        ok = valid[cell]
        mask[cell, idx[cell][ok]] = True
        relmat[cell, idx[cell][ok]] = rel[cell][ok]
    return mask, relmat


def full_attention_oracle(x: np.ndarray, w: AttentionWeights, mask: np.ndarray,
                          rel: np.ndarray | None = None,
                          num_heads: int = 4) -> np.ndarray:
    """Dense reference attention: ``-inf`` on masked logits plus bias.

    Straight-line numpy with no shared code paths beyond the weights, so
    windowed kernels can be checked against it.
    """
    x = np.asarray(x)
    n, c = x.shape
    if mask.shape != (n, n):
        raise ParameterError(f"mask must be [{n},{n}]")
    if not mask.any(axis=1).all():
        raise ContractViolation("oracle mask has an all-false row")
    dh = c // num_heads
    q = x @ w.wq.data + w.bq.data
    k = x @ w.wk.data + w.bk.data
    v = x @ w.wv.data + w.bv.data
    out = np.empty_like(x)
    for h in range(num_heads):
        sl = slice(h * dh, (h + 1) * dh)
        logits = (q[:, sl] @ k[:, sl].T) / np.sqrt(dh).astype(x.dtype)
        if rel is not None:
            table = w.rpb.data[h]
            logits = logits + table[np.clip(rel, 0, table.shape[0] - 1)]
        logits = np.where(mask, logits, -np.inf)
        logits = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        probs = e / e.sum(axis=1, keepdims=True)
        out[:, sl] = probs @ v[:, sl]
    return out @ w.wo.data + w.bo.data
