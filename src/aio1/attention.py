"""Neighborhood attention over time and over the (stem, time) grid.

Both kernels project their input to queries, keys and values and hand
them to the fused :func:`aio1.tensor.neighborhood_attention` op with a
short list of window slots (:class:`aio1.tensor.Slot`), built on every call
(about 2 ms at 2,000 frames for the 12 default dilations), each giving
every frame one key frame and bias column:

* ``na1d`` — attention over time, restricted to the ``k`` nearest frames
  of the query's dilation coset. Windows near the sequence edges shift
  inward instead of padding with zeros, so every query attends to exactly
  ``min(k, coset size)`` real frames. Slots no frame can fill (cosets
  shorter than the kernel) are not computed.
* ``na2d`` — attention over the (stem, time) grid with a square kernel.
  Its slots are the undilated time slots crossed with the stem shifts
  of a window centred on the query's stem. A query whose stem plus the
  shift falls beyond the grid leaves that slot out, so edge stems attend
  over narrower windows. Keys and values are gathered once per time slot
  and shifted along stems by slicing; no grid-sized table is built.

Each attention head owns one learned scalar bias per relative offset
reachable inside a window (``2k-1`` offsets in 1-D, ``(2k-1)^2`` in 2-D,
indexed by the dilation-normalised offset).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .errors import ConfigError, DimensionError
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

    wq: Tensor = tz.param("query.weight")
    bq: Tensor = tz.param("query.bias")
    wk: Tensor = tz.param("key.weight")
    bk: Tensor = tz.param("key.bias")
    wv: Tensor = tz.param("value.weight")
    bv: Tensor = tz.param("value.bias")
    wo: Tensor = tz.param("out.weight")
    bo: Tensor = tz.param("out.bias")
    rpb: Tensor = tz.param("rpb")


def init_attention_weights(embed_dim: int, cfg: AttentionConfig,
                           rng: np.random.Generator, two_d: bool = False,
                           dtype=np.float32) -> AttentionWeights:
    """Fan-in scaled uniform projections, zero biases, zero bias table."""
    def lin():
        return tz.fan_in_uniform(rng, (embed_dim, embed_dim), embed_dim, dtype)

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

def _window_table(length: int, kernel_size: int, dilation: int) -> tuple[tz.Slot, ...]:
    """Window slots of every frame, ``min(k, largest coset)`` of them.

    Frame ``i`` attends to the run of ``k`` members of its coset ``{j : j
    == i (mod d)}`` centred on ``i`` where possible and shifted inward at
    the edges, or to the whole coset when it holds at most ``k`` frames.
    Slot ``j`` holds every frame's ``j``-th key; frames of shorter cosets
    point the slots they lack at themselves, masked.
    """
    i = np.arange(length)
    residue = i % dilation
    coset = (length - residue + dilation - 1) // dilation
    start = np.clip(i // dilation - (kernel_size - 1) // 2, 0,
                    np.maximum(coset - kernel_size, 0))
    slot = np.arange(min(kernel_size, -(-length // dilation)))[:, None]
    valid = slot < np.minimum(coset, kernel_size)
    idx = np.where(valid, residue + (start + slot) * dilation, i)       # [W, T]
    rel = (idx - i) // dilation + kernel_size - 1
    return tuple(tz.Slot(0, idx[j], rel[j], None if valid[j].all() else valid[j])
                 for j in range(len(slot)))


def _grid_slots(num_stems: int, frames: int, kernel_size: int) -> list[tz.Slot]:
    """The undilated time slots crossed with the stem shifts of a centred
    ``k``-stem window that fit in the grid, each with its bias column in
    the ``k*k`` kernel. The slots of one time column share its keys."""
    span = 2 * kernel_size - 1
    reach = min((kernel_size - 1) // 2, num_stems - 1)
    return [tz.Slot(shift, t.idx, t.rel + (shift + kernel_size - 1) * span, t.valid)
            for t in _window_table(frames, kernel_size, 1)
            for shift in range(-reach, reach + 1)]


# ---------------------------------------------------------------------------
# attention over time and over the (stem, time) grid
# ---------------------------------------------------------------------------

def _attend(x: Tensor, w: AttentionWeights, cfg: AttentionConfig, slots,
            attn_dropout: float, rng: np.random.Generator | None) -> Tensor:
    """Project to queries, keys and values, attend over ``slots``, project back."""
    if w.rpb.shape[0] != cfg.num_heads:
        raise ConfigError(f"bias table has {w.rpb.shape[0]} heads, "
                          f"config {cfg.num_heads}")
    q, k, v = tz.rowwise(lambda x: (tz.linear(x, w.wq, w.bq), tz.linear(x, w.wk, w.bk),
                                    tz.linear(x, w.wv, w.bv)), x)
    out = tz.neighborhood_attention(q, k, v, w.rpb, slots, attn_dropout, rng)
    return tz.rowwise(lambda out: tz.linear(out, w.wo, w.bo), out)


def na1d(x: Tensor, w: AttentionWeights, cfg: AttentionConfig, attn_dropout: float = 0.0,
         rng: np.random.Generator | None = None) -> Tensor:
    """Dilated neighborhood attention over the time axis of ``[..., T, C]``."""
    if x.ndim < 2 or x.shape[-2] < 1:
        raise DimensionError(f"na1d expects [..., T, C] with T >= 1, got {x.shape}")
    cfg.validate(x.shape[-1])
    slots = _window_table(x.shape[-2], cfg.kernel_size, cfg.dilation)
    return _attend(x, w, cfg, slots, attn_dropout, rng)


def na2d(x: Tensor, w: AttentionWeights, cfg: AttentionConfig, attn_dropout: float = 0.0,
         rng: np.random.Generator | None = None) -> Tensor:
    """Square-kernel neighborhood attention over ``[S, T, C]``."""
    if x.ndim != 3 or 0 in x.shape[:2]:
        raise DimensionError(f"na2d expects [S, T, C] with S, T >= 1, got {x.shape}")
    cfg.validate(x.shape[-1])
    if cfg.dilation != 1:
        raise ConfigError("grid attention runs undilated")
    slots = _grid_slots(x.shape[0], x.shape[1], cfg.kernel_size)
    return _attend(x, w, cfg, slots, attn_dropout, rng)
