"""Reference implementations the attention kernels are checked against.

* ``neighborhood_window_1d`` — the window of one frame, built per frame
  from its coset; the cached window tables must equal it row by row.
* ``full_attention_oracle`` — plain dense attention: softmax with
  ``-inf`` on masked logits plus the relative position bias.
* ``na1d_mask`` / ``na2d_mask`` — the dense attend-masks and bias-index
  matrices that make the oracle compute ``na1d`` / ``na2d``.
* ``composed_na1d`` / ``composed_na2d`` — the windowed attention as it
  was built before the fused op: a chain of gather, multiply, sum,
  softmax and multiply graph nodes over padded windows. Padded slots get
  a finite ``-1e30`` logit bias, so their probability underflows to
  exactly 0. Its gradients come from the generic primitives, so it
  checks the fused op's hand-written backward.
"""

from __future__ import annotations

import numpy as np

from aio1 import tensor as tz
from aio1.attention import AttentionConfig, AttentionWeights
from aio1.errors import Aio1Error, ParameterError
from aio1.tensor import Tensor

from graph_ops import matmul, softmax, take


class ContractViolation(Aio1Error, ValueError):
    """A structure handed to an oracle breaks its documented contract."""


# ---------------------------------------------------------------------------
# window of one frame
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
    idx, valid, rel = _padded_grid_windows(s, t, cfg.kernel_size)
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


# ---------------------------------------------------------------------------
# composed windowed attention over padded windows
# ---------------------------------------------------------------------------

def _padded_window_table(length: int, kernel_size: int, dilation: int):
    """``(idx [L,k], valid [L,k])``; short cosets are padded with the query
    index and flagged invalid."""
    idx = np.empty((length, kernel_size), dtype=np.int64)
    valid = np.zeros((length, kernel_size), dtype=bool)
    for i in range(length):
        w = neighborhood_window_1d(i, length, kernel_size, dilation)
        idx[i, :len(w)] = w
        idx[i, len(w):] = i
        valid[i, :len(w)] = True
    return idx, valid


def _padded_grid_windows(num_stems: int, frames: int, kernel_size: int):
    """``k*k`` candidate cells per (stem, time) cell; stems outside the
    grid stay in the kernel but are masked."""
    half = (kernel_size - 1) // 2
    t_idx, t_valid = _padded_window_table(frames, kernel_size, 1)
    s_off = np.arange(-half, half + 1)
    s_idx = np.arange(num_stems)[:, None] + s_off[None, :]          # [S, k]
    s_valid = (s_idx >= 0) & (s_idx < num_stems)
    s_safe = np.clip(s_idx, 0, num_stems - 1)

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


def _windowed_attention(x: Tensor, w: AttentionWeights, heads: int,
                        idx: np.ndarray, valid: np.ndarray, rel: np.ndarray
                        ) -> Tensor:
    c = x.shape[-1]
    dh = c // heads
    n, width = idx.shape
    lead = x.shape[:-2]
    nl = len(lead)

    q = matmul(x, w.wq) + w.bq
    k = matmul(x, w.wk) + w.bk
    v = matmul(x, w.wv) + w.bv

    kg = take(k, idx, axis=nl).reshape(*lead, n, width, heads, dh)
    vg = take(v, idx, axis=nl).reshape(*lead, n, width, heads, dh)
    qh = q.reshape(*lead, n, 1, heads, dh)

    logits = (qh * kg).sum(axis=-1) * (1.0 / np.sqrt(dh))   # [..., N, W, H]
    bias = take(w.rpb, rel, axis=1)                      # [H, N, W]
    logits = logits + bias.transpose(1, 2, 0)
    pad = np.where(valid[..., None], 0.0, -1e30).astype(x.dtype)
    probs = softmax(logits + Tensor(pad), axis=-2)

    out = (probs.reshape(*lead, n, width, heads, 1) * vg).sum(axis=nl + 1)
    out = out.reshape(*lead, n, c)
    return matmul(out, w.wo) + w.bo


def composed_na1d(x: Tensor, w: AttentionWeights, cfg: AttentionConfig) -> Tensor:
    t = x.shape[-2]
    idx, valid = _padded_window_table(t, cfg.kernel_size, cfg.dilation)
    rel = (idx - np.arange(t)[:, None]) // cfg.dilation + cfg.kernel_size - 1
    return _windowed_attention(x, w, cfg.num_heads, idx, valid, rel)


def composed_na2d(x: Tensor, w: AttentionWeights, cfg: AttentionConfig) -> Tensor:
    s, t, c = x.shape
    idx, valid, rel = _padded_grid_windows(s, t, cfg.kernel_size)
    out = _windowed_attention(x.reshape(s * t, c), w, cfg.num_heads, idx, valid, rel)
    return out.reshape(s, t, c)
