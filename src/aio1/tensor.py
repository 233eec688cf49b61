"""Dense tensors with reverse-mode automatic differentiation.

A tensor wraps one numpy array (float32 by default, float64 for
verification paths) plus the bookkeeping needed for backpropagation. A
trainable weight is a leaf tensor with ``requires_grad`` set; its
``grad`` stays None until a backward reaches it. Every operation is a
pure function: inputs are never mutated and identical inputs produce
bit-identical outputs. Operations raise :class:`NumericError` as soon as
they produce a NaN or Inf, so a diverging computation fails at the op
that broke, not three modules later.

The primitives are the ones the model runs: matrix multiply, 2-D
cross-correlation, max pooling, layer normalisation, the ELU, GELU,
sigmoid and softmax activations, gather/reshape plumbing, windowed
multi-head attention (:func:`neighborhood_attention`), dropout and the
losses. Gradients of every primitive are validated against central
finite differences by :func:`grad_check`, which doubles as the
verification oracle for the model built on top.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf as _erf

from .errors import DimensionError, NumericError, ParameterError

FLOAT_DTYPES = (np.float32, np.float64)

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph construction inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    """Whether operations record a graph (False inside :func:`no_grad`)."""
    return _grad_enabled


def _as_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype not in FLOAT_DTYPES:
        arr = arr.astype(np.float32)
    return arr


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"{op} produced non-finite values")


class Tensor:
    """A numpy-backed array node in a reverse-mode autodiff graph.

    ``data`` is held by reference; callers must not mutate arrays they
    hand in (the one sanctioned exception is the in-place perturbation
    done by :func:`grad_check`).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: Sequence["Tensor"],
                 backward: Callable[[np.ndarray], None], op: str) -> "Tensor":
        _check_finite(data, op)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    # -- basic protocol --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, grad={self.requires_grad})"

    # -- backprop ---------------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def _accumulate_owned(self, g: np.ndarray) -> None:
        """Accumulate a gradient buffer the calling backward closure created
        (or received as the finished gradient of its output node) exclusively
        for this tensor; adopted without a defensive copy when possible.
        Callers must never hand the same buffer to two parents this way."""
        if (self.grad is None and g.dtype == self.data.dtype
                and g.flags.c_contiguous):
            self.grad = g
        else:
            self._accumulate(g)

    def backward(self, gradient: np.ndarray | None = None) -> None:
        """Backpropagate from this node through the recorded graph."""
        if not self.requires_grad:
            raise ParameterError("backward() on a tensor that requires no grad")
        if gradient is None:
            if self.size != 1:
                raise ParameterError("backward() without gradient needs a scalar")
            gradient = np.ones_like(self.data)
        # Iterative topological order; graphs are shallow but wide.
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.asarray(gradient, dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return mul(self, 1.0 / float(other))

    def reshape(self, *shape):
        return reshape(self, *shape)

    def transpose(self, *axes):
        return transpose(self, axes if axes else None)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)


def check_unique_names(names: Iterable[str]) -> None:
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ParameterError(f"duplicate parameter name {name!r}")
        seen.add(name)


def _coerce(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _require_same_dtype(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.dtype != b.data.dtype:
        raise DimensionError(
            f"{op}: mixed dtypes {a.data.dtype.name} vs {b.data.dtype.name}")


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    _require_same_dtype(a, b, "add")
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor._from_op(out_data, (a, b), backward, "add")


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    _require_same_dtype(a, b, "mul")
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate_owned(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate_owned(_unbroadcast(g * a.data, b.data.shape))

    return Tensor._from_op(out_data, (a, b), backward, "mul")


# ---------------------------------------------------------------------------
# shape plumbing
# ---------------------------------------------------------------------------

def reshape(a: Tensor, *shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    out_data = a.data.reshape(shape)

    def backward(g):
        a._accumulate_owned(np.ascontiguousarray(g).reshape(a.data.shape))

    return Tensor._from_op(out_data, (a,), backward, "reshape")


def transpose(a: Tensor, axes=None) -> Tensor:
    out_data = np.transpose(a.data, axes)
    if axes is None:
        inv = None
    else:
        inv = np.argsort(axes)

    def backward(g):
        a._accumulate_owned(np.ascontiguousarray(np.transpose(g, inv)))

    return Tensor._from_op(out_data, (a,), backward, "transpose")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ParameterError("concat of zero tensors")
    for t in tensors[1:]:
        _require_same_dtype(tensors[0], t, "concat")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        pieces = np.split(g, splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(piece)

    return Tensor._from_op(out_data, tuple(tensors), backward, "concat")


def _scatter_rows(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """``out[index[j]] += rows[j]`` into ``n`` zero rows, duplicates summed.

    One sparse product with a column per row of ``rows`` beats both
    ``np.add.at`` and a per-column ``bincount``. ``scipy.sparse`` is
    imported here: it adds about 50 ms to start-up, and inference never
    runs a backward.
    """
    from scipy.sparse import csc_matrix
    scatter = csc_matrix((np.ones(index.size, dtype=rows.dtype), index,
                          np.arange(index.size + 1)), shape=(n, index.size))
    return scatter @ rows


def take(a: Tensor, indices, axis: int = 0) -> Tensor:
    """Gather slices of ``a`` along ``axis``; duplicates allowed.

    The backward pass scatter-adds into the source, so the same row may
    be gathered many times.
    """
    idx = np.asarray(indices)
    out_data = np.take(a.data, idx, axis=axis)

    def backward(g):
        # bring the gathered axes to the front, flatten everything else
        gm = np.ascontiguousarray(np.moveaxis(
            g, tuple(range(axis, axis + idx.ndim)), tuple(range(idx.ndim))))
        n = a.data.shape[axis]
        acc = _scatter_rows(idx.reshape(-1), gm.reshape(idx.size, -1), n)
        dx = acc.reshape((n,) + a.data.shape[:axis] + a.data.shape[axis + 1:])
        if axis:
            dx = np.ascontiguousarray(np.moveaxis(dx, 0, axis))
        a._accumulate_owned(dx)

    return Tensor._from_op(out_data, (a,), backward, "take")


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            a._accumulate_owned(np.broadcast_to(g, a.data.shape).copy())
            return
        axes = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, axes)
        a._accumulate_owned(np.broadcast_to(g, a.data.shape).copy())

    return Tensor._from_op(np.asarray(out_data), (a,), backward, "sum")


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.data.shape[ax] for ax in axes]))
    return mul(tsum(a, axis, keepdims), 1.0 / count)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy broadcasting over leading (batch) axes."""
    _require_same_dtype(a, b, "matmul")
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul operands need at least 2 axes")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions differ: {a.data.shape} x {b.data.shape}")
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate_owned(np.ascontiguousarray(_unbroadcast(ga, a.data.shape)))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate_owned(np.ascontiguousarray(_unbroadcast(gb, b.data.shape)))

    return Tensor._from_op(out_data, (a, b), backward, "matmul")


def conv2d(x: Tensor, kernels: Tensor, padding: tuple[int, int] = (0, 0)) -> Tensor:
    """2-D cross-correlation (no kernel flip).

    ``x`` is ``[n, cin, h, w]`` and ``kernels`` is ``[cout, cin, kh, kw]``.
    Output height is ``h + 2*pad_h - kh + 1`` and similarly for width.
    """
    _require_same_dtype(x, kernels, "conv2d")
    if x.ndim != 4 or kernels.ndim != 4:
        raise DimensionError("conv2d expects [n,cin,h,w] input and [cout,cin,kh,kw] kernels")
    n, cin, h, w = x.data.shape
    cout, kcin, kh, kw = kernels.data.shape
    if kcin != cin:
        raise DimensionError(f"conv2d channel mismatch: input {cin}, kernels {kcin}")
    ph, pw = padding
    if ph < 0 or pw < 0:
        raise ParameterError("conv2d padding must be non-negative")
    if h + 2 * ph < kh or w + 2 * pw < kw:
        raise DimensionError("conv2d kernel larger than padded input")

    oh = h + 2 * ph - kh + 1
    ow = w + 2 * pw - kw + 1
    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    # im2col + GEMM: the copy costs less than a strided contraction
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
    cols = cols.reshape(n * oh * ow, cin * kh * kw)
    kmat = kernels.data.reshape(cout, cin * kh * kw)
    out_data = (cols @ kmat.T).reshape(n, oh, ow, cout).transpose(0, 3, 1, 2)
    out_data = np.ascontiguousarray(out_data)

    def backward(g):
        gcols = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, cout)
        if kernels.requires_grad:
            dk = (gcols.T @ cols).reshape(cout, cin, kh, kw)
            kernels._accumulate_owned(dk)
        if x.requires_grad:
            # the adjoint of im2col: each window column adds back into the
            # input pixel it was copied from (channels last, so every
            # shifted add moves runs of cin values)
            kt = kernels.data.transpose(0, 2, 3, 1).reshape(cout, kh * kw * cin)
            dcols = (gcols @ kt).reshape(n, oh, ow, kh, kw, cin)
            dxp = np.zeros((n, h + 2 * ph, w + 2 * pw, cin), dtype=g.dtype)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, i:i + oh, j:j + ow] += dcols[:, :, :, i, j]
            dx = dxp[:, ph:ph + h, pw:pw + w].transpose(0, 3, 1, 2)
            x._accumulate_owned(np.ascontiguousarray(dx))

    return Tensor._from_op(out_data, (x, kernels), backward, "conv2d")


def maxpool(x: Tensor, axis: int, width: int) -> Tensor:
    """Non-overlapping max over ``width`` along ``axis``.

    A trailing remainder is padded by repeating the last element, so no
    frames are dropped. Gradient routes to the first maximal index of
    each window; that index is found only when the gradient arrives.
    """
    if width < 1:
        raise ParameterError("maxpool width must be >= 1")
    xd = np.moveaxis(x.data, axis, -1)
    length = xd.shape[-1]
    pad = (-length) % width
    if pad:
        xd = np.concatenate([xd, np.repeat(xd[..., -1:], pad, axis=-1)], axis=-1)
    windows = xd.reshape(xd.shape[:-1] + (-1, width))
    out_m = windows[..., 0].copy()
    for j in range(1, width):
        np.maximum(out_m, windows[..., j], out=out_m)
    out_data = np.moveaxis(out_m, -1, axis)

    def backward(g):
        arg = windows.argmax(axis=-1)  # first max on ties
        gm = np.moveaxis(g, axis, -1)
        buf = np.zeros(windows.shape, dtype=g.dtype)
        np.put_along_axis(buf, arg[..., None], gm[..., None], axis=-1)
        # pad copies sit after the original in its window, so the first
        # maximum is never one of them
        main = buf.reshape(xd.shape)[..., :length]
        x._accumulate_owned(np.ascontiguousarray(np.moveaxis(main, -1, axis)))

    return Tensor._from_op(out_data, (x,), backward, "maxpool")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalise the last axis to zero mean / unit variance, then affine."""
    c = x.data.shape[-1]
    if c < 1:
        raise DimensionError("layer_norm needs at least one feature")
    if eps <= 0:
        raise ParameterError("layer_norm eps must be positive")
    if gain.data.shape != (c,) or bias.data.shape != (c,):
        raise DimensionError("layer_norm gain/bias must match the last axis")
    _require_same_dtype(x, gain, "layer_norm")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.data.dtype))
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data

    def backward(g):
        if bias.requires_grad:
            bias._accumulate_owned(np.ascontiguousarray(g).reshape(-1, c).sum(axis=0))
        if gain.requires_grad:
            gain._accumulate_owned((g * xhat).reshape(-1, c).sum(axis=0))
        if x.requires_grad:
            gy = g * gain.data
            m1 = gy.mean(axis=-1, keepdims=True)
            m2 = (gy * xhat).mean(axis=-1, keepdims=True)
            x._accumulate_owned((gy - m1 - xhat * m2) * inv)

    return Tensor._from_op(out_data, (x, gain, bias), backward, "layer_norm")


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def elu(x: Tensor) -> Tensor:
    pos = x.data > 0
    out_data = np.where(pos, x.data, np.expm1(np.minimum(x.data, 0.0)))

    def backward(g):
        # elu'(x) = 1 for x > 0, elu(x) + 1 otherwise
        x._accumulate_owned(g * np.where(pos, x.data.dtype.type(1.0),
                                         out_data + x.data.dtype.type(1.0)))

    return Tensor._from_op(out_data, (x,), backward, "elu")


def gelu(x: Tensor) -> Tensor:
    # exact erf form; the tanh approximation is too loose for grad checks
    inv_sqrt2 = np.asarray(1.0 / math.sqrt(2.0), dtype=x.data.dtype)
    phi = 0.5 * (1.0 + _erf(x.data * inv_sqrt2))
    out_data = x.data * phi

    def backward(g):
        dens = np.exp(-0.5 * x.data * x.data) / np.asarray(
            math.sqrt(2.0 * math.pi), dtype=x.data.dtype)
        x._accumulate_owned(g * (phi + x.data * dens))

    return Tensor._from_op(out_data, (x,), backward, "gelu")


def sigmoid(x: Tensor) -> Tensor:
    out_data = _sigmoid_np(x.data)

    def backward(g):
        x._accumulate_owned(g * out_data * (1.0 - out_data))

    return Tensor._from_op(out_data, (x,), backward, "sigmoid")


def _sigmoid_np(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    zmax = np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(x.data - zmax)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        x._accumulate_owned(out_data * (g - dot))

    return Tensor._from_op(out_data, (x,), backward, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    zmax = np.max(x.data, axis=axis, keepdims=True)
    shifted = x.data - zmax
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    sm = np.exp(out_data)

    def backward(g):
        x._accumulate_owned(g - sm * g.sum(axis=axis, keepdims=True))

    return Tensor._from_op(out_data, (x,), backward, "log_softmax")


# ---------------------------------------------------------------------------
# neighborhood attention
# ---------------------------------------------------------------------------

class WindowGroup(NamedTuple):
    """Query rows ``rows`` that share one window width ``W``.

    ``idx [n, W]`` holds the key row of every window slot and ``rel
    [n, W]`` its column in the bias table; ``valid [n, W]`` flags the
    real slots, or is None when every slot is real. Every row keeps at
    least one real slot.
    """

    rows: slice
    idx: np.ndarray
    rel: np.ndarray
    valid: np.ndarray | None


def neighborhood_attention(q: Tensor, k: Tensor, v: Tensor, rpb: Tensor,
                           windows: Sequence[WindowGroup], attn_dropout: float = 0.0,
                           rng: np.random.Generator | None = None) -> Tensor:
    """Multi-head softmax attention of each query row over its window.

    ``q``, ``k`` and ``v`` are ``[..., N, C]`` with shared leading axes;
    ``rpb`` is ``[H, table]``, one learned bias per head and relative
    offset, and fixes the head count ``H``. ``windows`` covers the ``N``
    query rows. Each head's logits are its ``C/H`` channels of query and
    key dotted, scaled by ``1/sqrt(C/H)``, plus the slot's bias; padded
    slots get probability 0. Inverted dropout at ``attn_dropout``, drawn
    from ``rng``, applies to the probabilities; ``rng=None`` is inference.
    The graph keeps only the probabilities and the dropout mask: the
    backward gathers the window keys and values again and scatter-adds
    their gradients by row.
    """
    for t in (k, v, rpb):
        _require_same_dtype(q, t, "neighborhood_attention")
    if not q.data.shape == k.data.shape == v.data.shape:
        raise DimensionError("neighborhood_attention: q, k and v shapes differ")
    heads, table = rpb.data.shape
    n_all, c = q.data.shape[-2:]
    if c % heads:
        raise DimensionError(f"{heads} heads do not divide {c} channels")
    dh = c // heads
    dtype = q.data.dtype
    drop = rng is not None and attn_dropout > 0.0
    inv_keep = dtype.type(1.0 / (1.0 - attn_dropout)) if drop else None

    # leading axes fold into one batch axis B
    scale = dtype.type(1.0 / math.sqrt(dh))
    batch = math.prod(q.data.shape[:-2])
    qs = q.data.reshape(batch, n_all, c) * scale
    kd = k.data.reshape(qs.shape)
    vd = v.data.reshape(qs.shape)

    def gather(arr, grp):
        # [B, n, W, C] -> [B, n, H, W, dh]
        n, width = grp.idx.shape
        g = np.take(arr, grp.idx, axis=1).reshape(batch, n, width, heads, dh)
        return g.transpose(0, 1, 3, 2, 4)

    def head_rows(arr, grp):
        # rows of [B, N, C] -> [B, n, H, 1, dh]
        return arr[:, grp.rows].reshape(batch, -1, heads, 1, dh)

    out = np.zeros_like(qs)
    kept = []
    for grp in windows:
        bias = np.take(rpb.data, grp.rel, axis=1).transpose(1, 0, 2)  # [n, H, W]
        if grp.valid is not None:
            bias = np.where(grp.valid[:, None, :], bias, -np.inf)
        logits = (head_rows(qs, grp) @ gather(kd, grp).swapaxes(-1, -2))[..., 0, :]
        logits += bias
        # a running max and a matrix-vector sum beat numpy's reductions
        # over a last axis this short
        top = logits[..., 0].copy()
        for j in range(1, logits.shape[-1]):
            np.maximum(top, logits[..., j], out=top)
        logits -= top[..., None]
        probs = np.exp(logits, out=logits)                          # [B, n, H, W]
        probs /= (probs @ np.ones(probs.shape[-1], dtype=dtype))[..., None]
        keep = None
        if drop:
            keep = rng.random(probs.shape, dtype=np.float32) >= attn_dropout
            used = probs * keep * inv_keep
        else:
            used = probs
        out[:, grp.rows] = (used[..., None, :] @ gather(vd, grp)).reshape(batch, -1, c)
        kept.append((probs, keep))

    def backward(g):
        g3 = g.reshape(qs.shape)
        dq = np.zeros_like(qs)
        dk = np.zeros((batch * n_all, c), dtype=dtype)
        dv = np.zeros_like(dk)
        drpb = np.zeros(heads * table)
        for grp, (probs, keep) in zip(windows, kept):
            n = grp.idx.shape[0]
            kg, vg = gather(kd, grp), gather(vd, grp)
            gh = head_rows(g3, grp)
            used = probs if keep is None else probs * keep * inv_keep
            dprobs = (gh @ vg.swapaxes(-1, -2))[..., 0, :]         # [B, n, H, W]
            if keep is not None:
                dprobs *= keep
                dprobs *= inv_keep
            dlogits = probs * (dprobs - (probs * dprobs).sum(axis=-1, keepdims=True))
            bias_col = np.arange(heads)[:, None] * table + grp.rel[:, None, :]
            drpb += np.bincount(bias_col.reshape(-1), weights=dlogits.sum(axis=0).reshape(-1),
                                minlength=heads * table)
            dq[:, grp.rows] = (dlogits[..., None, :] @ kg).reshape(batch, n, c)
            # every (batch, row, slot) scatters into its key row
            keys = (np.arange(batch)[:, None, None] * n_all + grp.idx).reshape(-1)
            # [B, n, H, W] x [B, n, H, dh] -> [B, n, W, H, dh], one row per slot
            dkg = np.multiply(dlogits.transpose(0, 1, 3, 2)[..., None],
                              head_rows(qs, grp).transpose(0, 1, 3, 2, 4), order="C")
            dvg = np.multiply(used.transpose(0, 1, 3, 2)[..., None],
                              gh.transpose(0, 1, 3, 2, 4), order="C")
            dk += _scatter_rows(keys, dkg.reshape(keys.size, c), batch * n_all)
            dv += _scatter_rows(keys, dvg.reshape(keys.size, c), batch * n_all)
        if q.requires_grad:
            dq *= scale
            q._accumulate_owned(dq.reshape(q.data.shape))
        if k.requires_grad:
            k._accumulate_owned(dk.reshape(k.data.shape))
        if v.requires_grad:
            v._accumulate_owned(dv.reshape(v.data.shape))
        if rpb.requires_grad:
            rpb._accumulate_owned(drpb.astype(dtype).reshape(heads, table))

    return Tensor._from_op(out.reshape(q.data.shape), (q, k, v, rpb), backward,
                           "neighborhood_attention")


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-element binary cross-entropy on logits; targets may be soft."""
    z = logits.data
    t = np.asarray(targets, dtype=z.dtype)
    out_data = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))

    def backward(g):
        logits._accumulate_owned(g * (_sigmoid_np(z) - t))

    return Tensor._from_op(out_data, (logits,), backward, "bce_with_logits")


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------

def grad_check(fn: Callable[[], Tensor], tensors: Sequence[Tensor],
               eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``fn`` rebuilds a scalar loss from the current parameter values; it is
    re-evaluated twice per parameter entry. All parameters must be held in
    float64 — float32 round-off swamps the finite-difference signal.
    """
    for t in tensors:
        if t.data.dtype != np.float64:
            raise ParameterError("grad_check requires float64 parameters")
        t.requires_grad = True
        t.grad = None
    out = fn()
    if out.size != 1:
        raise ParameterError("grad_check needs a scalar function")
    if not np.isfinite(out.data).all():
        raise NumericError("grad_check: non-finite function value")
    if out.requires_grad:
        out.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                for t in tensors]

    worst = 0.0
    for t, ana in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        ana_flat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(fn().data)
            flat[i] = orig - eps
            lo = float(fn().data)
            flat[i] = orig
            if not (math.isfinite(hi) and math.isfinite(lo)):
                raise NumericError("grad_check: non-finite perturbed value")
            num = (hi - lo) / (2.0 * eps)
            denom = max(1e-8, abs(ana_flat[i]) + abs(num))
            worst = max(worst, abs(ana_flat[i] - num) / denom)
    return worst


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout from ``rng``; identity when it is None (inference)."""
    if rng is None or rate <= 0.0:
        return x
    keep = (rng.random(x.data.shape, dtype=np.float32) >= rate).astype(x.data.dtype)
    keep /= np.asarray(1.0 - rate, dtype=x.data.dtype)
    return mul(x, Tensor(keep))
