"""Graph ops that only the tests build. The model runs every product
through ``tz.linear``, the ELU, conv and pool inside ``tz.conv_block``,
sigmoid and softmax as array functions at inference, its one mean as
``tz.tmean`` and the whole loss as the one node
``training.multitask_loss``. These nodes reuse the same helpers, so a
``grad_check`` of a chain built from them checks the backward that
training runs. ``mul`` (which takes a plain number as a constant leaf)
and ``tsum`` reduce a grad check's output to a scalar, and the per-task
losses ``bce_with_logits`` and ``label_nll``, scaled by ``mul``, are the
chain that ``multitask_loss`` must equal bit for bit. ``add`` with
``tz.dropout`` is the skip that ``tz.residual`` fuses."""

import numpy as np

from aio1 import tensor as tz
from aio1.tensor import Tensor


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum with broadcasting."""
    tz._require_same_dtype(a, b, "add")

    def backward(g):
        return tz._unbroadcast(g, a.data.shape), tz._unbroadcast(g, b.data.shape)

    return Tensor._from_op(a.data + b.data, (a, b), backward, "add")


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product with broadcasting; a plain number ``b`` becomes
    a constant leaf of ``a``'s dtype."""
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.data.dtype))
    tz._require_same_dtype(a, b, "mul")
    out_data = a.data * b.data

    def backward(g):
        return (tz._unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                tz._unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return Tensor._from_op(out_data, (a, b), backward, "mul")


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return Tensor._from_op(np.asarray(out_data), (a,), backward, "sum")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy broadcasting over leading (batch) axes."""
    tz._check_matmul(a, b, "matmul")
    return Tensor._from_op(np.matmul(a.data, b.data), (a, b),
                           lambda g: tz._matmul_backward(a, b, g), "matmul")


def elu(x: Tensor) -> Tensor:
    out_data = tz._elu(x.data)
    return Tensor._from_op(out_data, (x,), lambda g: (tz._elu_slope(out_data, g),), "elu")


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, padding=(0, 0)) -> Tensor:
    """``tz.conv2d`` as a node, with ``tz._conv2d_backward``; it keeps
    its output alone, no im2col columns."""
    out = tz.conv2d(x.data, kernels.data, bias.data, padding)
    return Tensor._from_op(out, (x, kernels, bias),
                           lambda g: tz._conv2d_backward(x, kernels, padding, g), None)


def _maxpool_backward(windows: np.ndarray, out: np.ndarray, g: np.ndarray,
                      axis: int, length: int) -> np.ndarray:
    """The gradient of a max-pool with output ``out`` over the
    ``tz._pool_windows`` of an axis of ``length``. It goes to each window's
    first maximum: walking the slots in order, a slot equal to the maximum
    takes it while no earlier one has."""
    at = (slice(None),) * (axis + 1)
    buf = np.empty(windows.shape, dtype=g.dtype)
    free = np.ones(out.shape, dtype=bool)
    hit = np.empty_like(free)
    for j in range(windows.shape[axis + 1]):
        np.equal(windows[at + (j,)], out, out=hit)
        hit &= free
        free ^= hit
        np.multiply(g, hit, out=buf[at + (j,)])
    # pad copies sit after the original in its window, so the first
    # maximum is never one of them
    merged = buf.reshape(windows.shape[:axis] + (-1,) + windows.shape[axis + 2:])
    return merged[at[:axis] + (slice(length),)]


def maxpool(x: Tensor, axis: int, width: int) -> Tensor:
    """``tz.maxpool`` as a node, with :func:`_maxpool_backward`."""
    out = tz.maxpool(x.data, axis, width)
    axis %= x.ndim

    def backward(g):
        windows = tz._pool_windows(x.data, axis, width)
        return (_maxpool_backward(windows, out, g, axis, x.shape[axis]),)

    return Tensor._from_op(out, (x,), backward, None)


def sigmoid(x: Tensor) -> Tensor:
    out = tz.sigmoid(x.data)
    return Tensor._from_op(out, (x,), lambda g: (g * out * (1.0 - out),), "sigmoid")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    out = tz.softmax(x.data, axis)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return Tensor._from_op(out, (x,), backward, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """The log-softmax node that :func:`label_nll` fuses with a gather."""
    zmax = np.max(x.data, axis=axis, keepdims=True)
    shifted = x.data - zmax
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    sm = np.exp(out_data)

    def backward(g):
        return (g - sm * g.sum(axis=axis, keepdims=True),)

    return Tensor._from_op(out_data, (x,), backward, "log_softmax")


def take(a: Tensor, indices, axis: int = 0) -> Tensor:
    """Gather slices of ``a`` along ``axis``; duplicates allowed.

    The backward pass scatter-adds into the source with
    ``tz._scatter_rows``, so the same row may be gathered many times.
    """
    idx = np.asarray(indices)
    axis %= a.ndim
    out_data = np.take(a.data, idx, axis=axis)

    def backward(g):
        # bring the gathered axes to the front, flatten everything else
        gm = np.ascontiguousarray(np.moveaxis(
            g, tuple(range(axis, axis + idx.ndim)), tuple(range(idx.ndim))))
        n = a.data.shape[axis]
        acc = tz._scatter_rows(idx.reshape(-1), gm.reshape(idx.size, -1), n)
        dx = acc.reshape((n,) + a.data.shape[:axis] + a.data.shape[axis + 1:])
        return (np.moveaxis(dx, 0, axis),)

    return Tensor._from_op(out_data, (a,), backward, None)


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-element binary cross-entropy on logits; targets may be soft."""
    z = logits.data
    t = np.asarray(targets, dtype=z.dtype)
    out_data = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    return Tensor._from_op(out_data, (logits,), lambda g: (g * (tz.sigmoid(z) - t),),
                           "bce_with_logits")


def label_nll(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Per-frame cross-entropy ``-log softmax(logits)[t, labels[t]]`` of
    ``[T, V]`` logits against ``T`` class indices, as one node. It equals
    the :func:`log_softmax`, :func:`take` and negation chain bit for bit,
    gradients too."""
    z = logits.data
    rows = np.arange(z.shape[0])
    labels = np.asarray(labels)
    shifted = z - np.max(z, axis=-1, keepdims=True)
    lsm = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def backward(g):
        d = np.exp(lsm) * g[:, None]
        d[rows, labels] -= g
        return (d,)

    return Tensor._from_op(-lsm[rows, labels], (logits,), backward, "label_nll")


def per_task_loss(logits: dict, targets, weights) -> Tensor:
    """``training.multitask_loss`` as the chain of per-task nodes it fuses:
    ``tmean`` of each per-frame loss times its weight, added in task order."""
    total = None
    for w, name in zip(weights[:3], ("beat", "downbeat", "boundary")):
        term = mul(tz.tmean(bce_with_logits(logits[name], getattr(targets, name))), w)
        total = term if total is None else add(total, term)
    return add(total, mul(tz.tmean(label_nll(logits["labels"], targets.labels)), weights[3]))
