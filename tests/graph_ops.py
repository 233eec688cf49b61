"""Graph ops that only the tests build. The model runs every product
through ``tz.linear``, the ELU, conv and pool inside ``tz.conv_block``,
sigmoid and softmax as array functions at inference, and the label loss
as ``tz.label_nll``. These nodes reuse the same helpers, so a
``grad_check`` of a chain built from them checks the backward that
training runs."""

import numpy as np

from aio1 import tensor as tz
from aio1.tensor import Tensor


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


def maxpool(x: Tensor, axis: int, width: int) -> Tensor:
    """``tz.maxpool`` as a node, with ``tz._maxpool_backward``."""
    out = tz.maxpool(x.data, axis, width)
    axis %= x.ndim

    def backward(g):
        windows = tz._pool_windows(x.data, axis, width)
        return (tz._maxpool_backward(windows, out, g, axis, x.shape[axis]),)

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
    """The log-softmax node that ``tz.label_nll`` fuses with a gather."""
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
