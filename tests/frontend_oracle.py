"""Frozen references for the front end's conv ops.

* ``conv2d`` — 2-D cross-correlation as one GEMM over the whole im2col
  matrix, with a backward that rebuilds that matrix for the kernel
  gradient and makes the whole ``dcols`` matrix for the input gradient.
  ``tz.conv2d`` runs the same GEMMs in tiles and tap groups, and its
  outputs and gradients must equal these bit for bit.
* ``conv_block_chain`` — the four-node front-end layer that
  ``tz.conv_block`` fuses, built on that ``conv2d``.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from aio1 import tensor as tz
from aio1.tensor import Tensor

from graph_ops import elu


def _im2col(xd, kh, kw, padding):
    """The ``[n * oh * ow, kh * kw * cin]`` windows of ``xd [n, h, w, cin]``,
    zero-padded by ``padding``, in ``(kh, kw, cin)`` column order."""
    ph, pw = padding
    xp = np.pad(xd, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    windows = sliding_window_view(xp, (kh, kw), axis=(1, 2))
    cols = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3))
    return cols.reshape(-1, kh * kw * xd.shape[3])


def _conv2d_backward(x, kernels, padding, g):
    n, h, w, cin = x.data.shape
    cout, _, kh, kw = kernels.data.shape
    ph, pw = padding
    oh, ow = g.shape[1:3]
    gcols = g.reshape(-1, cout)
    dx = dk = None
    if kernels.requires_grad:
        dk = gcols.T @ _im2col(x.data, kh, kw, padding)
        dk = dk.reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2)
    if x.requires_grad:
        # the adjoint of im2col: each window column adds back into the
        # input pixel it was copied from
        kmat = kernels.data.transpose(0, 2, 3, 1).reshape(cout, -1)
        dcols = (gcols @ kmat).reshape(n, oh, ow, kh, kw, cin)
        dxp = np.zeros((n, h + 2 * ph, w + 2 * pw, cin), dtype=g.dtype)
        for i in range(kh):
            for j in range(kw):
                dxp[:, i:i + oh, j:j + ow] += dcols[:, :, :, i, j]
        dx = dxp[:, ph:ph + h, pw:pw + w]
    return dx, dk, tz._unbroadcast(g, (cout,))


def conv2d(x, kernels, bias, padding=(0, 0)):
    """``tz.conv2d`` as one whole-matrix im2col GEMM, for valid inputs."""
    n, h, w, _ = x.data.shape
    cout, _, kh, kw = kernels.data.shape
    ph, pw = padding
    kmat = kernels.data.transpose(0, 2, 3, 1).reshape(cout, -1)
    out = _im2col(x.data, kh, kw, padding) @ kmat.T
    out = out.reshape(n, h + 2 * ph - kh + 1, w + 2 * pw - kw + 1, cout)
    out += bias.data
    return Tensor._from_op(out, (x, kernels, bias),
                           lambda g: _conv2d_backward(x, kernels, padding, g), "conv2d")


def conv_block_chain(x, kernels, bias, padding, rate, rng, pool):
    """``tz.conv_block`` built from one graph node per step: the
    whole-matrix conv2d, ELU, dropout and the frequency max-pool."""
    h = elu(conv2d(x, kernels, bias, padding))
    return tz.maxpool(tz.dropout(h, rate, rng), axis=2, width=pool)
