"""``tz.conv2d`` runs its GEMMs in row tiles and ``tz._conv2d_backward``
in tap groups: outputs and gradients against the frozen whole-matrix conv.
The memory that tiling saves is bounded in test_tensor.py, next to what
the conv_block graph keeps.

Bit equality holds only while BLAS never splits a GEMM's reduction and
runs each part through the same kernel as the whole product, so CI runs
this file with one and with two BLAS threads."""

import numpy as np
import pytest

from aio1 import tensor as tz
from aio1.tensor import Tensor

import frontend_oracle
import graph_ops

pytestmark = pytest.mark.blas_order

# the default preset's three layers: (cin, cout, kernel, padding, bands)
LAYERS = {
    "conv1": (1, 32, (3, 3), (1, 1), 81),
    "conv2": (32, 48, (3, 3), (1, 1), 27),
    "conv3": (48, 64, (1, 3), (0, 1), 9),
}


# the failure message of an equality check: a mismatch on another BLAS
# is a platform difference first, not a conv bug
_blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
BLAS_NOTE = (f"BLAS {_blas.get('name')} {_blas.get('version')} "
             f"({_blas.get('openblas configuration', 'no OpenBLAS configuration')}). "
             "tz._spans keeps each part of a split GEMM in the kernel OpenBLAS "
             "0.3.31 (SkylakeX core) runs the whole product through; a BLAS "
             "that picks kernels otherwise may sum the parts in another order")


def _args(layer, stems, frames, dtype, x_grad):
    cin, cout, (kh, kw), pad, bands = LAYERS[layer]
    rng = np.random.default_rng(60)
    x = Tensor(rng.standard_normal((stems, frames, bands, cin)).astype(dtype),
               requires_grad=x_grad)
    bound = 1.0 / np.sqrt(cin * kh * kw)
    k = Tensor(rng.uniform(-bound, bound, (cout, cin, kh, kw)).astype(dtype),
               requires_grad=True)
    b = Tensor(rng.standard_normal(cout).astype(dtype), requires_grad=True)
    return x, k, b, pad


def _run(conv, x, k, b, pad):
    for t in (x, k, b):
        t.grad = None
    out = conv(x, k, b, pad)
    g = np.random.default_rng(61).standard_normal(out.shape).astype(out.dtype)
    out.backward(g)
    return out.data, x.grad, k.grad, b.grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layer", list(LAYERS))
@pytest.mark.parametrize("stems", [4, 1])
@pytest.mark.parametrize("x_grad", [True, False], ids=["x-grad", "no-x-grad"])
@pytest.mark.parametrize("tile", [None, 250], ids=["default-tile", "tile-250"])
def test_conv2d_equals_the_whole_matrix_gemm(dtype, layer, stems, x_grad, tile, monkeypatch):
    if tile is not None:
        monkeypatch.setattr(tz, "_CONV_TILE", tile)
    x, k, b, pad = _args(layer, stems, 131, dtype, x_grad)
    out, dx, dk, db = _run(graph_ops.conv2d, x, k, b, pad)
    want, want_dx, want_dk, want_db = _run(frontend_oracle.conv2d_node, x, k, b, pad)
    assert out.dtype == dk.dtype == db.dtype == dtype
    np.testing.assert_array_equal(out, want, err_msg=BLAS_NOTE)
    np.testing.assert_array_equal(dk, want_dk, err_msg=BLAS_NOTE)
    np.testing.assert_array_equal(db, want_db, err_msg=BLAS_NOTE)
    if x_grad:
        assert dx.dtype == dtype
        np.testing.assert_array_equal(dx, want_dx, err_msg=BLAS_NOTE)
    else:
        assert dx is None and want_dx is None
    if tile is not None:
        # tiles of unequal length that end inside a stem
        cout, cin, kh, kw = k.shape
        ow = out.shape[2]
        bounds = tz._spans(stems * 131, tile // ow, 1, ow * cout * cin * kh * kw)
        assert len(set(np.diff(bounds))) == 2
        assert any(lo % 131 for lo in bounds[1:-1])


@pytest.mark.parametrize("shape,kernel,padding", [
    ((4, 131, 27, 32), (3, 3), (1, 1)),     # the default conv2
    ((2, 9, 5, 3), (1, 3), (0, 1)),
    ((1, 2, 1, 3), (5, 5), (2, 3)),         # taps that miss the whole input
    ((1, 6, 4, 2), (3, 1), (3, 0)),
])
def test_conv2d_backward_gives_an_unpadded_contiguous_input_gradient(shape, kernel, padding):
    # each tap adds straight into [n, h, w, cin], skipping the padding,
    # so Tensor.backward takes dx as it is, with no copy
    rng = np.random.default_rng(62)
    (n, h, w, cin), (kh, kw), (ph, pw) = shape, kernel, padding
    x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
    k = Tensor(rng.standard_normal((5, cin, kh, kw)).astype(np.float32), requires_grad=True)
    g = rng.standard_normal((n, h + 2 * ph - kh + 1, w + 2 * pw - kw + 1, 5)).astype(np.float32)
    dx, dk, db = tz._conv2d_backward(x, k, padding, g)
    want_dx, want_dk, want_db = frontend_oracle._conv2d_backward(x, k, padding, g)
    assert dx.shape == shape and dx.flags.c_contiguous
    np.testing.assert_array_equal(dx, want_dx, err_msg=BLAS_NOTE)
    np.testing.assert_array_equal(dk, want_dk, err_msg=BLAS_NOTE)
    np.testing.assert_array_equal(db, want_db)


@pytest.mark.parametrize("length,step,least,work", [
    (524, 101, 1, 81 * 9 * 32),        # conv1 rows, at the default tile
    (524, 3, 1, 81 * 9 * 32),          # ... at a 250-position tile
    (524, 303, 1, 27 * 288 * 48),      # conv2 rows
    (2400, 910, 1, 9 * 9 * 4),         # the tiny preset's conv3: one tile
    (9, 1, 1, 32 * 75600 * 48),        # conv2 taps at 7 s: one per group
    (9, 1, 32, 75600 * 32),            # conv1 taps: one group
    (9, 1, 3, 12 * 1000 * 16),         # taps that the small-GEMM bound merges
    (7, 100, 1, 10 ** 9), (1, 1, 1, 1), (0, 1, 1, 0),
])
def test_spans_keep_every_gemm_above_the_small_matrix_bound(length, step, least, work):
    bounds = tz._spans(length, step, least, work)
    sizes = np.diff(bounds)
    assert bounds[0] == 0 and bounds[-1] == length
    assert sizes.max() - sizes.min() <= 1
    if len(sizes) > 1:
        assert sizes.min() >= least and sizes.min() * work > tz._SMALL_GEMM
        assert len(sizes) <= -(-length // step)
