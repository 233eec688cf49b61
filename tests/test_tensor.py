"""Tensor core: forward semantics against naive references, gradients
against central finite differences."""

import inspect
import tracemalloc
import warnings

import numpy as np
import pytest

from aio1 import tensor as tz
from aio1.errors import DimensionError, NumericError, ParameterError
from aio1.model import forward_logits, init_weights, tiny_config
from aio1.tensor import Tensor
from aio1.training import (TrainConfig, TrainingTargets, build_targets, make_toy_dataset,
                           multitask_loss)

from frontend_oracle import conv_block_chain
from graph_ops import (add, bce_with_logits, conv2d, elu, label_nll, log_softmax, matmul, maxpool,
                       mul, sigmoid, softmax, take, tsum)
from gradcheck import grad_check


def _rand(shape, rng, dtype=np.float64):
    return rng.standard_normal(shape).astype(dtype)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def matmul_loops(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def test_matmul_identity():
    rng = np.random.default_rng(0)
    x = _rand((3, 4), rng)
    out = matmul(Tensor(np.eye(3)), Tensor(x))
    np.testing.assert_array_equal(out.data, x)


def test_matmul_hand_sum():
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_allclose(out.data, [[3.0], [7.0]])


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = _rand((5, 7), rng, np.float32)
        b = _rand((7, 3), rng, np.float32)
        got = matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, matmul_loops(a, b), atol=1e-6)


def test_matmul_shape_error():
    with pytest.raises(DimensionError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def _no_bias(k):
    """A zero bias for the kernels ``k``: the bare cross-correlation."""
    return np.zeros(k.shape[0], dtype=k.dtype)


def conv2d_loops(x, k, padding):
    """Channels-first loop reference: ``x`` is ``[cin, h, w]``."""
    cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    oh = h + 2 * ph - kh + 1
    ow = w + 2 * pw - kw + 1
    out = np.zeros((cout, oh, ow), dtype=x.dtype)
    for o in range(cout):
        for i in range(oh):
            for j in range(ow):
                out[o, i, j] = (xp[:, i:i + kh, j:j + kw] * k[o]).sum()
    return out


def test_conv2d_1x1_identity():
    rng = np.random.default_rng(2)
    x = _rand((1, 4, 5, 1), rng)
    k = np.ones((1, 1, 1, 1))
    out = tz.conv2d(x, k, _no_bias(k))
    np.testing.assert_allclose(out, x)


def test_conv2d_ones_kernel_counts():
    x = np.ones((1, 6, 6, 1), dtype=np.float32)
    k = np.ones((1, 1, 3, 3), dtype=np.float32)
    out = tz.conv2d(x, k, _no_bias(k), padding=(1, 1))[0, :, :, 0]
    assert out[3, 3] == 9.0
    assert out[0, 0] == 4.0


def test_conv2d_matches_loops():
    rng = np.random.default_rng(3)
    for _ in range(100):
        cin = int(rng.integers(1, 3))
        cout = int(rng.integers(1, 3))
        h, w = int(rng.integers(3, 7)), int(rng.integers(3, 7))
        kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        pad = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        x = _rand((h, w, cin), rng, np.float32)
        k = _rand((cout, cin, kh, kw), rng, np.float32)
        got = tz.conv2d(x[None], k, _no_bias(k), pad)[0]
        want = conv2d_loops(x.transpose(2, 0, 1), k, pad).transpose(1, 2, 0)
        np.testing.assert_allclose(got, want, atol=1e-5)


def test_conv2d_kernel_too_large():
    with pytest.raises(DimensionError, match="kernel larger"):
        tz.conv2d(np.zeros((1, 2, 2, 1)), np.zeros((1, 1, 5, 5)),
                  _no_bias(np.zeros((1, 1, 5, 5))))


def test_conv2d_channel_mismatch():
    # channels are the last input axis
    with pytest.raises(DimensionError, match="channel mismatch"):
        tz.conv2d(np.zeros((1, 5, 5, 2)), np.zeros((1, 5, 3, 3)),
                  _no_bias(np.zeros((1, 5, 3, 3))))


@pytest.mark.parametrize("kernel,pad", [((3, 3), (1, 1)), ((1, 3), (0, 1))],
                         ids=["3x3", "1x3"])
def test_conv2d_input_gradient_is_the_adjoint(kernel, pad):
    # <conv(x), g> == <x, dx(g)> at the front end's kernel shapes
    rng = np.random.default_rng(18)
    x = Tensor(_rand((2, 7, 9, 3), rng), requires_grad=True)
    k = Tensor(_rand((4, 3) + kernel, rng))
    out = conv2d(x, k, Tensor(_no_bias(k.data)), pad)
    g = _rand(out.shape, rng)
    out.backward(g)
    lhs, rhs = float((out.data * g).sum()), float((x.data * x.grad).sum())
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# maxpool
# ---------------------------------------------------------------------------

def test_maxpool_width_one_identity():
    rng = np.random.default_rng(4)
    x = _rand((3, 6), rng)
    out = tz.maxpool(x, axis=1, width=1)
    np.testing.assert_array_equal(out, x)


def test_maxpool_basic():
    out = tz.maxpool(np.array([1.0, 3.0, 2.0, 0.0]), axis=0, width=2)
    np.testing.assert_array_equal(out, [3.0, 2.0])


def test_maxpool_pads_by_repeat():
    out = tz.maxpool(np.array([1.0, 3.0, 2.0]), axis=0, width=2)
    np.testing.assert_array_equal(out, [3.0, 2.0])


def test_maxpool_width_error():
    with pytest.raises(ParameterError):
        tz.maxpool(np.array([1.0]), axis=0, width=0)


def test_maxpool_gradient_one_hot():
    x = Tensor(np.array([1.0, 3.0, 2.0, 0.0, 5.0, 5.0]), requires_grad=True)
    out = tsum(maxpool(x, axis=0, width=2))
    out.backward()
    # ties go to the first maximal index
    np.testing.assert_array_equal(x.grad, [0, 1, 1, 0, 1, 0])


def argmax_maxpool(x, axis, width, g):
    """The forward-argmax max pool: gather each window's first maximum,
    and route the upstream gradient ``g`` to it."""
    xd = np.moveaxis(x, axis, -1)
    pad = (-xd.shape[-1]) % width
    if pad:
        xd = np.concatenate([xd, np.repeat(xd[..., -1:], pad, axis=-1)], axis=-1)
    windows = xd.reshape(xd.shape[:-1] + (-1, width))
    arg = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
    grad = np.zeros(windows.shape)
    np.put_along_axis(grad, arg[..., None], np.moveaxis(g, axis, -1)[..., None], axis=-1)
    grad = grad.reshape(xd.shape)[..., :np.moveaxis(x, axis, -1).shape[-1]]
    return np.moveaxis(out, -1, axis), np.moveaxis(grad, -1, axis)


@pytest.mark.parametrize("axis,width", [(0, 2), (1, 3), (2, 3), (2, 1), (1, 4)])
def test_maxpool_matches_argmax_pool_with_ties(axis, width):
    # values from a handful of levels, so most windows hold ties; a random
    # upstream gradient shows which value reached which input
    rng = np.random.default_rng(40 + width)
    x = Tensor(rng.integers(-2, 3, (5, 7, 9)).astype(np.float32), requires_grad=True)
    out = maxpool(x, axis=axis, width=width)
    g = rng.standard_normal(out.shape).astype(np.float32)
    out.backward(g)
    want_out, want_grad = argmax_maxpool(x.data, axis, width, g)
    np.testing.assert_array_equal(out.data, want_out)
    np.testing.assert_array_equal(x.grad, want_grad)


# ---------------------------------------------------------------------------
# layer_norm and activations
# ---------------------------------------------------------------------------

def test_layer_norm_constant_row_zero():
    x = Tensor(np.full((2, 5), 3.7))
    g = Tensor(np.ones(5))
    b = Tensor(np.zeros(5))
    out = tz.layer_norm(x, g, b)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_already_normalized():
    x = Tensor(np.array([[1.0, -1.0]]))
    out = tz.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
    np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-5)


def test_layer_norm_output_mean_equals_bias():
    # with unit gain the affine offset is all that survives the row mean
    rng = np.random.default_rng(5)
    x = Tensor(_rand((4, 8), rng))
    b = _rand((8,), rng)
    out = tz.layer_norm(x, Tensor(np.ones(8)), Tensor(b))
    np.testing.assert_allclose((out.data - b).mean(axis=-1), 0.0, atol=1e-6)
    np.testing.assert_allclose((out.data - b).std(axis=-1), 1.0, atol=1e-4)


def test_activation_fixed_points():
    z = Tensor(np.array([0.0]))
    assert elu(z).data[0] == 0.0
    assert tz.gelu(z).data[0] == 0.0
    assert tz.sigmoid(z.data)[0] == 0.5


def test_softmax_constant_vector_uniform():
    out = tz.softmax(np.full(7, 2.5))
    np.testing.assert_allclose(out, 1.0 / 7.0, atol=1e-7)


def test_softmax_sums_to_one_and_monotone():
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = _rand((11,), rng)
        p = tz.softmax(x)
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-9)
        order = np.argsort(x)
        assert (np.diff(p[order]) >= -1e-12).all()


def test_non_finite_output_raises():
    big = Tensor(np.array([1e308]))
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="add"):
        add(big, big)


# ---------------------------------------------------------------------------
# fused ops and the float32 GELU
# ---------------------------------------------------------------------------

def _elu_where(x, g):
    """The ``np.where`` ELU and its input gradient, the form ``tz._elu``
    and ``tz._elu_slope`` replaced."""
    one = x.dtype.type(1.0)
    out = np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))
    return out, g * np.where(x > 0, one, out + one)


def _forward_and_grads(fn, tensors, g):
    for t in tensors:
        t.requires_grad, t.grad = True, None
    out = fn()
    out.backward(g)
    return out.data, [t.grad for t in tensors]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_elu_equals_the_where_form(dtype):
    rng = np.random.default_rng(30)
    x = np.concatenate([_rand(5000, rng, dtype) * 4,
                        np.array([0.0, -0.0, 1e-30, -1e-30, -100.0], dtype)])
    g = _rand(x.shape, rng, dtype)
    xt = Tensor(x)
    out, (dx,) = _forward_and_grads(lambda: elu(xt), [xt], g)
    want, want_dx = _elu_where(x, g)
    assert out.dtype == dx.dtype == dtype
    np.testing.assert_array_equal(out, want)
    np.testing.assert_array_equal(dx, want_dx)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_equals_matmul_then_add(dtype):
    rng = np.random.default_rng(31)
    x = Tensor(_rand((3, 40, 12), rng, dtype))
    w = Tensor(_rand((12, 7), rng, dtype))
    b = Tensor(_rand(7, rng, dtype))
    g = _rand((3, 40, 7), rng, dtype)
    fused = _forward_and_grads(lambda: tz.linear(x, w, b), [x, w, b], g)
    composed = _forward_and_grads(lambda: add(matmul(x, w), b), [x, w, b], g)
    np.testing.assert_array_equal(fused[0], composed[0])
    for got, want in zip(fused[1], composed[1]):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_biased_conv2d_equals_conv2d_then_add(dtype):
    rng = np.random.default_rng(32)
    x = Tensor(_rand((2, 9, 11, 3), rng, dtype))
    k = Tensor(_rand((4, 3, 3, 3), rng, dtype))
    b = Tensor(_rand(4, rng, dtype))
    g = _rand((2, 9, 11, 4), rng, dtype)
    fused = _forward_and_grads(lambda: conv2d(x, k, b, (1, 1)), [x, k, b], g)
    composed = _forward_and_grads(lambda: add(conv2d(x, k, Tensor(_no_bias(k.data)), (1, 1)), b),
                                  [x, k, b], g)
    np.testing.assert_array_equal(fused[0], composed[0])
    for got, want in zip(fused[1], composed[1]):
        np.testing.assert_array_equal(got, want)


def test_fused_bias_shape_checked():
    x, w = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4)))
    with pytest.raises(DimensionError, match="linear bias"):
        tz.linear(x, w, Tensor(np.zeros(3)))
    with pytest.raises(DimensionError, match="conv2d bias"):
        tz.conv2d(np.zeros((1, 3, 3, 1)), np.zeros((2, 1, 1, 1)), np.zeros(3))


def test_overflowing_linear_names_linear():
    x = Tensor(np.full((2, 3), 1e30, np.float32))
    w = Tensor(np.full((3, 2), 1e30, np.float32))
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="linear"):
        tz.linear(x, w, Tensor(np.zeros(2, np.float32)))


def test_non_finite_leaf_fails_at_the_first_op_that_computes():
    # shape-only ops move values without checking them
    x = Tensor(np.array([[1.0, np.nan], [2.0, 3.0]]))
    moved = take(tz.concat([x.reshape(4, 1), x.transpose().reshape(4, 1)]), [0, 1, 5])
    with pytest.raises(NumericError, match="matmul"):
        matmul(moved, Tensor(np.ones((1, 2))))


def _gelu64(x):
    from scipy.special import erf
    x = x.astype(np.float64)
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


# max |error| of the float32 GELU against float64 x * Phi(x); the float32
# scipy erf path measures 4.5e-7 on the same inputs
GELU_F32_ATOL = 5e-7


def test_gelu_float32_against_float64_erf():
    edges = np.array([1e-30, 1e20, 3.4e38], np.float32)
    x = np.concatenate([np.linspace(-12, 12, 1_000_001, dtype=np.float32),
                        edges, -edges, np.array([0.0, -0.0], np.float32)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tz.gelu(Tensor(x)).data
    assert got.dtype == np.float32 and np.isfinite(got).all()
    assert np.abs(got - _gelu64(x)).max() <= GELU_F32_ATOL
    assert got[-1] == got[-2] == 0.0


def test_gelu_float32_gradient_against_float64():
    rng = np.random.default_rng(33)
    x = np.concatenate([np.linspace(-12, 12, 40_001), rng.standard_normal(40_000)])
    g = rng.standard_normal(x.shape)
    x32, x64 = Tensor(x, dtype=np.float32), Tensor(x)
    dx32 = _forward_and_grads(lambda: tz.gelu(x32), [x32], g.astype(np.float32))[1][0]
    dx64 = _forward_and_grads(lambda: tz.gelu(x64), [x64], g)[1][0]
    assert dx32.dtype == np.float32
    np.testing.assert_allclose(dx32, dx64, rtol=0, atol=1e-6)


# ---------------------------------------------------------------------------
# grad_check: every differentiable primitive
# ---------------------------------------------------------------------------

def _gc(make_loss, *tensors):
    err = grad_check(make_loss, tensors, eps=1e-5)
    assert err < 1e-4, f"grad error {err:.3e}"


def test_grad_check_sum_is_exact():
    x = Tensor(np.random.default_rng(7).standard_normal(6), requires_grad=True)
    err = grad_check(lambda: tsum(x), [x])
    assert err < 1e-9
    x.grad = None
    tsum(x).backward()
    np.testing.assert_array_equal(x.grad, np.ones(6))


def test_grad_check_constant_fn():
    x = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    c = Tensor(np.array(2.0), dtype=np.float64)
    err = grad_check(lambda: tsum(mul(c, c)), [x])
    assert err < 1e-9


def test_grad_check_rejects_float32():
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with pytest.raises(ParameterError):
        grad_check(lambda: tsum(x), [x])


@pytest.mark.parametrize("seed", range(3))
def test_grads_random_shapes(seed):
    """Randomized shapes up to 4 axes through a mixed pipeline."""
    rng = np.random.default_rng(100 + seed)
    shape = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 5))))
    x = Tensor(_rand(shape, rng), requires_grad=True)
    w = Tensor(_rand((shape[-1], 3), rng), requires_grad=True)

    def loss():
        h = matmul(x.reshape(-1, shape[-1]), w)
        h = add(tz.gelu(h), mul(elu(h), 0.5))
        h = sigmoid(h)
        return tsum(mul(h, h))

    _gc(loss, x, w)


def test_grad_matmul_batched():
    rng = np.random.default_rng(8)
    a = Tensor(_rand((2, 3, 4, 5), rng), requires_grad=True)
    b = Tensor(_rand((4 * 5 if False else 5, 2), rng), requires_grad=True)
    _gc(lambda: tsum(matmul(a, b)), a, b)


def test_grad_conv2d():
    rng = np.random.default_rng(9)
    x = Tensor(_rand((2, 5, 6, 2), rng), requires_grad=True)
    k = Tensor(_rand((3, 2, 3, 3), rng), requires_grad=True)
    b = Tensor(_rand(3, rng), requires_grad=True)
    _gc(lambda: tsum(sigmoid(conv2d(x, k, b, (1, 1)))), x, k, b)


def test_grad_linear():
    rng = np.random.default_rng(35)
    x = Tensor(_rand((2, 4, 5), rng), requires_grad=True)
    w = Tensor(_rand((5, 3), rng), requires_grad=True)
    b = Tensor(_rand(3, rng), requires_grad=True)
    _gc(lambda: tsum(sigmoid(tz.linear(x, w, b))), x, w, b)


def test_grad_maxpool():
    rng = np.random.default_rng(10)
    x = Tensor(_rand((3, 7), rng), requires_grad=True)
    _gc(lambda: tsum(mul(maxpool(x, axis=1, width=3), 2.0)), x)


def test_grad_layer_norm():
    rng = np.random.default_rng(11)
    x = Tensor(_rand((4, 6), rng), requires_grad=True)
    g = Tensor(_rand((6,), rng), requires_grad=True)
    b = Tensor(_rand((6,), rng), requires_grad=True)
    _gc(lambda: tsum(sigmoid(tz.layer_norm(x, g, b))), x, g, b)


def test_grad_softmax_take_concat():
    rng = np.random.default_rng(12)
    x = Tensor(_rand((5, 4), rng), requires_grad=True)
    idx = np.array([[0, 1], [3, 3], [4, 2]])

    def loss():
        g = take(x, idx, axis=0)             # [3,2,4]
        c = tz.concat([g, g], axis=-1)       # [3,2,8]
        p = softmax(c, axis=-1)
        return tsum(mul(p, p))

    _gc(loss, x)
    # a negative axis gathers along its positive twin
    a = Tensor(_rand((3, 4), rng), requires_grad=True)
    tsum(take(a, [0, 2], axis=-1)).backward()
    np.testing.assert_array_equal(a.grad, np.tile([1.0, 0.0, 1.0, 0.0], (3, 1)))
    _gc(lambda: tsum(sigmoid(take(x, [3, 0, 3], axis=-1))), x)


def test_grad_log_softmax_and_bce():
    rng = np.random.default_rng(13)
    z = Tensor(_rand((6, 3), rng), requires_grad=True)
    t = rng.random((6, 3))

    def loss():
        a = tsum(bce_with_logits(z, t))
        b = tsum(mul(log_softmax(z, axis=-1), -1.0))
        return add(a, b)

    _gc(loss, z)


def _loss_inputs(rng, frames, vocab):
    """Float64 logits of the four heads and soft targets for ``multitask_loss``."""
    logits = {name: Tensor(_rand(shape, rng), requires_grad=True)
              for name, shape in (("beat", frames), ("downbeat", frames),
                                  ("boundary", frames), ("labels", (frames, vocab)))}
    targets = TrainingTargets(rng.random(frames), rng.random(frames), rng.random(frames),
                              rng.integers(0, vocab, frames))
    return logits, targets


def test_grad_label_nll():
    rng = np.random.default_rng(14)
    z = Tensor(_rand((7, 5), rng), requires_grad=True)
    labels = np.array([0, 4, 2, 2, 1, 3, 0])
    # a weight per frame, so each row's gradient differs
    w = Tensor(_rand(7, rng))
    _gc(lambda: tsum(mul(label_nll(z, labels), w)), z)
    # the one-node loss over all four heads, each with its own weight
    logits, targets = _loss_inputs(rng, 7, 5)
    _gc(lambda: multitask_loss(logits, targets, (1.0, 0.5, 2.0, 1.5)), *logits.values())


def test_label_nll_checks_its_shapes():
    rng = np.random.default_rng(15)
    logits, targets = _loss_inputs(rng, 4, 3)
    for labels in (np.zeros(3, int), np.zeros((4, 1), int)):
        targets.labels = labels
        with pytest.raises(DimensionError, match="multitask_loss"):
            multitask_loss(logits, targets)
    targets.labels = np.zeros(4, int)
    with pytest.raises(DimensionError, match="multitask_loss"):
        multitask_loss(dict(logits, labels=Tensor(np.zeros(4))), targets)
    # an event head or target of another length, or logits of another dtype
    with pytest.raises(DimensionError, match="multitask_loss"):
        multitask_loss(dict(logits, beat=Tensor(np.zeros(5))), targets)
    with pytest.raises(DimensionError, match="multitask_loss"):
        multitask_loss(logits, TrainingTargets(np.zeros(3), targets.downbeat,
                                               targets.boundary, targets.labels))
    with pytest.raises(DimensionError, match="multitask_loss"):
        multitask_loss(dict(logits, beat=Tensor(np.zeros(4, np.float32))), targets)
    multitask_loss(logits, targets)


@pytest.mark.parametrize("head", ["beat", "labels"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_loss_fails_on_a_non_finite_logit(head, bad):
    logits, targets = _loss_inputs(np.random.default_rng(16), 6, 3)
    z = logits[head].data
    z[(2, targets.labels[2]) if z.ndim == 2 else 2] = bad
    with np.errstate(invalid="ignore"), \
            pytest.raises(NumericError, match="multitask_loss"):
        multitask_loss(logits, targets)


def test_loss_of_a_minus_inf_logit_off_the_label_is_finite():
    # probability 0 for a class that is not the frame's label costs nothing
    logits, targets = _loss_inputs(np.random.default_rng(16), 6, 3)
    off = (targets.labels[2] + 1) % 3
    logits["labels"].data[2, off] = -np.inf
    loss = multitask_loss(logits, targets)
    loss.backward()
    assert np.isfinite(loss.item()) and logits["labels"].grad[2, off] == 0


def _slots():
    """Six frames over four slots. Frames 0-2 fill two of the first three
    slots, and frame 1 only one: its second slot is padded. Frames 3-5
    fill all three, frame 4 with a repeated key. The last slot reads the
    next batch row, so the last row of a batch has no key there."""
    shared = np.array([0, 1, 2, 0, 2, 3])
    return (tz.Slot(0, np.array([0, 1, 2, 3, 4, 5]), np.array([0, 1, 2, 0, 3, 4]), None),
            tz.Slot(0, np.array([1, 1, 5, 4, 4, 1]), np.array([1, 2, 3, 4, 2, 0]),
                    np.array([True, False, True, True, True, True])),
            tz.Slot(0, shared, np.array([0, 0, 0, 1, 2, 1]),
                    np.array([False, False, False, True, True, True])),
            tz.Slot(1, shared, np.array([3, 1, 4, 2, 0, 3]), None))


@pytest.mark.parametrize("dropout", [0.0, 0.4])
def test_grad_neighborhood_attention(dropout):
    rng = np.random.default_rng(15)
    q, k, v = (Tensor(_rand((2, 6, 4), rng), requires_grad=True) for _ in range(3))
    rpb = Tensor(_rand((2, 5), rng), requires_grad=True)
    slots = _slots()

    def loss():
        out = tz.neighborhood_attention(q, k, v, rpb, slots, dropout,
                                        np.random.default_rng(16))
        return tsum(sigmoid(out))

    _gc(loss, q, k, v, rpb)


def test_neighborhood_attention_without_rng_runs_no_dropout():
    rng = np.random.default_rng(18)
    q, k, v = (Tensor(_rand((2, 6, 4), rng)) for _ in range(3))
    rpb = Tensor(_rand((2, 5), rng))
    slots = _slots()
    plain = tz.neighborhood_attention(q, k, v, rpb, slots, 0.0).data
    unseeded = tz.neighborhood_attention(q, k, v, rpb, slots, 0.4, None).data
    assert np.array_equal(unseeded, plain)


def test_dropout_without_rng_is_identity():
    x = Tensor(np.ones((3, 4)))
    assert tz.dropout(x, 0.5, None) is x


def test_dropout_with_rng_keeps_the_expectation():
    x = Tensor(np.ones((200, 50)))
    out = tz.dropout(x, 0.5, np.random.default_rng(19)).data
    assert set(np.unique(out)) == {0.0, 2.0}
    assert abs(out.mean() - 1.0) < 0.05


def test_grad_dropout():
    x = Tensor(_rand((5, 7), np.random.default_rng(20)), requires_grad=True)
    # a fresh generator per evaluation repeats the mask
    _gc(lambda: tsum(sigmoid(tz.dropout(x, 0.3, np.random.default_rng(21)))), x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.1, 0.2, 0.4])
def test_dropout_equals_the_float_mask_product(dtype, rate):
    rng = np.random.default_rng(22)
    x = Tensor(_rand((6, 50), rng, dtype), requires_grad=True)
    g = _rand((6, 50), rng, dtype)
    u = np.random.default_rng(23).random(x.shape, dtype=np.float32)
    mask = (u >= rate).astype(dtype) / dtype(1 - rate)
    out, (dx,) = _forward_and_grads(
        lambda: tz.dropout(x, rate, np.random.default_rng(23)), [x], g)
    assert out.dtype == dtype and dx.dtype == dtype
    assert np.array_equal(out, x.data * mask)
    assert np.array_equal(dx, g * mask)


def _drawn(before):
    """Two generators in one state, after ``before`` float32 draws: an odd
    count leaves half a raw 64-bit word buffered."""
    pair = np.random.default_rng(26), np.random.default_rng(26)
    for rng in pair:
        rng.random(before, dtype=np.float32)
    return pair


def _same_next_draws(rng, want):
    assert rng.bit_generator.state == want.bit_generator.state
    np.testing.assert_array_equal(rng.random(3, dtype=np.float32),
                                  want.random(3, dtype=np.float32))
    assert rng.integers(0, 10, 5).tolist() == want.integers(0, 10, 5).tolist()


@pytest.mark.parametrize("before", range(4))
@pytest.mark.parametrize("rate", [0.1, 0.2, 0.5, 0.999])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 1000, 1001])
def test_raw_word_mask_equals_the_float32_draw(n, rate, before):
    rng, want = _drawn(before)
    keep, _ = tz._dropout_mask((n,), rate, rng, np.dtype(np.float32))
    np.testing.assert_array_equal(keep, want.random(n, dtype=np.float32) >= rate)
    _same_next_draws(rng, want)


@pytest.mark.parametrize("before", range(4))
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 1000, 1001])
def test_skip_leaves_the_state_of_the_float32_draws(n, before):
    rng, want = _drawn(before)
    tz._skip(rng, n)
    want.random(n, dtype=np.float32)
    _same_next_draws(rng, want)


def test_dropout_needs_a_pcg64_generator():
    mt = np.random.Generator(np.random.MT19937(27))
    with pytest.raises(ParameterError, match="PCG64"):
        tz.dropout(Tensor(np.ones((3, 4))), 0.2, mt)
    with pytest.raises(ParameterError, match="PCG64"):
        tz._skip(mt, 5)


def test_dropout_graph_keeps_a_one_byte_mask():
    x = Tensor(np.ones((4, 700, 192), np.float32), requires_grad=True)
    rng = np.random.default_rng(24)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = tz.dropout(x, 0.1, rng)
        held = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert held <= 1.1 * x.size


@pytest.mark.parametrize("rate", [1.0, 1.5, -0.2])
def test_dropout_rejects_a_rate_outside_unit_interval(rate):
    x = Tensor(np.ones((3, 4)))
    with pytest.raises(ParameterError, match="dropout rate"):
        tz.dropout(x, rate, np.random.default_rng(25))


# ---------------------------------------------------------------------------
# residual: a skip's dropout and add as one node
# ---------------------------------------------------------------------------

def _skip(fn, dtype, rate, seed):
    """Output, both gradients and the generator's next draw of one skip
    ``fn(x, branch, rate, rng)``; no generator when ``seed`` is None."""
    rng = np.random.default_rng(40)
    x, branch = (Tensor(_rand((3, 8, 5), rng, dtype)) for _ in range(2))
    g = _rand((3, 8, 5), rng, dtype)
    draws = None if seed is None else np.random.default_rng(seed)
    out, grads = _forward_and_grads(lambda: fn(x, branch, rate, draws), [x, branch], g)
    assert out.dtype == dtype and all(d.dtype == dtype for d in grads)
    return out, grads, None if draws is None else draws.random()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate,seed", [(0.0, 41), (0.3, 41), (0.3, None)],
                         ids=["rate-0", "rate-0.3", "no-rng"])
def test_residual_equals_add_after_dropout(dtype, rate, seed):
    out, grads, draw = _skip(tz.residual, dtype, rate, seed)
    want, want_grads, want_draw = _skip(lambda x, b, r, rng: add(x, tz.dropout(b, r, rng)),
                                        dtype, rate, seed)
    np.testing.assert_array_equal(out, want)
    for got, expected in zip(grads, want_grads):
        np.testing.assert_array_equal(got, expected)
    assert draw == want_draw


def test_grad_residual():
    rng = np.random.default_rng(42)
    x, branch = (Tensor(_rand((4, 6), rng), requires_grad=True) for _ in range(2))
    # a fresh generator per evaluation repeats the mask
    _gc(lambda: tsum(sigmoid(tz.residual(x, branch, 0.3, np.random.default_rng(43)))),
        x, branch)


def test_residual_graph_keeps_a_one_byte_mask():
    x, branch = (Tensor(np.ones((4, 700, 24), np.float32), requires_grad=True)
                 for _ in range(2))
    rng = np.random.default_rng(44)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = tz.residual(x, branch, 0.1, rng)
        held = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert held <= 1.1 * x.size


@pytest.mark.parametrize("shape,dtype", [((3, 5), np.float64), ((1, 4), np.float64),
                                         ((3, 4), np.float32)],
                         ids=["shape", "broadcast", "dtype"])
def test_residual_rejects_mismatched_shapes_and_dtypes(shape, dtype):
    x = Tensor(np.ones((3, 4)))
    for rng in (None, np.random.default_rng(45)):
        with pytest.raises(DimensionError, match="residual"):
            tz.residual(x, Tensor(np.ones(shape, dtype)), 0.1, rng)


@pytest.mark.parametrize("rate", [1.0, 1.5, -0.2])
def test_neighborhood_attention_rejects_a_rate_outside_unit_interval(rate):
    rng = np.random.default_rng(26)
    q, k, v = (Tensor(_rand((2, 6, 4), rng)) for _ in range(3))
    rpb = Tensor(_rand((2, 5), rng))
    with pytest.raises(ParameterError, match="dropout rate"):
        tz.neighborhood_attention(q, k, v, rpb, _slots(), rate, np.random.default_rng(27))


def test_neighborhood_attention_padded_slot_gets_no_weight():
    rng = np.random.default_rng(17)
    q, k, v = (Tensor(_rand((6, 4), rng)) for _ in range(3))
    rpb = Tensor(_rand((2, 5), rng))
    out = tz.neighborhood_attention(q, k, v, rpb, _slots())
    # row 1's only real slot is key 1, so each head returns v[1]
    np.testing.assert_allclose(out.data[1], v.data[1], atol=1e-12)


def test_neighborhood_attention_overflow_raises_at_the_op():
    q = Tensor(np.full((6, 4), 1e200))
    k = Tensor(np.full((6, 4), 1e200))
    v = Tensor(np.ones((6, 4)))
    rpb = Tensor(np.zeros((2, 5)))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericError, match="neighborhood_attention"):
        tz.neighborhood_attention(q, k, v, rpb, _slots())


def test_grad_divide_mean_transpose():
    # a division by a scalar is a multiply by its reciprocal, which only
    # tests build; the model's one mean is over the stem axis
    rng = np.random.default_rng(15)
    a = Tensor(_rand((3, 4), rng), requires_grad=True)
    b = Tensor(np.abs(_rand((3, 4), rng)) + 1.0, requires_grad=True)

    def loss():
        h = mul(mul(a, b), 1.0 / 3.0).transpose(1, 0)
        return add(tz.tmean(mul(h, h)), tsum(sigmoid(tz.tmean(h, axis=0))))

    _gc(loss, a, b)


def test_grad_transpose_negative_axes():
    rng = np.random.default_rng(19)
    a = Tensor(_rand((2, 3), rng), requires_grad=True)
    tsum(mul(tz.transpose(a, (-1, 0)), Tensor(_rand((3, 2), rng)))).backward()
    assert a.grad.shape == (2, 3)
    b = Tensor(_rand((2, 3, 4), rng), requires_grad=True)
    w = Tensor(_rand((4, 2, 3), rng))
    _gc(lambda: tsum(sigmoid(mul(tz.transpose(b, (-1, 0, -2)), w))), b)


# ---------------------------------------------------------------------------
# fused front-end layer
# ---------------------------------------------------------------------------

def _keep(seed, shape, rate):
    """A dropout keep mask drawn as ``frontend_oracle.frontend_masks`` draws one."""
    return np.random.default_rng(seed).random(shape, dtype=np.float32) >= rate


def _block_args(dtype, rate, seeded):
    """A small layer input ``[2, 6, 10, 3]`` with a 3x3 conv to 4 channels;
    its 10 bands leave a pool remainder at width 3. A seeded generator
    draws the keep mask, none at rate 0."""
    rng = np.random.default_rng(40)
    x = Tensor(_rand((2, 6, 10, 3), rng, dtype))
    k = Tensor(_rand((4, 3, 3, 3), rng, dtype))
    b = Tensor(_rand(4, rng, dtype))
    keep = _keep(41, (2, 6, 10, 4), rate) if seeded and rate else None
    return x, k, b, (1, 1), rate, keep, 3


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate,seeded", [(0.4, True), (0.4, False), (0.0, True)],
                         ids=["dropout", "no-rng", "rate-0"])
@pytest.mark.parametrize("x_grad", [True, False])
def test_conv_block_equals_the_four_node_chain(dtype, rate, seeded, x_grad):
    results = []
    for block in (tz.conv_block, conv_block_chain):
        x, k, b, pad, rate, keep, pool = _block_args(dtype, rate, seeded)
        g = _rand((2, 6, 4, 4), np.random.default_rng(42), dtype)
        tensors = [x, k, b] if x_grad else [k, b]
        out, grads = _forward_and_grads(lambda: block(x, k, b, pad, rate, keep, pool),
                                        tensors, g)
        assert out.dtype == dtype and all(d.dtype == dtype for d in grads)
        results.append((out, grads, x.grad))
    (out, grads, xg), (want, want_grads, want_xg) = results
    np.testing.assert_array_equal(out, want)
    for got, exp in zip(grads, want_grads):
        np.testing.assert_array_equal(got, exp)
    if not x_grad:
        assert xg is None and want_xg is None
    if rate and seeded:
        assert (out == 0).any()             # the mask did drop values


def test_grad_conv_block():
    x, k, b, pad, _, _, pool = _block_args(np.float64, 0.0, False)
    _gc(lambda: tsum(sigmoid(tz.conv_block(x, k, b, pad, 0.4, None, pool))), x, k, b)


def test_conv_block_overflow_names_conv2d():
    x, k, b, pad, rate, keep, pool = _block_args(np.float32, 0.2, True)
    x.data[:] = 1e30
    k.data[:] = 1e30
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="conv2d"):
        tz.conv_block(x, k, b, pad, rate, keep, pool)


def _held_by(make):
    """Bytes still allocated once ``make()`` has returned its tensor."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = make()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    return held


@pytest.mark.blas_order
def test_conv_block_graph_keeps_no_im2col_columns():
    # the default preset's conv2 at a 7 s chunk: [4, 700, 27, 32] -> 48 channels
    rng = np.random.default_rng(43)
    x = Tensor(rng.standard_normal((4, 700, 27, 32), dtype=np.float32), requires_grad=True)
    k = Tensor(rng.uniform(-0.06, 0.06, (48, 32, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(48, np.float32), requires_grad=True)
    values = 4 * 700 * 27 * 48
    # the float32 ELU output, its bool mask and the pooled output, a third
    # of the bands: 6.33 bytes per conv output value, measured 6.334. The
    # chain keeps the conv, ELU and dropout outputs as well (14.33). The
    # mask is drawn inside the measure, so both count it.
    bound = 1.02 * values * (4 + 1 + 4 / 3)
    shape = (4, 700, 27, 48)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = tz.conv_block(x, k, b, (1, 1), 0.2, _keep(44, shape, 0.2), 3)
        fused, forward = (m - base for m in tracemalloc.get_traced_memory())
        g = np.ones_like(out.data)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out.backward(g)
        backward = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.requires_grad
    chain = _held_by(lambda: conv_block_chain(x, k, b, (1, 1), 0.2, _keep(44, shape, 0.2), 3))
    assert fused <= bound < chain, (fused / values, chain / values)
    # One im2col matrix of this layer is 83 MiB. With whole-matrix GEMMs
    # the forward peaks at 97.0 MiB and the backward at 120.9 MiB above
    # the graph; in row tiles and tap groups they read 36.9 and 60.8 MiB.
    assert forward <= 48 * 2 ** 20, forward / 2 ** 20
    assert backward <= 72 * 2 ** 20, backward / 2 ** 20
    # and a bare conv2d node keeps its output alone, no im2col columns
    assert _held_by(lambda: conv2d(x, k, b, (1, 1))) <= 1.02 * values * 4


# ---------------------------------------------------------------------------
# gradient ownership: only leaves keep a grad, accumulation is out of place
# ---------------------------------------------------------------------------

def _graph(root):
    seen, stack = {id(root): root}, [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


def test_backward_leaves_grads_on_the_weights_only():
    cfg = tiny_config()
    spec, ann = make_toy_dataset(4, 1, 10.0, fps=cfg.fps, bands=cfg.bands,
                                 num_stems=cfg.num_stems, vocab=cfg.label_vocab)[0]
    targets = build_targets(ann, cfg.fps, spec.num_frames, cfg.label_vocab).slice(0, 300)
    weights = init_weights(cfg, seed=2)
    logits = forward_logits(spec.values[:, :300], weights, cfg, np.random.default_rng(3))
    loss = multitask_loss(logits, targets, TrainConfig().loss_weights)
    loss.backward()
    nodes = _graph(loss)
    ops = [t for t in nodes if t._backward is not None]
    # the exact size of this graph: each front-end layer is one conv_block
    # node (the conv2d/elu/dropout/maxpool chain made it 212 and 109), and
    # the whole loss one multitask_loss node (three bce_with_logits, one
    # label_nll, four sums, eight multiplies, three adds and eight constant
    # leaves made it 199 and 97; log_softmax, reshape, take and a multiply
    # by -1 in place of label_nll made it 203 and 100), and each block's
    # MLP one checkpoint node (its layer_norm, two linears, gelu and
    # dropout made it 173 and 79), and the front end's two time tiles one
    # checkpoint node each, over an input view, joined by one stitch node
    # (the whole-track front end's input, three conv_blocks, a transpose,
    # a reshape and a linear made it 165 and 71), and the mean over the
    # stems one mean node (a sum, a constant leaf and a multiply made it
    # 163 and 68), and each skip one residual node, the MLP's inside its
    # checkpoint (a dropout and an add per skip made it 161 and 67), and
    # each whole block one checkpoint node over its input and weights, the
    # MLP's checkpoint gone (the block's own nodes made it 151 and 57)
    assert (len(nodes), len(ops)) == (109, 15)
    assert all(t.grad is None for t in ops)
    for name, t in weights.named_tensors():
        assert t.grad is not None and t.grad.shape == t.data.shape, name
    assert {id(t) for _, t in weights.named_tensors()} <= {id(t) for t in nodes}


def test_a_training_step_builds_only_the_model_node_kinds(monkeypatch):
    kinds = set()                       # the functions whose nodes joined a graph
    make = Tensor._from_op

    def recording(data, parents, backward, op):
        out = make(data, parents, backward, op)
        if out.requires_grad:
            kinds.add(backward.__qualname__.split(".")[0])
        return out

    monkeypatch.setattr(Tensor, "_from_op", staticmethod(recording))
    cfg = tiny_config()
    spec, ann = make_toy_dataset(4, 1, 10.0, fps=cfg.fps, bands=cfg.bands,
                                 num_stems=cfg.num_stems, vocab=cfg.label_vocab)[0]
    targets = build_targets(ann, cfg.fps, spec.num_frames, cfg.label_vocab).slice(0, 300)
    logits = forward_logits(spec.values[:, :300], init_weights(cfg, seed=2), cfg,
                            np.random.default_rng(3))
    multitask_loss(logits, targets, TrainConfig().loss_weights).backward()
    # the checkpointed blocks and front-end tiles build theirs in the backward
    assert kinds == {"residual", "reshape", "transpose", "stitch", "tmean", "linear",
                     "layer_norm", "gelu", "neighborhood_attention", "dropout", "conv_block",
                     "checkpoint", "multitask_loss"}
    # and every node that aio1.tensor can build is one of them
    makers = {name for name, fn in vars(tz).items()
              if inspect.isfunction(fn) and fn.__module__ == tz.__name__
              and "_from_op" in fn.__code__.co_names}
    assert makers <= kinds, makers - kinds


@pytest.mark.parametrize("shared_first", [True, False])
def test_a_buffer_given_to_two_leaves_is_never_written(shared_first):
    rng = np.random.default_rng(20)
    a, b = (Tensor(_rand((3, 4), rng), requires_grad=True) for _ in range(2))
    g = _rand((3, 4), rng)
    g_before = g.copy()
    # add hands its incoming gradient to both a and b; a then gets 3 g more
    shared, extra = add(a, b), mul(a, 3.0)
    out = add(shared, extra) if shared_first else add(extra, shared)
    out.backward(g)
    np.testing.assert_array_equal(b.grad, g_before)
    np.testing.assert_array_equal(a.grad, g_before + 3.0 * g_before)
    np.testing.assert_array_equal(g, g_before)


def test_a_repeated_parent_gets_both_contributions():
    rng = np.random.default_rng(21)
    x = Tensor(_rand(5, rng), requires_grad=True)
    tsum(mul(x, x)).backward()
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)
    x.grad = None
    w = _rand(10, rng)
    tsum(mul(tz.concat([x, x]), Tensor(w))).backward()
    np.testing.assert_array_equal(x.grad, w[:5] + w[5:])


def test_backward_rejects_a_seed_of_the_wrong_shape():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    y = mul(x, 2.0)
    for seed in (np.ones(3), np.ones((3, 2)), np.ones((1, 2, 3))):
        with pytest.raises(DimensionError, match="gradient of shape"):
            y.backward(seed)
    assert x.grad is None


def test_backward_rejects_an_op_gradient_of_the_wrong_shape():
    # the transpose backward that inverted (-1, 0) with an argsort of the
    # raw axes: it hands a (2, 3) leaf a (3, 2) gradient
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    out = Tensor._from_op(np.transpose(a.data, (-1, 0)), (a,),
                          lambda g: (np.transpose(g, np.argsort((-1, 0))),), None)
    with pytest.raises(DimensionError, match=r"\(3, 2\) for a node of shape \(2, 3\)"):
        tsum(out).backward()
    assert a.grad is None


def test_a_second_backward_adds_into_the_leaves():
    x = Tensor(np.arange(4.0), requires_grad=True)
    y = mul(x, 2.0)
    tsum(y).backward()
    # the shared node y kept no gradient from the first pass
    tsum(y).backward()
    np.testing.assert_array_equal(x.grad, np.full(4, 4.0))
    x.backward(np.ones(4))
    np.testing.assert_array_equal(x.grad, np.full(4, 5.0))
    tsum(x).backward()
    np.testing.assert_array_equal(x.grad, np.full(4, 6.0))


# ---------------------------------------------------------------------------
# purity and determinism
# ---------------------------------------------------------------------------

def test_ops_are_pure_and_deterministic():
    rng = np.random.default_rng(16)
    x = _rand((1, 5, 6, 4), rng, np.float32)
    k = _rand((2, 4, 3, 3), rng, np.float32)
    x_copy = x.copy()
    first = tz.conv2d(x, k, _no_bias(k), (1, 1))
    second = tz.conv2d(x, k, _no_bias(k), (1, 1))
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(x_copy, x)


def test_no_grad_builds_no_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with tz.no_grad():
        y = mul(x, 2.0)
    assert not y.requires_grad
    assert y._parents == ()


def test_parameter_names_unique():
    tz.check_unique_names(["a.weight", "a.bias"])
    with pytest.raises(ParameterError, match="a.weight"):
        tz.check_unique_names(["a.weight", "a.bias", "a.weight"])
