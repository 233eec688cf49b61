"""``tz.checkpoint`` recomputes a segment in the backward: outputs,
gradients and the dropout stream against the plain call, for one MLP, a
default training step and a seeded toy ``train()``, weights shared by
several segments and a segment over an input without a gradient; the leaf
rule for its weights; one transformer block against its composed form;
and what each checkpointed block keeps.

The gradient equality needs the recomputed GEMMs to sum in the order of
the first pass, so CI runs the model tests with one and with two BLAS
threads."""

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

import aio1.model as model
import aio1.tensor as tz
from aio1.attention import AttentionConfig, na1d, na2d
from aio1.errors import NumericError, ParameterError
from aio1.model import BlockWeights, default_config, forward_logits, init_weights, toy_config
from aio1.tensor import Tensor
from aio1.training import TrainConfig, build_targets, make_toy_dataset, multitask_loss, train

from gradcheck import grad_check
from graph_ops import add, mul, tsum


def _plain(fn, x, weights, rng):
    return fn(x, weights, rng)


@dataclass
class _MlpWeights:
    """The MLP's input and weights: leaves to ``tz.checkpoint``, as a
    block's weights are."""

    u: Tensor = tz.param("u")
    gain: Tensor = tz.param("gain")
    bias: Tensor = tz.param("bias")
    w1: Tensor = tz.param("w1")
    b1: Tensor = tz.param("b1")
    w2: Tensor = tz.param("w2")
    b2: Tensor = tz.param("b2")


@dataclass
class _NoWeights:
    pass


def _mlp_args(dtype, seed=0, frames=7, width=6, hidden=10):
    rng = np.random.default_rng(seed)

    def leaf(*shape, scale=1.0, offset=0.0):
        return Tensor(offset + scale * rng.standard_normal(shape), dtype=dtype,
                      requires_grad=True)

    # the skip input x, then the MLP's input and weights
    return leaf(2, frames, 3), _MlpWeights(
        leaf(2, frames, width), leaf(width, scale=0.1, offset=1.0), leaf(width, scale=0.1),
        leaf(width, hidden, scale=0.5), leaf(hidden, scale=0.1),
        leaf(hidden, 3, scale=0.5), leaf(3, scale=0.1))


def _inputs(x, w):
    """``x``, then the weights in ``tz.named`` order."""
    return [x] + [t for _, t in tz.named(w, "")]


def _mlp(x, w, rng):
    return model._mlp(x, w.u, w.gain, w.bias, w.w1, w.b1, w.w2, w.b2, rng,
                      rate=0.3, skip_rate=0.2)


def _run(checkpoint, x, w, seed, g=None):
    rng = np.random.default_rng(seed)
    out = checkpoint(_mlp, x, w, rng)
    out.backward(np.ones_like(out.data) if g is None else g)
    return out.data, [t.grad for t in _inputs(x, w)], rng.random()


@pytest.mark.blas_order
def test_default_preset_gradients_equal_the_plain_call(monkeypatch):
    cfg = default_config()
    spec, ann = make_toy_dataset(5, 1, 10.0, fps=cfg.fps, bands=cfg.bands,
                                 num_stems=cfg.num_stems, vocab=cfg.label_vocab)[0]
    targets = build_targets(ann, cfg.fps, spec.num_frames, cfg.label_vocab).slice(200, 500)
    runs = []
    # the plain call for every front-end tile and every block
    for checkpoint in (tz.checkpoint, _plain):
        monkeypatch.setattr(tz, "checkpoint", checkpoint)
        weights = init_weights(cfg, seed=6)
        # dropout on at every site, drawn from one seeded generator
        rng = np.random.default_rng(8)
        logits = forward_logits(spec.values[:, 200:500], weights, cfg, rng)
        loss, _ = multitask_loss(logits, targets, TrainConfig().loss_weights)
        loss.backward()
        runs.append((loss.data, list(weights.named_tensors()), rng.random()))
    (loss, kept, draw), (want_loss, plain, want_draw) = runs
    np.testing.assert_array_equal(loss, want_loss)
    assert draw == want_draw
    for (name, a), (_, b) in zip(kept, plain):
        assert a.grad is not None, name
        np.testing.assert_array_equal(a.grad, b.grad, err_msg=name)


@pytest.mark.blas_order
def test_a_seeded_toy_training_run_equals_the_plain_call(monkeypatch):
    cfg = toy_config()
    data = make_toy_dataset(3, 3, 10.0, fps=cfg.fps, bands=cfg.bands,
                            num_stems=cfg.num_stems, vocab=cfg.label_vocab)
    # random chunks, dropout at every site, two epochs of each rate
    tcfg = TrainConfig(chunk_seconds=4.0, max_epochs=4, swa_start_frac=0.5, seed=9)
    runs = []
    for checkpoint in (tz.checkpoint, _plain):
        monkeypatch.setattr(tz, "checkpoint", checkpoint)
        runs.append(train(cfg, tcfg, data[:2], data[2:]))
    (weights, history), (want_weights, want_history) = runs
    # every entry but the wall-clock frames per second
    for h in history + want_history:
        del h["frames_per_s"]
    assert history == want_history
    assert [h["swa_active"] for h in history] == [False, True, True, True]
    for (name, a), (_, b) in zip(weights.named_tensors(), want_weights.named_tensors()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_outputs_gradients_and_the_rng_stream_equal_the_plain_call(dtype):
    x, w = _mlp_args(dtype)
    g = np.random.default_rng(1).standard_normal((2, 7, 3)).astype(dtype)
    out, grads, draw = _run(tz.checkpoint, x, w, 2, g)
    for t in _inputs(x, w):
        t.grad = None
    want, want_grads, want_draw = _run(_plain, x, w, 2, g)
    np.testing.assert_array_equal(out, want)
    for a, b in zip(grads, want_grads):
        np.testing.assert_array_equal(a, b)
    assert draw == want_draw


def test_a_second_backward_adds_the_same_gradients():
    x, w = _mlp_args(np.float32)
    inputs = _inputs(x, w)
    out = tz.checkpoint(_mlp, x, w, np.random.default_rng(3))
    out.backward(np.ones_like(out.data))
    first = [t.grad for t in inputs]
    out.backward(np.ones_like(out.data))
    for t, g in zip(inputs, first):
        np.testing.assert_array_equal(t.grad, g + g)


def test_grad_check_through_a_checkpoint():
    x, weights = _mlp_args(np.float64, seed=4, frames=3, width=4, hidden=5)
    w = np.random.default_rng(5).standard_normal((2, 3, 3))

    def loss():
        # the same dropout masks at every evaluation
        out = tz.checkpoint(_mlp, x, weights, np.random.default_rng(6))
        return tsum(mul(out, Tensor(w)))

    assert grad_check(loss, _inputs(x, weights), eps=1e-5) < 1e-4


def test_only_inputs_that_require_grad_get_one():
    x, w = _mlp_args(np.float32)
    inputs = _inputs(x, w)
    inputs[2].requires_grad = inputs[3].requires_grad = False
    out = tz.checkpoint(_mlp, x, w, np.random.default_rng(7))
    out.backward(np.ones_like(out.data))
    assert inputs[2].grad is None and inputs[3].grad is None
    assert all(t.grad is not None for t in inputs[:2] + inputs[4:])


def test_without_a_graph_it_is_the_plain_call():
    calls = []

    def fn(a, w, rng):
        calls.append(tz._grad_enabled)
        return mul(a, 2.0)

    x = Tensor(np.ones(3), requires_grad=True)
    with tz.no_grad():
        out = tz.checkpoint(fn, x, _NoWeights(), None)
    assert not out.requires_grad and out._parents == ()
    out = tz.checkpoint(fn, Tensor(np.ones(3)), _NoWeights(), None)
    assert not out.requires_grad
    out = tz.checkpoint(fn, x, _NoWeights(), None)
    assert out.requires_grad and out._parents == (x,)
    # the recording call runs fn under no_grad, the backward with the graph on
    with tz.no_grad():
        out.backward(np.ones(3))
    assert calls == [False, True, False, True]
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0))


@pytest.mark.blas_order
def test_weights_shared_by_several_nodes_get_the_plain_calls_gradients():
    # as the front-end tiles share the front end's weights
    x, w = _mlp_args(np.float32)
    others = [Tensor(np.random.default_rng(s).standard_normal((2, 7, 3)), dtype=np.float32,
                     requires_grad=True) for s in (21, 22)]
    g = np.random.default_rng(23).standard_normal((6, 7, 3)).astype(np.float32)
    runs = []
    for checkpoint in (tz.checkpoint, _plain):
        rng = np.random.default_rng(24)
        out = tz.concat([checkpoint(_mlp, a, w, rng) for a in [x] + others], axis=0)
        out.backward(g)
        runs.append((out.data, [t.grad for t in _inputs(x, w) + others], rng.random()))
        for t in _inputs(x, w) + others:
            t.grad = None
    (out, grads, draw), (want, want_grads, want_draw) = runs
    np.testing.assert_array_equal(out, want)
    for a, b in zip(grads, want_grads):
        np.testing.assert_array_equal(a, b)
    assert draw == want_draw


@pytest.mark.blas_order
def test_a_segment_over_an_input_without_a_gradient_fills_its_weights():
    # as a front-end tile does: its input is a view of the spectrogram
    _, w = _mlp_args(np.float32)
    x = Tensor(np.random.default_rng(25).standard_normal((2, 7, 3)), dtype=np.float32)
    runs = []
    for checkpoint in (tz.checkpoint, _plain):
        out = checkpoint(_mlp, x, w, np.random.default_rng(26))
        assert out.requires_grad
        out.backward(np.ones_like(out.data))
        runs.append([t.grad for _, t in tz.named(w, "")])
        for _, t in tz.named(w, ""):
            t.grad = None
    assert x.grad is None
    for a, b in zip(*runs):
        assert a is not None
        np.testing.assert_array_equal(a, b)


def test_a_weight_made_by_an_op_raises():
    # its gradient would flow on into the outer graph in the replay
    x, w = _mlp_args(np.float32)
    w.w1 = mul(w.w1, 2.0)
    with pytest.raises(ParameterError, match="w1"):
        tz.checkpoint(_mlp, x, w, np.random.default_rng(27))


def test_a_non_finite_value_inside_names_its_op():
    x, w = _mlp_args(np.float32)
    w.w1.data[:] = 3e38
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="linear"):
        tz.checkpoint(_mlp, x, w, np.random.default_rng(8))


def _mlp_chain(u, gain, bias, w1, b1, w2, b2, rng, rate):
    h = tz.gelu(tz.linear(tz.layer_norm(u, gain, bias), w1, b1))
    return tz.linear(tz.dropout(h, rate, rng), w2, b2)


def _composed_block(x, bw, l, cfg, rng):
    """``transformer_module_forward`` with each skip a ``tz.dropout`` node
    and an ``add``, and the MLP's skip outside the MLP."""
    def skip(x, branch):
        return add(x, tz.dropout(branch, cfg.dropout_skip, rng))

    def att(d):
        return AttentionConfig(cfg.kernel_size, d, cfg.num_heads)

    d1, d2 = cfg.block_dilations(l)
    normed = tz.layer_norm(x, bw.norm1_g, bw.norm1_b)
    branch_a = skip(x, na1d(normed, bw.dina1, att(d1), cfg.dropout_attn, rng))
    branch_b = skip(x, na1d(normed, bw.dina2, att(d2), cfg.dropout_attn, rng))
    u = tz.concat([branch_a, branch_b], axis=-1)
    h = _mlp_chain(u, bw.norm2_g, bw.norm2_b, bw.mlp_w1, bw.mlp_b1, bw.mlp_w2, bw.mlp_b2,
                   rng, cfg.dropout_mlp)
    y = skip(x, h)
    g = na2d(tz.layer_norm(y, bw.norm3_g, bw.norm3_b), bw.inst, att(1), cfg.dropout_attn, rng)
    return skip(y, g)


@pytest.mark.blas_order
@pytest.mark.parametrize("l", [0, 5])
def test_a_default_block_equals_its_composed_form(l):
    # the default preset at a 7 s chunk, dropout on at every site
    cfg = default_config()
    runs = []
    for block in (model.transformer_module_forward, _composed_block):
        bw = init_weights(cfg, seed=14).blocks[l]
        data = np.random.default_rng(15)
        x = Tensor(data.standard_normal((4, 700, 24), dtype=np.float32), requires_grad=True)
        g = data.standard_normal((4, 700, 24), dtype=np.float32)
        rng = np.random.default_rng(16)
        y = block(x, bw, l, cfg, rng)
        y.backward(g)
        runs.append((y.data, [("x", x)] + list(tz.named(bw, "")), rng.random()))
    (out, grads, draw), (want, want_grads, want_draw) = runs
    np.testing.assert_array_equal(out, want)
    # x, three attentions of nine weights, three norms and the MLP
    assert len(grads) == len(want_grads) == 1 + 3 * 9 + 6 + 4
    for (name, a), (_, b) in zip(grads, want_grads):
        assert a.grad is not None, name
        np.testing.assert_array_equal(a.grad, b.grad, err_msg=name)
    assert draw == want_draw


def test_each_checkpointed_default_block_keeps_only_its_input(monkeypatch):
    # the default preset at a 7 s chunk, dropout on. A plain block kept
    # 17.6 MiB beyond its output, most of it the MLP's 8x hidden layer; with
    # the MLP checkpointed 9.89 MiB, and with each skip one residual node
    # 8.55 MiB: the attentions, their masks and the activations. As one
    # checkpoint node a block keeps its input, made before it, the node and
    # a copy of the generator: 3.6-9.9 KiB measured (the first block the most)
    cfg = default_config()
    spec, _ = make_toy_dataset(5, 1, 10.0, fps=cfg.fps, bands=cfg.bands,
                               num_stems=cfg.num_stems, vocab=cfg.label_vocab)[0]
    weights = init_weights(cfg, seed=11)
    held = []
    real = tz.checkpoint

    def spy(fn, x, w, rng):
        before = tracemalloc.get_traced_memory()[0]
        out = real(fn, x, w, rng)
        if isinstance(w, BlockWeights):
            assert out._parents[0] is x
            held.append(tracemalloc.get_traced_memory()[0] - before - out.data.nbytes)
        return out

    monkeypatch.setattr(tz, "checkpoint", spy)
    tracemalloc.start()
    try:
        logits = forward_logits(spec.values[:, :700], weights, cfg, np.random.default_rng(13))
    finally:
        tracemalloc.stop()
    assert logits["beat"].requires_grad
    assert len(held) == cfg.num_blocks
    assert max(held) <= 16 * 2 ** 10, max(held) / 2 ** 10
