"""``tz.checkpoint`` recomputes a segment in the backward: outputs,
gradients and the dropout stream against the plain call, and what the
graph of one transformer block keeps.

The gradient equality needs the recomputed GEMMs to sum in the order of
the first pass, so CI runs the model test with one and with two BLAS
threads."""

import tracemalloc

import numpy as np
import pytest

import aio1.model as model
import aio1.tensor as tz
from aio1.errors import NumericError
from aio1.model import default_config, forward_logits, init_weights
from aio1.tensor import Tensor
from aio1.training import TrainConfig, build_targets, make_toy_dataset, multitask_loss

from gradcheck import grad_check


def _plain(fn, inputs, rng):
    return fn(*inputs, rng)


def _mlp_args(dtype, seed=0, frames=7, width=6, hidden=10):
    rng = np.random.default_rng(seed)

    def leaf(*shape, scale=1.0, offset=0.0):
        return Tensor(offset + scale * rng.standard_normal(shape), dtype=dtype,
                      requires_grad=True)

    return (leaf(2, frames, width), leaf(width, scale=0.1, offset=1.0), leaf(width, scale=0.1),
            leaf(width, hidden, scale=0.5), leaf(hidden, scale=0.1),
            leaf(hidden, 3, scale=0.5), leaf(3, scale=0.1))


def _mlp(*args):
    return model._mlp(*args, rate=0.3)


def _run(checkpoint, inputs, seed, g=None):
    rng = np.random.default_rng(seed)
    out = checkpoint(_mlp, inputs, rng)
    out.backward(np.ones_like(out.data) if g is None else g)
    return out.data, [t.grad for t in inputs], rng.random()


def test_default_preset_gradients_equal_the_plain_call(monkeypatch):
    cfg = default_config()
    spec, ann = make_toy_dataset(5, 1, 10.0, fps=cfg.fps, bands=cfg.bands,
                                 num_stems=cfg.num_stems, vocab=cfg.label_vocab)[0]
    targets = build_targets(ann, cfg.fps, spec.num_frames, cfg.label_vocab).slice(200, 500)
    runs = []
    for checkpoint in (tz.checkpoint, _plain):
        monkeypatch.setattr(tz, "checkpoint", checkpoint)
        weights = init_weights(cfg, seed=6)
        # dropout on at every site, drawn from one seeded generator
        rng = np.random.default_rng(8)
        logits = forward_logits(spec.values[:, 200:500], weights, cfg, rng)
        loss = multitask_loss(logits, targets, TrainConfig().loss_weights)
        loss.backward()
        runs.append((loss.data, list(weights.named_tensors()), rng.random()))
    (loss, kept, draw), (want_loss, plain, want_draw) = runs
    np.testing.assert_array_equal(loss, want_loss)
    assert draw == want_draw
    for (name, a), (_, b) in zip(kept, plain):
        assert a.grad is not None, name
        np.testing.assert_array_equal(a.grad, b.grad, err_msg=name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_outputs_gradients_and_the_rng_stream_equal_the_plain_call(dtype):
    inputs = _mlp_args(dtype)
    g = np.random.default_rng(1).standard_normal((2, 7, 3)).astype(dtype)
    out, grads, draw = _run(tz.checkpoint, inputs, 2, g)
    for t in inputs:
        t.grad = None
    want, want_grads, want_draw = _run(_plain, inputs, 2, g)
    np.testing.assert_array_equal(out, want)
    for a, b in zip(grads, want_grads):
        np.testing.assert_array_equal(a, b)
    assert draw == want_draw


def test_a_second_backward_adds_the_same_gradients():
    inputs = _mlp_args(np.float32)
    out = tz.checkpoint(_mlp, inputs, np.random.default_rng(3))
    out.backward(np.ones_like(out.data))
    first = [t.grad for t in inputs]
    out.backward(np.ones_like(out.data))
    for t, g in zip(inputs, first):
        np.testing.assert_array_equal(t.grad, g + g)


def test_grad_check_through_a_checkpoint():
    inputs = _mlp_args(np.float64, seed=4, frames=3, width=4, hidden=5)
    w = np.random.default_rng(5).standard_normal((2, 3, 3))

    def loss():
        # the same dropout masks at every evaluation
        out = tz.checkpoint(_mlp, inputs, np.random.default_rng(6))
        return tz.tsum(out * Tensor(w))

    assert grad_check(loss, inputs, eps=1e-5) < 1e-4


def test_only_inputs_that_require_grad_get_one():
    inputs = _mlp_args(np.float32)
    inputs[1].requires_grad = inputs[2].requires_grad = False
    out = tz.checkpoint(_mlp, inputs, np.random.default_rng(7))
    out.backward(np.ones_like(out.data))
    assert inputs[1].grad is None and inputs[2].grad is None
    assert all(t.grad is not None for t in inputs[:1] + inputs[3:])


def test_without_a_graph_it_is_the_plain_call():
    calls = []

    def fn(a, rng):
        calls.append(tz._grad_enabled)
        return a * 2.0

    x = Tensor(np.ones(3), requires_grad=True)
    with tz.no_grad():
        out = tz.checkpoint(fn, (x,), None)
    assert not out.requires_grad and out._parents == ()
    out = tz.checkpoint(fn, (Tensor(np.ones(3)),), None)
    assert not out.requires_grad
    out = tz.checkpoint(fn, (x,), None)
    assert out.requires_grad and out._parents == (x,)
    # the recording call runs fn under no_grad, the backward with the graph on
    with tz.no_grad():
        out.backward(np.ones(3))
    assert calls == [False, True, False, True]
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0))


def test_a_non_finite_value_inside_names_its_op():
    inputs = _mlp_args(np.float32)
    inputs[3].data[:] = 3e38
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="linear"):
        tz.checkpoint(_mlp, inputs, np.random.default_rng(8))


def test_a_default_block_graph_keeps_no_mlp_activations():
    # the default preset at a 7 s chunk, dropout on: the plain block keeps
    # 17.6 MiB beyond its output, most of the MLP's share in its 8x hidden
    # layer (the fc1 and GELU outputs, the dropout mask and output). With
    # the MLP checkpointed it keeps 9.9 MiB: the attentions, the dropouts
    # outside the MLP and the MLP's input
    cfg = default_config()
    weights = init_weights(cfg, seed=11)
    x = Tensor(np.random.default_rng(12).standard_normal((4, 700, 24), dtype=np.float32),
               requires_grad=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        y = model.transformer_module_forward(x, weights.blocks[0], 0, cfg,
                                             np.random.default_rng(13))
        held = tracemalloc.get_traced_memory()[0] - base - y.data.nbytes
    finally:
        tracemalloc.stop()
    assert y.requires_grad
    assert held <= 10.5 * 2 ** 20, held / 2 ** 20
