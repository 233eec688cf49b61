"""The front end's checkpointed time tiles in training: equality with one
whole-track call, each tile's slice of the whole-chunk dropout masks, a
float64 gradient check across tiles, and the memory of one default
training step.

The logits and most gradients must equal the whole-track call bit for
bit, which rests on the ``tz._spans`` rule for the conv and projection
GEMMs, so CI runs these tests with one and with two BLAS threads."""

import tracemalloc

import numpy as np
import pytest

import aio1.model as model
import aio1.tensor as tz
from aio1.frontend import frontend_forward
from aio1.model import CONFIG_PRESETS, default_config, forward_logits, init_weights, tiny_config
from aio1.tensor import Tensor
from aio1.training import TrainConfig, build_targets, make_toy_dataset, multitask_loss

from frontend_oracle import frontend_masks
from gradcheck import grad_check
from graph_ops import mul, tsum

MIB = 2 ** 20

pytestmark = pytest.mark.blas_order


def _whole_track(x, w, cfg, rng):
    """The reference: ``frontend_forward`` called once on the whole chunk,
    with the same masks."""
    masks = frontend_masks(x.shape, w, cfg.pool_widths, cfg.dropout_conv, rng)
    return frontend_forward(Tensor(x), w, cfg.pool_widths, cfg.dropout_conv, masks)


def _chunk(cfg, frames):
    spec, ann = make_toy_dataset(5, 1, 12.0, fps=cfg.fps, bands=cfg.bands,
                                 num_stems=cfg.num_stems, vocab=cfg.label_vocab)[0]
    targets = build_targets(ann, cfg.fps, spec.num_frames, cfg.label_vocab)
    return spec.values[:, 100:100 + frames], targets.slice(100, 100 + frames)


def _step(cfg, values, targets, dtype):
    """Logits, loss, the generator's next draw and every weight, with its
    gradient, of one default step with dropout on at every site."""
    weights = init_weights(cfg, seed=6, dtype=dtype)
    rng = np.random.default_rng(8)
    logits = forward_logits(values, weights, cfg, rng)
    loss, _ = multitask_loss(logits, targets, TrainConfig().loss_weights)
    loss.backward()
    return logits, loss.data, rng.random(), list(weights.named_tensors())


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)],
                         ids=["float32", "float64"])
@pytest.mark.parametrize("frames", [700, 1000])
def test_tiled_training_step_equals_one_whole_track_call(frames, dtype, tol, monkeypatch):
    cfg = default_config()
    values, targets = _chunk(cfg, frames)
    logits, loss, draw, tiled = _step(cfg, values, targets, dtype)
    monkeypatch.setattr(model, "_frontend", _whole_track)
    want_logits, want_loss, want_draw, whole = _step(cfg, values, targets, dtype)
    for key, t in logits.items():
        np.testing.assert_array_equal(t.data, want_logits[key].data, err_msg=key)
    np.testing.assert_array_equal(loss, want_loss)
    assert draw == want_draw
    for (name, a), (_, b) in zip(tiled, whole):
        assert a.grad is not None, name
        if name.startswith("frontend."):
            # each tile adds its own weight gradient: the sums reassociate
            err = np.abs(a.grad - b.grad).max()
            assert err <= tol * np.abs(b.grad).max(), (name, err)
        else:
            np.testing.assert_array_equal(a.grad, b.grad, err_msg=name)


def test_grad_check_through_the_tiles(monkeypatch):
    monkeypatch.setattr(model, "_TILE_FRAMES", 4)
    cfg = tiny_config()
    w = init_weights(cfg, seed=9, dtype=np.float64).frontend
    rng = np.random.default_rng(10)
    x = rng.random((cfg.num_stems, 10, cfg.bands)) * 2
    proj = Tensor(rng.standard_normal((cfg.num_stems, 10, cfg.embed_dim)))
    calls = []
    real = model.frontend_forward

    def spy(x, *args):
        calls.append(x.shape[1])
        return real(x, *args)

    monkeypatch.setattr(model, "frontend_forward", spy)

    def loss():
        # the same dropout masks at every evaluation
        return tsum(mul(model._frontend(x, w, cfg, np.random.default_rng(11)), proj))

    err = grad_check(loss, [t for _, t in tz.named(w, "frontend")])
    assert calls[:3] == [6, 8, 6]           # three tiles of 4 frames plus halo
    assert err < 1e-4, err


@pytest.mark.parametrize("before", [0, 1], ids=["whole-words", "half-word-buffered"])
@pytest.mark.parametrize("preset,frames", [("default", 700), ("default", 2000), ("tiny", 700)])
def test_each_tile_draws_its_slice_of_the_whole_chunk_masks(preset, frames, before,
                                                            monkeypatch):
    # the default preset's masks take an even number of words a frame, so
    # a half-word left buffered by one float32 draw before them starts
    # every slice at an odd word; the tiny preset's second mask takes 9
    # words a frame, so a tile that starts at an odd frame starts there too
    cfg = CONFIG_PRESETS[preset]()
    w = init_weights(cfg, seed=14).frontend
    x = np.random.default_rng(15).random((cfg.num_stems, frames, cfg.bands), np.float32)
    rng, want = np.random.default_rng(16), np.random.default_rng(16)
    for g in (rng, want):
        g.random(before, dtype=np.float32)
    whole = frontend_masks(x.shape, w, cfg.pool_widths, cfg.dropout_conv, want)
    drawn = []
    real = model.mask_slicer

    def spy(*args):
        slices = real(*args)

        def draw(lo, hi):
            drawn.append((lo, hi, slices(lo, hi)))
            return drawn[-1][2]
        return draw

    monkeypatch.setattr(model, "mask_slicer", spy)
    out = model._frontend(x, w, cfg, rng)
    assert rng.bit_generator.state == want.bit_generator.state
    tiles = len(drawn)
    out.backward(np.ones(out.shape, np.float32))        # each tile draws again
    assert len(drawn) == 2 * tiles == 2 * -(-frames // model._TILE_FRAMES)
    assert drawn[0][0] == 0 and drawn[tiles - 1][1] == frames
    for lo, hi, masks in drawn:
        for got, full in zip(masks, whole):
            np.testing.assert_array_equal(got, full[:, lo:hi])


@pytest.mark.parametrize("preset", sorted(CONFIG_PRESETS))
def test_inference_tiles_equal_one_whole_track_call(preset):
    # the tile halo comes from the conv kernels; a halo short of any frame
    # a conv reads changes the frames at each tile's edges
    cfg = CONFIG_PRESETS[preset]()
    w = init_weights(cfg, seed=12).frontend
    frames = 3 * model._TILE_FRAMES + 5
    x = 2 * np.random.default_rng(13).random((cfg.num_stems, frames, cfg.bands))
    x = x.astype(np.float32)
    with tz.no_grad():
        tiled = model._frontend(x, w, cfg, None)
        whole = frontend_forward(Tensor(x), w, cfg.pool_widths, cfg.dropout_conv)
    np.testing.assert_array_equal(tiled.data, whole.data)


def test_default_training_step_memory():
    # a 7 s default chunk: whole-track, the front end held 78 MiB of the
    # 188 MiB graph and its conv1 backward peaked 60 MiB above it (188 and
    # 271 MiB measured); in tiles the graph held 122.9 MiB and the backward
    # peaked at 186.8 MiB. With each skip one residual node, which keeps
    # only its bool mask, and the MLP's skip inside its checkpoint, they
    # read 108.1 and 172.0 MiB. With each block one checkpoint node, which
    # keeps only its input, they read 15.6 and 79.4 MiB: the backward peaks
    # in one block's replay, and 11.9 MiB of that graph were the front
    # end's whole-chunk masks. With each tile drawing its own slice of
    # them, forward_logits keeps 3.65 MiB, mostly the eleven [4, 700, 24]
    # block inputs (2.95 MiB); the bound leaves 1.35 MiB of margin, far
    # below what one whole-chunk mask would add. The backward peaks in a
    # front-end tile's replay, not in a block's (about 41 MiB each): at
    # 71.8 MiB while each conv_block node kept its whole ELU output and
    # mask, at 56.8 MiB since it keeps only pooled-size state. The peak
    # is now in conv2's _conv2d_backward
    cfg = default_config()
    values, targets = _chunk(cfg, 700)
    weights = init_weights(cfg, seed=6)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        logits = forward_logits(values, weights, cfg, np.random.default_rng(8))
        graph = tracemalloc.get_traced_memory()[0] - base
        loss, _ = multitask_loss(logits, targets, TrainConfig().loss_weights)
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert graph <= 5 * MIB, graph / MIB
    assert peak <= 64 * MIB, peak / MIB
