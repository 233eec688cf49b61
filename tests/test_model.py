"""Model structure: shapes, parameter budgets, ablations, determinism,
receptive-field realization."""

from dataclasses import replace

import numpy as np
import pytest

import aio1.tensor as tz
from aio1.errors import InputError
from aio1.frontend import StemSpectrogram
from aio1.model import (CONFIG_PRESETS, FrameActivations, ModelConfig,
                        default_config, forward_logits, init_weights,
                        model_forward, param_count, param_count_by_group,
                        small_config, tiny_config, toy_config,
                        transformer_module_forward)
from aio1.tensor import Tensor


def random_spec(cfg, frames, seed=0, stems=None):
    rng = np.random.default_rng(seed)
    s = stems if stems is not None else cfg.num_stems
    vals = (rng.random((s, frames, cfg.bands)) * 2).astype(np.float32)
    return StemSpectrogram(values=vals, fps=cfg.fps)


# ---------------------------------------------------------------------------
# parameter budgets
# ---------------------------------------------------------------------------

def test_param_count_default_in_budget():
    assert 255_000 <= param_count(default_config()) <= 345_000


def test_param_count_small_in_budget():
    assert 39_000 <= param_count(small_config()) <= 53_000


def test_doubling_embed_dim_roughly_quadruples_core():
    base = toy_config()
    doubled = replace(base, embed_dim=32)
    g1 = param_count_by_group(base)
    g2 = param_count_by_group(doubled)
    ratio = (g2["attention"] + g2["mlp"]) / (g1["attention"] + g1["mlp"])
    assert 3.5 <= ratio <= 4.5


def test_param_count_reproducible_and_counts_flags():
    cfg = toy_config()
    n_full = param_count(cfg)
    assert n_full == param_count(cfg)
    n_wo_dina2 = param_count(replace(cfg, use_second_dina=False))
    n_wo_inst = param_count(replace(cfg, use_instrument_attention=False))
    assert n_wo_dina2 < n_full
    assert n_wo_inst < n_full
    assert param_count(replace(cfg, use_dilation=False)) == n_full


def test_weight_file_names_unique_and_stable():
    w = init_weights(tiny_config(), seed=0)
    names = [name for name, _ in w.named_tensors()]
    assert len(names) == len(set(names))
    assert "block1.dina1.query.weight" in names
    assert "frontend.conv1.weight" in names
    assert "heads.labels.weight" in names


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------

def test_init_deterministic_per_seed():
    a = init_weights(tiny_config(), seed=7)
    b = init_weights(tiny_config(), seed=7)
    c = init_weights(tiny_config(), seed=8)
    for (_, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
        np.testing.assert_array_equal(ta.data, tb.data)
    assert any(not np.array_equal(ta.data, tc.data)
               for (_, ta), (_, tc) in zip(a.named_tensors(), c.named_tensors()))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_copy_is_independent_of_its_source(dtype):
    src = init_weights(tiny_config(), seed=5, dtype=dtype)
    for p in src.parameters():
        p.tensor.grad = np.ones_like(p.data)
    dup = src.copy()
    pairs = list(zip(src.named_tensors(), dup.named_tensors()))
    assert len(pairs) == len(list(src.named_tensors()))
    for (name_a, a), (name_b, b) in pairs:
        assert name_a == name_b
        assert a is not b and b.data.dtype == dtype
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.shares_memory(a.data, b.data)
        assert b.grad is None and not b.requires_grad
    before = [t.data.copy() for _, t in src.named_tensors()]
    for _, t in dup.named_tensors():
        t.data += 1.0
    for old, (_, t) in zip(before, src.named_tensors()):
        np.testing.assert_array_equal(t.data, old)


def test_fresh_model_output_sane():
    cfg = tiny_config()
    w = init_weights(cfg, seed=3)
    acts = model_forward(random_spec(cfg, 120, seed=1), w, cfg)
    acts.validate()
    assert np.isfinite(acts.labels).all()
    entropy = -(acts.labels * np.log(acts.labels + 1e-12)).sum(axis=1).mean()
    assert entropy > 0.8 * np.log(len(cfg.label_vocab))


# ---------------------------------------------------------------------------
# transformer module
# ---------------------------------------------------------------------------

def test_zero_weight_block_is_identity():
    cfg = toy_config()
    w = init_weights(cfg, seed=0)
    for name, t in w.blocks[0].named("b"):
        if "norm" not in name:
            t.data[:] = 0.0
    x = np.random.default_rng(0).standard_normal((4, 64, 16)).astype(np.float32)
    out = transformer_module_forward(Tensor(x), w.blocks[0], 0, cfg)
    np.testing.assert_array_equal(out.data, x)


@pytest.mark.parametrize("frames", [16, 4097])
def test_block_shape_contract(frames):
    cfg = toy_config()
    w = init_weights(cfg, seed=1)
    x = np.random.default_rng(2).standard_normal((2, frames, 16)).astype(np.float32)
    out = transformer_module_forward(Tensor(x), w.blocks[1], 1, cfg)
    assert out.shape == (2, frames, 16)


def test_single_stem_instrument_attention_still_matters():
    cfg = replace(toy_config(), num_stems=1)
    w = init_weights(cfg, seed=4)
    x = np.random.default_rng(5).standard_normal((1, 50, 16)).astype(np.float32)
    with_inst = transformer_module_forward(Tensor(x), w.blocks[0], 0, cfg)
    without = transformer_module_forward(
        Tensor(x), w.blocks[0], 0, replace(cfg, use_instrument_attention=False))
    assert not np.allclose(with_inst.data, without.data)


# ---------------------------------------------------------------------------
# whole model
# ---------------------------------------------------------------------------

def test_model_forward_contract():
    cfg = tiny_config()
    w = init_weights(cfg, seed=0)
    acts = model_forward(random_spec(cfg, 500), w, cfg)
    acts.validate()
    assert acts.num_frames == 500


def test_stem_permutation_of_identical_stems():
    cfg = tiny_config()
    w = init_weights(cfg, seed=0)
    spec = random_spec(cfg, 60, seed=6)
    spec.values[1] = spec.values[0]
    out1 = model_forward(spec, w, cfg)
    swapped = StemSpectrogram(values=spec.values[[1, 0]], fps=cfg.fps)
    out2 = model_forward(swapped, w, cfg)
    np.testing.assert_array_equal(out1.beat, out2.beat)
    np.testing.assert_array_equal(out1.labels, out2.labels)


def test_model_forward_deterministic():
    cfg = tiny_config()
    w = init_weights(cfg, seed=0)
    spec = random_spec(cfg, 300, seed=7)
    a = model_forward(spec, w, cfg)
    b = model_forward(spec, w, cfg)
    np.testing.assert_array_equal(a.beat, b.beat)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_dropout_identity_at_inference_stochastic_in_training():
    cfg = tiny_config()
    w = init_weights(cfg, seed=0)
    vals = random_spec(cfg, 80, seed=8).values
    base = forward_logits(vals, w, cfg, training=False)["beat"].data
    again = forward_logits(vals, w, cfg, training=False)["beat"].data
    np.testing.assert_array_equal(base, again)
    rng1 = np.random.default_rng(1)
    rng2 = np.random.default_rng(1)
    t1 = forward_logits(vals, w, cfg, training=True, rng=rng1)["beat"].data
    t2 = forward_logits(vals, w, cfg, training=True, rng=rng2)["beat"].data
    np.testing.assert_array_equal(t1, t2)
    t3 = forward_logits(vals, w, cfg, training=True,
                        rng=np.random.default_rng(2))["beat"].data
    assert not np.array_equal(t1, t3)


def test_empty_input_rejected():
    cfg = tiny_config()
    w = init_weights(cfg, seed=0)
    with pytest.raises(InputError):
        forward_logits(np.zeros((2, 0, 9), np.float32), w, cfg)


def test_fps_and_stem_mismatch_rejected():
    cfg = tiny_config()
    w = init_weights(cfg, seed=0)
    spec = random_spec(cfg, 120)
    with pytest.raises(InputError):
        model_forward(StemSpectrogram(values=spec.values, fps=50.0), w, cfg)
    with pytest.raises(InputError):
        model_forward(random_spec(cfg, 120, stems=3), w, cfg)


# ---------------------------------------------------------------------------
# ablation flags
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("flag", ["use_second_dina", "use_instrument_attention",
                                  "use_dilation", "use_demix"])
def test_ablation_flags_change_output(flag):
    cfg = tiny_config()
    w = init_weights(cfg, seed=0)
    spec = random_spec(cfg, 150, seed=9)
    base = model_forward(spec, w, cfg)
    toggled_cfg = replace(cfg, **{flag: False})
    toggled = model_forward(spec, w, toggled_cfg)
    toggled.validate()
    assert toggled.beat.shape == base.beat.shape
    assert not np.array_equal(base.beat, toggled.beat)
    assert not np.array_equal(base.labels, toggled.labels)


def test_no_demix_sums_stems():
    cfg = tiny_config()
    w = init_weights(cfg, seed=0)
    spec = random_spec(cfg, 100, seed=10)
    summed = StemSpectrogram(values=spec.values.sum(axis=0, keepdims=True),
                             fps=cfg.fps, stems=("mix",))
    a = model_forward(spec, w, replace(cfg, use_demix=False))
    b = model_forward(summed, w, replace(cfg, use_demix=False, num_stems=1))
    np.testing.assert_allclose(a.beat, b.beat, atol=1e-6)


def test_dilation_flag_is_live():
    cfg = toy_config()
    w = init_weights(cfg, seed=11)
    x = np.random.default_rng(12).standard_normal((4, 200, 16)).astype(np.float32)
    on = transformer_module_forward(Tensor(x), w.blocks[1], 1, cfg)
    off = transformer_module_forward(Tensor(x), w.blocks[1], 1,
                                     replace(cfg, use_dilation=False))
    assert not np.allclose(on.data, off.data)


# ---------------------------------------------------------------------------
# receptive field realization
# ---------------------------------------------------------------------------

def test_influence_confined_to_analytic_window():
    cfg = tiny_config()
    w = init_weights(cfg, seed=13)
    frames = 160
    spec = random_spec(cfg, frames, seed=14)
    base = model_forward(spec, w, cfg).beat

    # analytic union: dilated attention spans + grid attention + convs
    k = cfg.kernel_size
    radius = 2  # conv stack time extent
    for l in range(cfg.num_blocks):
        d1, d2 = cfg.block_dilations(l)
        radius += (k - 1) * max(d1, d2) + (k - 1)

    t0 = frames // 2
    poked = StemSpectrogram(values=spec.values.copy(), fps=cfg.fps)
    poked.values[:, t0, :] += 5.0
    out = model_forward(poked, w, cfg).beat
    changed = np.flatnonzero(np.abs(out - base) > 1e-7)
    assert changed.size > 0
    assert np.abs(changed - t0).max() <= radius