"""Model structure: shapes, parameter budgets, ablations, determinism,
receptive-field realization."""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import aio1.model as model
import aio1.tensor as tz
from aio1.errors import ConfigError, InputError, ParameterError
from aio1.frontend import FPS, StemSpectrogram, frontend_forward, stems_from_audio
from aio1.metrics import Annotation, Beat, evaluate_track
from aio1.model import (CONFIG_PRESETS, FrameActivations, ModelConfig,
                        default_config, forward_logits, init_weights,
                        load_weights, model_forward, param_count, save_weights,
                        small_config, tiny_config, toy_config,
                        transformer_module_forward)
from aio1.postproc import DEFAULT_VOCAB, Segment, analyze_activations
from aio1.tensor import Tensor

import frontend_oracle
from graph_ops import add, tsum


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
    def core(cfg):
        # attention and MLP weights of every block
        return sum(t.data.size for name, t in init_weights(cfg, seed=0).named_tensors()
                   if ".dina" in name or ".inst" in name or ".mlp." in name)

    base = toy_config()
    ratio = core(replace(base, embed_dim=32)) / core(base)
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


def _attention_format(prefix, table):
    return [(f"{prefix}.{part}.{kind}", (8, 8) if kind == "weight" else (8,))
            for part in ("query", "key", "value", "out")
            for kind in ("weight", "bias")] + [(f"{prefix}.rpb", (2, table))]


def test_weight_file_names_unique_and_stable():
    # the optimiser, the weight average and saved weights all pair
    # weights by this order, so it is pinned in full
    w = init_weights(tiny_config(), seed=0)
    want = [("frontend.conv1.weight", (2, 1, 3, 3)), ("frontend.conv1.bias", (2,)),
            ("frontend.conv2.weight", (3, 2, 3, 3)), ("frontend.conv2.bias", (3,)),
            ("frontend.conv3.weight", (4, 3, 1, 3)), ("frontend.conv3.bias", (4,)),
            ("frontend.proj.weight", (4, 8)), ("frontend.proj.bias", (8,))]
    for l in range(2):
        b = f"block{l}"
        want += [(f"{b}.norm1.gain", (8,)), (f"{b}.norm1.bias", (8,))]
        want += _attention_format(f"{b}.dina1", 9) + _attention_format(f"{b}.dina2", 9)
        want += [(f"{b}.norm2.gain", (16,)), (f"{b}.norm2.bias", (16,)),
                 (f"{b}.mlp.fc1.weight", (16, 64)), (f"{b}.mlp.fc1.bias", (64,)),
                 (f"{b}.mlp.fc2.weight", (64, 8)), (f"{b}.mlp.fc2.bias", (8,)),
                 (f"{b}.norm3.gain", (8,)), (f"{b}.norm3.bias", (8,))]
        want += _attention_format(f"{b}.inst", 81)
    want += [("final_norm.gain", (8,)), ("final_norm.bias", (8,)),
             ("heads.beat.weight", (8, 1)), ("heads.beat.bias", (1,)),
             ("heads.downbeat.weight", (8, 1)), ("heads.downbeat.bias", (1,)),
             ("heads.boundary.weight", (8, 1)), ("heads.boundary.bias", (1,)),
             ("heads.labels.weight", (8, 8)), ("heads.labels.bias", (8,))]
    assert [(name, t.shape) for name, t in w.named_tensors()] == want


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_weight_file_round_trip_is_bit_identical(dtype, tmp_path):
    cfg = tiny_config()
    weights = init_weights(cfg, seed=3, dtype=dtype)
    save_weights(tmp_path / "w.npz", weights, cfg)
    loaded = load_weights(tmp_path / "w.npz", cfg)
    for (name, a), (got, b) in zip(weights.named_tensors(), loaded.named_tensors()):
        assert got == name and b.requires_grad
        assert b.data.dtype == dtype and b.data.tobytes() == a.data.tobytes(), name
    spec = random_spec(cfg, 300, seed=4)
    want, got = model_forward(spec, weights, cfg), model_forward(spec, loaded, cfg)
    for key in ("beat", "downbeat", "boundary", "labels"):
        np.testing.assert_array_equal(getattr(got, key), getattr(want, key), err_msg=key)


def test_a_weight_file_that_does_not_fit_names_what_differs(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "w.npz"
    save_weights(path, init_weights(cfg, seed=3), cfg)
    with pytest.raises(ConfigError, match=r"num_blocks 2, not 11; .*conv_channels \[2, 3, 4\]"):
        load_weights(path, default_config())
    arrays = dict(np.load(path))
    np.savez(tmp_path / "missing.npz",
             **{name: a for name, a in arrays.items() if name != "block1.mlp.fc1.bias"})
    with pytest.raises(InputError, match="lack block1.mlp.fc1.bias"):
        load_weights(tmp_path / "missing.npz", cfg)
    # the small preset's weights saved under the tiny preset's config
    small = {name: t.data for name, t in init_weights(small_config(), seed=3).named_tensors()}
    np.savez(tmp_path / "small.npz", config=arrays["config"], **small)
    with pytest.raises(InputError, match="makes no weights block2"):
        load_weights(tmp_path / "small.npz", cfg)
    for name, bad in (("frontend.conv1.weight", np.zeros((3, 1, 3, 3), np.float32)),
                      ("frontend.conv1.bias", np.zeros(2, np.int64))):
        np.savez(tmp_path / "bad.npz", **dict(arrays, **{name: bad}))
        with pytest.raises(ConfigError, match=f"{name} is {bad.dtype.name} "
                                              rf"\({bad.shape[0]},"):
            load_weights(tmp_path / "bad.npz", cfg)


@pytest.mark.parametrize("flags, count", [({}, 425),
                                          ({"use_second_dina": False}, 326),
                                          ({"use_instrument_attention": False}, 304)])
def test_default_weight_name_counts(flags, count):
    w = init_weights(replace(default_config(), **flags), seed=0)
    names = [name for name, _ in w.named_tensors()]
    assert len(names) == len(set(names)) == count
    assert len(w.parameters()) == count


@pytest.mark.parametrize("flags", [{}, {"use_second_dina": False,
                                        "use_instrument_attention": False}])
def test_rebuild_is_the_inverse_of_named(flags):
    # a checkpoint segment turns its flat leaves back into weights with it
    w = init_weights(replace(tiny_config(), **flags), seed=0)
    named = list(w.named_tensors())
    fresh = [Tensor(t.data + 1) for _, t in named]
    rebuilt = tz.rebuild(w, fresh)
    assert [(name, id(t)) for name, t in rebuilt.named_tensors()] == \
        [(name, id(t)) for (name, _), t in zip(named, fresh)]
    assert [t for _, t in w.named_tensors()] == [t for _, t in named]     # w unchanged
    if flags:
        assert rebuilt.blocks[0].dina2 is None and rebuilt.blocks[0].inst is None
    block = [t for name, t in zip((n for n, _ in named), fresh) if name.startswith("block1.")]
    assert [t for _, t in tz.named(tz.rebuild(w.blocks[1], block), "")] == block
    with pytest.raises(ParameterError, match=f"{len(block) - 1} tensors for {len(block)}"):
        tz.rebuild(w.blocks[1], block[1:])


@pytest.mark.parametrize("field, value", [
    ("num_heads", 0), ("embed_dim", 0), ("num_stems", 0), ("mlp_hidden_factor", 0),
    ("dropout_conv", 1.0), ("dropout_mlp", 1.0), ("dropout_attn", -0.5),
    ("dropout_skip", 1.5), ("pool_widths", (3, 3)), ("pool_widths", (3, 3, 1, 1)),
    ("pool_widths", (3, 3, 0)), ("conv_channels", (2, 3)), ("conv_channels", (2, 0, 4))])
def test_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ConfigError, match=field):
        replace(tiny_config(), **{field: value}).validate()


def test_fps_and_vocab_are_constants_not_fields():
    cfg = tiny_config()
    assert cfg.fps == FPS and cfg.label_vocab == DEFAULT_VOCAB
    assert {f.name for f in fields(ModelConfig)}.isdisjoint({"fps", "label_vocab"})
    with pytest.raises(TypeError):
        replace(cfg, fps=50.0)


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
        p.grad = np.ones_like(p.data)
    dup = src.copy()
    pairs = list(zip(src.named_tensors(), dup.named_tensors()))
    assert len(pairs) == len(list(src.named_tensors()))
    for (name_a, a), (name_b, b) in pairs:
        assert name_a == name_b
        assert a is not b and b.data.dtype == dtype
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.shares_memory(a.data, b.data)
        # a trainable leaf with no gradient yet and no graph behind it
        assert b.grad is None and b.requires_grad and b._parents == ()
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
    for name, t in tz.named(w.blocks[0], "b"):
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


def test_tiny_pipeline_from_audio_to_scores():
    # stem audio -> spectrogram -> model_forward -> analyze_activations ->
    # evaluate_track; an untrained model, so only the contracts are checked
    cfg = replace(tiny_config(), num_stems=4, bands=81)
    sr, seconds = 44100, 8.0
    n = int(sr * seconds)
    rng = np.random.default_rng(11)
    beat_times = np.arange(0.25, seconds - 0.25, 0.5)              # 120 BPM
    drums = 0.01 * rng.standard_normal(n)
    for i, bt in enumerate(beat_times):
        lo = int(bt * sr)
        drums[lo:lo + 2000] += (1.0 if i % 4 == 0 else 0.5) * rng.standard_normal(2000)
    waves = {name: 0.01 * rng.standard_normal(n) for name in ("bass", "other", "vocals")}
    waves["drums"] = drums
    spec = stems_from_audio(waves)
    ann = Annotation(beats=[Beat(float(bt), i % 4 + 1) for i, bt in enumerate(beat_times)],
                     segments=[Segment(0.0, 4.25, "verse"), Segment(4.25, seconds, "chorus")],
                     duration=seconds)
    acts = model_forward(spec, init_weights(cfg, seed=0), cfg)
    assert acts.num_frames == spec.num_frames == 800
    result = analyze_activations(acts, vocab=cfg.label_vocab)
    assert result.duration == seconds
    assert result.segments[0].start == 0.0 and result.segments[-1].end == seconds
    assert all(a.end == b.start for a, b in zip(result.segments, result.segments[1:]))
    assert set(result.downbeats) <= set(result.beats)
    report = evaluate_track(result, ann)
    scores = report.to_dict()
    assert scores and all(0.0 <= v <= 1.0 for v in scores.values()), scores


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


# the bound bench/workloads.py holds float32 inference to (F64_ATOL)
F64_ATOL = 1e-4
# float32 head logits against float64 on the same weights. Untrained
# probabilities barely vary, so the F64_ATOL check alone lets through a
# tanh GELU (2.3e-5 off here); the float32 path measures 3.4e-7
LOGIT_ATOL = 2e-6


def test_float32_forward_within_tolerance_of_float64():
    cfg = small_config()
    w32 = init_weights(cfg, seed=21)
    # nonzero biases, so the fused bias adds change the outputs
    rng = np.random.default_rng(22)
    for name, t in w32.named_tensors():
        if name.endswith("bias"):
            t.data[...] = rng.standard_normal(t.shape)
    w64 = init_weights(cfg, seed=21, dtype=np.float64)
    for (_, src), (_, dst) in zip(w32.named_tensors(), w64.named_tensors()):
        dst.data[...] = src.data
    spec = random_spec(cfg, 600, seed=23)
    got = model_forward(spec, w32, cfg)
    want = model_forward(StemSpectrogram(spec.values.astype(np.float64), cfg.fps),
                         w64, cfg)
    for key in ("beat", "downbeat", "boundary", "labels"):
        diff = np.abs(getattr(got, key) - getattr(want, key)).max()
        assert diff <= F64_ATOL, (key, diff)
    with tz.no_grad():
        got = forward_logits(spec.values, w32, cfg)
        want = forward_logits(spec.values.astype(np.float64), w64, cfg)
    for key in got:
        diff = np.abs(got[key].data - want[key].data).max()
        assert diff <= LOGIT_ATOL, (key, diff)


def test_dropout_identity_at_inference_stochastic_in_training():
    cfg = tiny_config()
    w = init_weights(cfg, seed=0)
    vals = random_spec(cfg, 80, seed=8).values
    base = forward_logits(vals, w, cfg)["beat"].data
    again = forward_logits(vals, w, cfg)["beat"].data
    np.testing.assert_array_equal(base, again)
    t1 = forward_logits(vals, w, cfg, np.random.default_rng(1))["beat"].data
    t2 = forward_logits(vals, w, cfg, np.random.default_rng(1))["beat"].data
    np.testing.assert_array_equal(t1, t2)
    assert not np.array_equal(t1, base)
    t3 = forward_logits(vals, w, cfg, np.random.default_rng(2))["beat"].data
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


@pytest.mark.parametrize("flag, module", [("use_second_dina", "dina2"),
                                          ("use_instrument_attention", "inst")])
def test_a_module_the_config_turns_on_must_have_weights(flag, module):
    # the weights of an ablated model do not silently ablate the full one
    cfg = tiny_config()
    w = init_weights(replace(cfg, **{flag: False}), seed=0)
    with pytest.raises(ConfigError, match=f"block 0: the config turns {module} on"):
        model_forward(random_spec(cfg, 150, seed=9), w, cfg)


@pytest.mark.parametrize("num_blocks", [1, 3])
def test_weights_of_another_block_count_raise(num_blocks):
    cfg = tiny_config()
    w = init_weights(replace(cfg, num_blocks=num_blocks), seed=0)
    with pytest.raises(ConfigError, match=f"{num_blocks} weight blocks, 2 config blocks"):
        model_forward(random_spec(cfg, 150, seed=9), w, cfg)


def test_no_demix_sums_stems():
    cfg = tiny_config()
    w = init_weights(cfg, seed=0)
    spec = random_spec(cfg, 100, seed=10)
    summed = StemSpectrogram(values=spec.values.sum(axis=0, keepdims=True), fps=cfg.fps)
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
    front = w.frontend
    radius = sum(conv.shape[2] // 2  # conv stack time reach
                 for conv in (front.conv1_w, front.conv2_w, front.conv3_w))
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

# ---------------------------------------------------------------------------
# the front end in time tiles at inference
# ---------------------------------------------------------------------------

def _record_frontend_calls(monkeypatch) -> list[int]:
    """Input frame count of every ``frontend_forward`` call the model makes."""
    calls = []
    real = model.frontend_forward

    def spy(x, *args, **kwargs):
        calls.append(x.shape[1])
        return real(x, *args, **kwargs)

    monkeypatch.setattr(model, "frontend_forward", spy)
    return calls


@pytest.mark.blas_order
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_tiled_frontend_equals_one_whole_track_call(dtype, monkeypatch):
    # the default front end; float32 is bit-identical too, because every
    # tile keeps at least 218 frames, so its projection GEMM runs through
    # the same kernel as the whole track's (tz._SMALL_GEMM)
    cfg = default_config()
    w = init_weights(cfg, seed=5, dtype=dtype).frontend
    reach = sum(k.shape[2] // 2 for k in (w.conv1_w, w.conv2_w, w.conv3_w))
    rng = np.random.default_rng(6)
    calls = _record_frontend_calls(monkeypatch)
    for frames in (1, 2, 3, 255, 256, 257, 2 * 256 + 3, 2001):
        x = (2 * rng.random((1, frames, cfg.bands))).astype(dtype)
        calls.clear()
        with tz.no_grad():
            tiled = model._frontend(x, w, cfg, None)
        assert len(calls) == -(-frames // 256)
        assert max(calls) <= 256 + 2 * reach
        whole = frontend_forward(Tensor(x), w, cfg.pool_widths, cfg.dropout_conv)
        np.testing.assert_array_equal(tiled.data, whole.data)


def test_model_forward_in_tiles_equals_whole_track_forward(monkeypatch):
    cfg = tiny_config()
    w = init_weights(cfg, seed=15)
    spec = random_spec(cfg, 700, seed=16)
    calls = _record_frontend_calls(monkeypatch)
    tiled = model_forward(spec, w, cfg)
    assert len(calls) == 3
    monkeypatch.setattr(model, "_TILE_FRAMES", 10 ** 9)
    whole = model_forward(spec, w, cfg)
    assert calls[3:] == [700]
    for key in ("beat", "downbeat", "boundary", "labels"):
        np.testing.assert_array_equal(getattr(tiled, key), getattr(whole, key))


def test_graph_recording_forward_runs_the_front_end_in_checkpointed_tiles(monkeypatch):
    cfg = tiny_config()
    w = init_weights(cfg, seed=17)
    calls = _record_frontend_calls(monkeypatch)
    logits = forward_logits(random_spec(cfg, 600, seed=18).values, w, cfg,
                            np.random.default_rng(19))
    # tiles of 256, 256 and the last 256 frames, with a 2-frame halo
    assert calls == [258, 260, 258]
    add(tsum(logits["beat"]), tsum(logits["labels"])).backward()
    # each tile's checkpoint runs it again in the backward
    assert sorted(calls[3:]) == sorted(calls[:3])
    for name, t in tz.named(w.frontend, "frontend"):
        assert t.grad is not None and np.abs(t.grad).max() > 0, name


def test_tiled_frontend_memory_grows_only_by_its_output(monkeypatch):
    cfg = tiny_config()
    w = init_weights(cfg, seed=19).frontend
    rng = np.random.default_rng(20)

    def peak_and_output(fn, frames):
        x = rng.random((cfg.num_stems, frames, cfg.bands)).astype(np.float32)
        with tz.no_grad():
            fn(x)                                    # warm-up
            tracemalloc.start()
            try:
                out = fn(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return peak, out.data.nbytes

    def tiled(x):
        return model._frontend(x, w, cfg, None)

    def whole(x):
        return frontend_forward(Tensor(x), w, cfg.pool_widths, cfg.dropout_conv)

    (p1, _), (p4, out4) = peak_and_output(tiled, 1000), peak_and_output(tiled, 4000)
    assert p4 - p1 <= out4
    # the measure tells the two apart: one whole-track call through the
    # whole-matrix conv (conv_block calls the array function tz.conv2d by
    # module name) grows far more
    monkeypatch.setattr(tz, "conv2d", frontend_oracle.conv2d)
    (w1, _), (w4, _) = peak_and_output(whole, 1000), peak_and_output(whole, 4000)
    assert w4 - w1 > 4 * out4
