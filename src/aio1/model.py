"""The joint analysis network.

A stack of transformer modules runs over per-stem frame embeddings. Each
module first applies two parallel dilated neighborhood attentions over
time (the second at doubled dilation, so the pair sees spans related by
an integer factor), adds each to the residual, concatenates the two
branches, and funnels them through a position-wise MLP that widens to
``mlp_hidden_factor * C`` and back. A square-kernel grid attention over
(stem, time) then mixes information across instruments. Dilations grow
as ``dilation_base ** l`` with the block index, multiplying the temporal
receptive field per block; stems are averaged before four per-frame
heads emit beat, downbeat, boundary, and label scores.

The conv front end runs as one loop over fixed time tiles, in training
and at inference alike. Under a graph each tile is one ``tz.checkpoint``
node, which keeps only the tile's input view and output. The tile draws
its slice of the front end's three dropout masks when it runs, from a
copy of the generator jumped ahead to it, and again when the backward
computes its conv activations again, so the graph keeps no mask.

Under a graph each transformer block is one ``tz.checkpoint`` node too,
which keeps only the block's ``[S, T, C]`` input and a copy of the
generator. The backward builds one block's graph at a time, from the same
draws: its attentions' probabilities and masks, its activations at
``[S, T, C]``, ``[S, T, 2C]`` and the MLP's 8x hidden width, and the bool
mask of each ``tz.residual`` skip.
"""

from __future__ import annotations

import copy
import functools
import json
from dataclasses import asdict, dataclass
from typing import Callable, ClassVar

import numpy as np

from . import tensor as tz
from .attention import AttentionConfig, AttentionWeights, init_attention_weights, na1d, na2d
from .errors import ConfigError, InputError
from .frontend import (FPS, FrontendWeights, StemSpectrogram,
                       check_frontend_plan, filterbank, frontend_forward,
                       init_frontend_weights, mask_slicer)
from .postproc import DEFAULT_VOCAB
from .tensor import Tensor

# frames per front-end time tile; the last tile ends at the track's end, so
# only a shorter track makes a shorter one. float32 outputs equal one
# whole-track call bit for bit while each tile's projection GEMM has more
# than tz._SMALL_GEMM multiply-adds: 218 frames or more at the default
# preset ([4, T, 192] @ [192, 24]); at 217 its rows differ
_TILE_FRAMES = 256


@dataclass
class ModelConfig:
    # fixed by the spectrogram and the label set, not settable
    fps: ClassVar[float] = FPS
    label_vocab: ClassVar[tuple[str, ...]] = DEFAULT_VOCAB
    num_blocks: int = 11
    embed_dim: int = 24
    kernel_size: int = 5
    dilation_base: int = 2
    num_heads: int = 4
    num_stems: int = 4
    bands: int = filterbank().shape[1]
    conv_channels: tuple[int, int, int] = (32, 48, 64)
    pool_widths: tuple[int, int, int] = (3, 3, 3)
    mlp_hidden_factor: int = 8
    use_second_dina: bool = True
    use_instrument_attention: bool = True
    use_dilation: bool = True
    use_demix: bool = True
    dropout_conv: float = 0.2
    dropout_mlp: float = 0.2
    dropout_attn: float = 0.2
    dropout_skip: float = 0.1

    def validate(self) -> None:
        for name in ("num_blocks", "embed_dim", "num_stems", "mlp_hidden_factor"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("dropout_conv", "dropout_mlp", "dropout_attn", "dropout_skip"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1)")
        for name in ("conv_channels", "pool_widths"):
            sizes = tuple(getattr(self, name))
            if len(sizes) != 3 or min(sizes) < 1:
                raise ConfigError(f"{name} must be three sizes >= 1, got {sizes}")
        AttentionConfig(self.kernel_size, 1, self.num_heads).validate(self.embed_dim)
        check_frontend_plan(self.bands, self.pool_widths)

    def block_dilations(self, l: int) -> tuple[int, int]:
        if not self.use_dilation:
            return 1, 1
        d = self.dilation_base ** l
        return d, 2 * d


def default_config() -> ModelConfig:
    return ModelConfig()


def small_config() -> ModelConfig:
    """Compact preset: nine blocks, kernel 3, 16-dim embeddings, base-3
    dilations, with a narrower MLP and front end to match its size class."""
    return ModelConfig(num_blocks=9, kernel_size=3, embed_dim=16,
                       dilation_base=3, conv_channels=(8, 12, 16),
                       mlp_hidden_factor=2)


def toy_config() -> ModelConfig:
    """Two-block model for synthetic-data training runs on a CPU; narrow
    spectrograms keep the conv stack cheap."""
    return ModelConfig(num_blocks=2, embed_dim=16, conv_channels=(8, 12, 16),
                       bands=27)


def tiny_config() -> ModelConfig:
    """Smallest debuggable model; sized so finite-difference gradient
    verification over every parameter stays fast."""
    return ModelConfig(num_blocks=2, embed_dim=8, num_heads=2, num_stems=2,
                       bands=9, conv_channels=(2, 3, 4), pool_widths=(3, 3, 1))


CONFIG_PRESETS = {
    "default": default_config,
    "small": small_config,
    "toy": toy_config,
    "tiny": tiny_config,
}


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass
class BlockWeights:
    norm1_g: Tensor = tz.param("norm1.gain")
    norm1_b: Tensor = tz.param("norm1.bias")
    dina1: AttentionWeights = tz.param("dina1")
    dina2: AttentionWeights | None = tz.param("dina2")
    norm2_g: Tensor = tz.param("norm2.gain")
    norm2_b: Tensor = tz.param("norm2.bias")
    mlp_w1: Tensor = tz.param("mlp.fc1.weight")
    mlp_b1: Tensor = tz.param("mlp.fc1.bias")
    mlp_w2: Tensor = tz.param("mlp.fc2.weight")
    mlp_b2: Tensor = tz.param("mlp.fc2.bias")
    norm3_g: Tensor | None = tz.param("norm3.gain")
    norm3_b: Tensor | None = tz.param("norm3.bias")
    inst: AttentionWeights | None = tz.param("inst")


@dataclass
class HeadWeights:
    beat_w: Tensor = tz.param("beat.weight")
    beat_b: Tensor = tz.param("beat.bias")
    downbeat_w: Tensor = tz.param("downbeat.weight")
    downbeat_b: Tensor = tz.param("downbeat.bias")
    boundary_w: Tensor = tz.param("boundary.weight")
    boundary_b: Tensor = tz.param("boundary.bias")
    label_w: Tensor = tz.param("labels.weight")
    label_b: Tensor = tz.param("labels.bias")


@dataclass
class ModelWeights:
    frontend: FrontendWeights = tz.param("frontend")
    blocks: list[BlockWeights] = tz.param("block")
    final_norm_g: Tensor = tz.param("final_norm.gain")
    final_norm_b: Tensor = tz.param("final_norm.bias")
    heads: HeadWeights = tz.param("heads")

    def named_tensors(self):
        """``(name, tensor)`` for every weight, in one fixed order."""
        return tz.named(self, "")

    def parameters(self) -> list[Tensor]:
        named = list(self.named_tensors())
        tz.check_unique_names(name for name, _ in named)
        return [t for _, t in named]

    def copy(self) -> "ModelWeights":
        """Independent copy: every array is duplicated, and the new
        tensors are trainable leaves with no gradient yet."""
        fresh = {id(t): Tensor(t.data.copy(), requires_grad=True)
                 for _, t in self.named_tensors()}
        return copy.deepcopy(self, fresh)


def init_weights(cfg: ModelConfig, seed: int, dtype=np.float32) -> ModelWeights:
    """Deterministic initial weights: fan-in scaled uniform for linear and
    conv kernels, zero biases and bias tables, unit normalisation gains.
    Every weight is a trainable leaf tensor."""
    cfg.validate()
    rng = np.random.default_rng(seed)
    c = cfg.embed_dim
    att_cfg = AttentionConfig(cfg.kernel_size, 1, cfg.num_heads)

    def ones(n):
        return Tensor(np.ones(n, dtype=dtype))

    def zeros(n):
        return Tensor(np.zeros(n, dtype=dtype))

    def linear(nin, nout):
        return tz.fan_in_uniform(rng, (nin, nout), nin, dtype)

    front = init_frontend_weights(cfg.bands, cfg.conv_channels,
                                  cfg.pool_widths, c, rng, dtype)
    hidden = cfg.mlp_hidden_factor * c
    blocks = []
    for _ in range(cfg.num_blocks):
        blocks.append(BlockWeights(
            norm1_g=ones(c), norm1_b=zeros(c),
            dina1=init_attention_weights(c, att_cfg, rng, dtype=dtype),
            dina2=(init_attention_weights(c, att_cfg, rng, dtype=dtype)
                   if cfg.use_second_dina else None),
            norm2_g=ones(2 * c), norm2_b=zeros(2 * c),
            mlp_w1=linear(2 * c, hidden), mlp_b1=zeros(hidden),
            mlp_w2=linear(hidden, c), mlp_b2=zeros(c),
            norm3_g=ones(c) if cfg.use_instrument_attention else None,
            norm3_b=zeros(c) if cfg.use_instrument_attention else None,
            inst=(init_attention_weights(c, att_cfg, rng, two_d=True, dtype=dtype)
                  if cfg.use_instrument_attention else None)))
    heads = HeadWeights(
        beat_w=linear(c, 1), beat_b=zeros(1),
        downbeat_w=linear(c, 1), downbeat_b=zeros(1),
        boundary_w=linear(c, 1), boundary_b=zeros(1),
        label_w=linear(c, len(cfg.label_vocab)), label_b=zeros(len(cfg.label_vocab)))
    weights = ModelWeights(frontend=front, blocks=blocks,
                           final_norm_g=ones(c), final_norm_b=zeros(c), heads=heads)
    for _, t in weights.named_tensors():
        t.requires_grad = True
    return weights


def param_count(cfg: ModelConfig) -> int:
    """Exact number of scalar parameters implied by a configuration."""
    return sum(t.data.size for _, t in init_weights(cfg, seed=0).named_tensors())


# the .npz entry that holds the ModelConfig as JSON; every weight name has a dot
_CONFIG_ENTRY = "config"


def save_weights(path, weights: ModelWeights, cfg: ModelConfig) -> None:
    """Write ``weights`` to the ``.npz`` file ``path`` (as ``np.savez``
    names it), one array per ``named_tensors()`` name, and ``cfg`` as JSON
    under ``"config"``."""
    arrays = {name: t.data for name, t in weights.named_tensors()}
    np.savez(path, **arrays, **{_CONFIG_ENTRY: np.array(json.dumps(asdict(cfg)))})


def load_weights(path, cfg: ModelConfig) -> ModelWeights:
    """The weights :func:`save_weights` wrote to ``path`` for ``cfg``, as
    trainable leaves; the file is read without pickle.

    A file saved with another config raises ``ConfigError`` naming the
    fields that differ. A weight ``cfg`` makes that the file lacks, or one
    the file holds that ``cfg`` does not make, raises ``InputError``; a
    shape or dtype other than ``cfg``'s at the file's float dtype raises
    ``ConfigError``. Each names the weight.
    """
    with np.load(path, allow_pickle=False) as f:
        arrays = {name: f[name] for name in f.files}
    if _CONFIG_ENTRY not in arrays:
        raise InputError(f"{path} holds no {_CONFIG_ENTRY!r} entry")
    saved = json.loads(arrays.pop(_CONFIG_ENTRY).item())
    want = json.loads(json.dumps(asdict(cfg)))
    differ = [f"{k} {saved.get(k)}, not {want.get(k)}"
              for k in [*want, *sorted(saved.keys() - want.keys())] if saved.get(k) != want.get(k)]
    if differ:
        raise ConfigError(f"{path} holds weights of another config: {'; '.join(differ)}")
    dtype = next(iter(arrays.values())).dtype if arrays else np.dtype(np.float32)
    weights = init_weights(cfg, seed=0, dtype=dtype if dtype in tz.FLOAT_DTYPES else np.float32)
    named = dict(weights.named_tensors())
    missing, extra = named.keys() - arrays.keys(), arrays.keys() - named.keys()
    if missing:
        raise InputError(f"the weights lack {', '.join(sorted(missing))}")
    if extra:
        raise InputError(f"the config makes no weights {', '.join(sorted(extra))}")
    for name, t in named.items():
        a = arrays[name]
        if a.shape != t.data.shape or a.dtype != t.data.dtype:
            raise ConfigError(f"weight {name} is {a.dtype.name} {a.shape}, the config "
                              f"makes {t.data.dtype.name} {t.data.shape}")
        t.data = a
    return weights


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

@dataclass
class FrameActivations:
    """Per-frame probabilities for the four tasks."""

    beat: np.ndarray                        # [T]
    downbeat: np.ndarray                    # [T]
    boundary: np.ndarray                    # [T]
    labels: np.ndarray                      # [T, vocab]
    fps: float

    def validate(self) -> None:
        for name in ("beat", "downbeat", "boundary"):
            arr = getattr(self, name)
            if ((arr < 0) | (arr > 1)).any():
                raise InputError(f"{name} activation outside [0, 1]")
        if ((self.labels < 0) | (self.labels > 1)).any():
            raise InputError("label distribution outside [0, 1]")
        if np.abs(self.labels.sum(axis=-1) - 1.0).max() > 1e-5:
            raise InputError("label rows must sum to 1")

    @property
    def num_frames(self) -> int:
        return self.beat.shape[0]


def _mlp(x: Tensor, u: Tensor, gain: Tensor, bias: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
         b2: Tensor, rng: np.random.Generator | None, rate: float, skip_rate: float) -> Tensor:
    """``x`` plus the dropped MLP of ``u``: layer norm, fc1, GELU, dropout, fc2."""
    h = tz.gelu(tz.linear(tz.layer_norm(u, gain, bias), w1, b1))
    return tz.residual(x, tz.linear(tz.dropout(h, rate, rng), w2, b2), skip_rate, rng)


def transformer_module_forward(x: Tensor, bw: BlockWeights, l: int, cfg: ModelConfig,
                               rng: np.random.Generator | None = None) -> Tensor:
    """One transformer module over ``[S, T, C]``; an ``rng`` turns dropout on.
    ``cfg`` alone picks the modules; one that ``bw`` lacks raises ``ConfigError``."""
    for name, on in (("dina2", cfg.use_second_dina), ("inst", cfg.use_instrument_attention)):
        if on and getattr(bw, name) is None:
            raise ConfigError(f"block {l}: the config turns {name} on, the weights lack it")
    d1, d2 = cfg.block_dilations(l)
    att = functools.partial(AttentionConfig, cfg.kernel_size, num_heads=cfg.num_heads)
    normed = tz.layer_norm(x, bw.norm1_g, bw.norm1_b)
    a = na1d(normed, bw.dina1, att(d1), cfg.dropout_attn, rng)
    branch_a = tz.residual(x, a, cfg.dropout_skip, rng)
    branch_b = x
    if cfg.use_second_dina:
        b = na1d(normed, bw.dina2, att(d2), cfg.dropout_attn, rng)
        branch_b = tz.residual(x, b, cfg.dropout_skip, rng)
    u = tz.concat([branch_a, branch_b], axis=-1)            # [S, T, 2C]
    y = _mlp(x, u, bw.norm2_g, bw.norm2_b, bw.mlp_w1, bw.mlp_b1, bw.mlp_w2, bw.mlp_b2,
             rng, cfg.dropout_mlp, cfg.dropout_skip)
    if cfg.use_instrument_attention:
        g = na2d(tz.layer_norm(y, bw.norm3_g, bw.norm3_b), bw.inst, att(1), cfg.dropout_attn, rng)
        y = tz.residual(y, g, cfg.dropout_skip, rng)
    return y


def _block(x: Tensor, *weights, like: BlockWeights, l: int, cfg: ModelConfig) -> Tensor:
    """``transformer_module_forward`` as a ``tz.checkpoint`` segment:
    ``weights`` are ``like``'s tensors in ``tz.named`` order, then the
    generator. It calls the module's global with ``l`` third, because
    ``bench/tracer.py`` wraps that global and names the block from it."""
    *leaves, rng = weights
    return transformer_module_forward(x, tz.rebuild(like, leaves), l, cfg, rng)


def _frontend_tile(x: Tensor, *weights, like: FrontendWeights, cfg: ModelConfig,
                   masks: Callable[[], list[np.ndarray | None]]) -> Tensor:
    """``frontend_forward`` over one tile, with the dropout masks ``masks()``
    draws; ``weights`` are ``like``'s tensors in ``tz.named`` order, then
    the generator ``tz.checkpoint`` passes, unused."""
    return frontend_forward(x, tz.rebuild(like, weights[:-1]), cfg.pool_widths,
                            cfg.dropout_conv, masks())


def _frontend(x: np.ndarray, w: FrontendWeights, cfg: ModelConfig,
              rng: np.random.Generator | None) -> Tensor:
    """``frontend_forward`` over ``_TILE_FRAMES`` time tiles, in training
    and at inference alike.

    ``mask_slicer`` records the generator's state and moves it past the
    whole draw of the three dropout masks; each tile draws only its own
    slice of them, when it runs and again in its replay, so a halo frame
    gets the mask its neighbour uses and no whole-track mask is made. A
    tile's input carries ``kh // 2`` frames per conv on each side,
    clipped at the track ends, and only its own frames are kept.
    The last tile is aligned to the track end and keeps only the frames
    no earlier tile produced. Under a graph each tile is one
    ``tz.checkpoint`` node, which keeps its input view and output, and
    runs the tile again in the backward; so one tile's activations are
    alive at a time. With no graph it is the plain call. ``tz.stitch``
    cuts the kept frames out and lays them end to end as one node. The
    loop stays outside ``frontend_forward``, because ``bench/tracer.py``
    names the conv spans by their index in each call.
    """
    t = x.shape[1]
    reach = sum(k.shape[2] // 2 for k in (w.conv1_w, w.conv2_w, w.conv3_w))
    masks = mask_slicer(x.shape, w, cfg.pool_widths, cfg.dropout_conv, rng)
    weights = [tensor for _, tensor in tz.named(w, "")]

    def tiles():
        done = 0
        while done < t:
            start = max(min(done, t - _TILE_FRAMES), 0)
            stop = min(start + _TILE_FRAMES, t)
            lo, hi = max(start - reach, 0), min(stop + reach, t)
            tile = functools.partial(_frontend_tile, like=w, cfg=cfg,
                                     masks=functools.partial(masks, lo, hi))
            yield (tz.checkpoint(tile, [Tensor(x[:, lo:hi])] + weights, None),
                   slice(done - lo, stop - lo))
            done = stop

    return tz.stitch(tiles(), t, axis=1)


def forward_logits(values: np.ndarray, weights: ModelWeights, cfg: ModelConfig,
                   rng: np.random.Generator | None = None) -> dict[str, Tensor]:
    """Raw head outputs from spectrogram values ``[S, T, bands]``.

    An ``rng`` means training: every dropout site draws its mask from it,
    the front end's three first, though each front-end tile draws only its
    own slice of them (see ``_frontend``). Without one the pass is
    inference. Either way the front end runs over fixed time tiles with a
    halo of the convs' reach, so its activations do not grow with the
    track, and the outputs equal one whole-track call. Under a graph each
    tile and each block is one ``tz.checkpoint`` node, computed again in
    the backward; with none it is the plain call. Weights with
    another block count than ``cfg`` raise ``ConfigError``.
    """
    if len(weights.blocks) != cfg.num_blocks:
        raise ConfigError(f"{len(weights.blocks)} weight blocks, {cfg.num_blocks} config blocks")
    x = np.asarray(values, dtype=weights.final_norm_g.data.dtype)
    if x.ndim != 3 or x.shape[1] == 0:
        raise InputError(f"expected non-empty [S, T, bands], got {x.shape}")
    if not cfg.use_demix:
        x = x.sum(axis=0, keepdims=True)
    h = _frontend(x, weights.frontend, cfg, rng)
    for l, bw in enumerate(weights.blocks):
        block = functools.partial(_block, like=bw, l=l, cfg=cfg)
        h = tz.checkpoint(block, [h] + [t for _, t in tz.named(bw, "")], rng)
    h = h.mean(axis=0)                                       # [T, C]
    h = tz.layer_norm(h, weights.final_norm_g, weights.final_norm_b)
    hd = weights.heads
    t = h.shape[0]
    return {
        "beat": tz.linear(h, hd.beat_w, hd.beat_b).reshape(t),
        "downbeat": tz.linear(h, hd.downbeat_w, hd.downbeat_b).reshape(t),
        "boundary": tz.linear(h, hd.boundary_w, hd.boundary_b).reshape(t),
        "labels": tz.linear(h, hd.label_w, hd.label_b),
    }


def model_forward(spec: StemSpectrogram, weights: ModelWeights,
                  cfg: ModelConfig) -> FrameActivations:
    """Inference: spectrogram in, per-frame probabilities out."""
    spec.validate()
    if abs(spec.fps - cfg.fps) > 1e-6:
        raise InputError(f"spectrogram fps {spec.fps} != model fps {cfg.fps}")
    if cfg.use_demix and spec.num_stems != cfg.num_stems:
        raise InputError(
            f"model expects {cfg.num_stems} stems, got {spec.num_stems}")
    with tz.no_grad():
        logits = forward_logits(spec.values, weights, cfg)
    acts = FrameActivations(
        beat=tz.sigmoid(logits["beat"].data).astype(np.float32),
        downbeat=tz.sigmoid(logits["downbeat"].data).astype(np.float32),
        boundary=tz.sigmoid(logits["boundary"].data).astype(np.float32),
        labels=tz.softmax(logits["labels"].data, axis=-1).astype(np.float32),
        fps=cfg.fps)
    acts.validate()
    return acts
