"""Multi-task training at desk scale.

Targets are soft per-frame values: event frames get weight one, their
neighbors a reduced weight (beats/downbeats) or a triangular ramp
(boundaries), and every frame also carries a section-label class index.
The loss is binary cross-entropy with logits for the three event tasks
plus categorical cross-entropy for labels, each averaged over frames
and summed with per-task weights. ``multitask_loss`` is one graph node
with its own backward; it keeps the rounding order of the per-task
chain of loss, sum, scale and add nodes, so its value and gradients
equal that chain's bit for bit.

``train_step`` is one rectified-Adam step (decoupled weight decay) on
one chunk; its graph is freed when it returns. ``train`` is the epoch
loop around it. The rate is multiplied by ``DECAY_FACTOR`` (0.3) after
every ``PLATEAU_EPOCHS`` (5) epochs without a better validation loss,
training stops after ``PATIENCE_EPOCHS`` (30), and from a warm fraction
of the epoch budget on, the rate switches to the averaging-phase rate
and a running average of weight snapshots (float64 sums, so the exact
mean) becomes the returned model. Every random choice (shuffling, chunk
offsets, dropout) is drawn from one seeded generator, so runs are
reproducible bit for bit.

A synthetic-track generator stands in for real data: each track plants
a tempo grid with accented bar starts and a few timbre sections whose
band profiles change at the section boundaries, and the matching
annotation is emitted alongside the spectrogram.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import tensor as tz
from .errors import ConfigError, DimensionError, InputError, TrainingDiverged
from .frontend import FPS, StemSpectrogram
from .metrics import Annotation, Beat
from .model import (DEFAULT_VOCAB, ModelConfig, ModelWeights, forward_logits,
                    init_weights)
from .postproc import Segment
from .tensor import Tensor


DECAY_FACTOR, PLATEAU_EPOCHS, PATIENCE_EPOCHS = 0.3, 5, 30
# the four heads, in the order of the loss weights and the per-task losses
TASKS = ("beat", "downbeat", "boundary", "labels")
# beats/downbeats mark WIDEN_FRAMES neighbors each side at WIDEN_WEIGHT;
# a boundary ramp has a half-width of BOUNDARY_RAMP_S seconds
WIDEN_FRAMES, WIDEN_WEIGHT, BOUNDARY_RAMP_S = 2, 0.5, 0.5


@dataclass
class TrainConfig:
    lr: float = 0.005
    swa_lr: float = 0.15
    weight_decay: float = 0.00025
    chunk_seconds: float = 300.0
    max_epochs: int = 100
    swa_start_frac: float = 0.25
    loss_weights: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    seed: int = 0

    def validate(self) -> None:
        if min(self.lr, self.swa_lr, self.weight_decay) <= 0:
            raise ConfigError("rates must be positive")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if round(self.chunk_seconds * FPS) < 1:
            raise ConfigError(f"chunk_seconds must cover a frame, got {self.chunk_seconds}")
        if not 0.0 <= self.swa_start_frac <= 1.0:
            raise ConfigError(f"swa_start_frac must lie in [0, 1], got {self.swa_start_frac}")


@dataclass
class TrainingTargets:
    beat: np.ndarray          # [T] soft values in [0, 1]
    downbeat: np.ndarray
    boundary: np.ndarray
    labels: np.ndarray        # [T] class indices

    def slice(self, start: int, stop: int) -> "TrainingTargets":
        return TrainingTargets(self.beat[start:stop], self.downbeat[start:stop],
                               self.boundary[start:stop], self.labels[start:stop])


def build_targets(ann: Annotation, fps: float, frames: int,
                  vocab: tuple[str, ...] = DEFAULT_VOCAB) -> TrainingTargets:
    """Soft per-frame targets from an annotation. An event, boundary or
    section start in the last half frame goes to the last frame; an event
    or boundary outside ``[0, frames / fps)`` raises."""
    beat = np.zeros(frames, dtype=np.float32)
    downbeat = np.zeros(frames, dtype=np.float32)
    boundary = np.zeros(frames, dtype=np.float32)

    def frame(time_s):
        return min(int(round(time_s * fps)), frames - 1)

    def place(target, time_s):
        if not 0.0 <= time_s < frames / fps:
            raise InputError(f"event at {time_s:.3f}s outside the track")
        f = frame(time_s)
        for off in range(-WIDEN_FRAMES, WIDEN_FRAMES + 1):
            j = f + off
            if 0 <= j < frames:
                w = 1.0 if off == 0 else WIDEN_WEIGHT
                target[j] = max(target[j], w)

    for b in ann.beats:
        place(beat, b.time)
        if b.bar_position == 1:
            place(downbeat, b.time)

    ramp = max(int(round(BOUNDARY_RAMP_S * fps)), 1)
    for seg in ann.segments[1:]:
        if not 0.0 <= seg.start < frames / fps:
            raise InputError(f"boundary at {seg.start:.3f}s outside the track")
        f = frame(seg.start)
        lo = max(f - ramp, 0)
        hi = min(f + ramp + 1, frames)
        offs = np.abs(np.arange(lo, hi) - f)
        boundary[lo:hi] = np.maximum(boundary[lo:hi], 1.0 - offs / ramp)

    index = {lab: i for i, lab in enumerate(vocab)}
    labels = np.zeros(frames, dtype=np.int64)
    for seg in ann.segments:
        if seg.label not in index:
            raise InputError(f"label {seg.label!r} not in the vocabulary")
        lo = frame(seg.start)
        hi = frames if seg is ann.segments[-1] else int(round(seg.end * fps))
        labels[lo:hi] = index[seg.label]

    return TrainingTargets(beat=beat, downbeat=downbeat, boundary=boundary,
                           labels=labels)


def multitask_loss(logits: dict[str, Tensor], targets: TrainingTargets,
                   weights: tuple[float, float, float, float] = (1.0,) * 4
                   ) -> tuple[Tensor, tuple[float, float, float, float]]:
    """Mean BCE over frames per event task plus mean label cross-entropy,
    weighted and summed, as one graph node over the four logit heads.

    Each term is ``(sum over frames * dtype(1/T)) * dtype(w)`` and the total
    ``((t0 + t1) + t2) + t3``, the order of a chain of per-frame loss, sum,
    scale and add nodes, so value and logit gradients equal that chain's
    bit for bit. A non-finite total raises :class:`NumericError`. It
    returns the node and the four weighted terms, in ``TASKS`` order.
    """
    heads = [logits[name] for name in TASKS]
    z, labels = heads[3].data, np.asarray(targets.labels)
    events = [np.asarray(t, dtype=z.dtype)
              for t in (targets.beat, targets.downbeat, targets.boundary)]
    if (z.ndim != 2 or {a.shape for a in (*heads[:3], *events, labels)} != {z.shape[:1]}
            or {h.dtype for h in heads} != {z.dtype}):
        raise DimensionError(
            f"multitask_loss expects [T] event logits and targets, [T, V] label logits "
            f"of the same dtype and [T] labels, got logits {[h.shape for h in heads]}, "
            f"targets {[t.shape for t in events]} and labels {labels.shape}")
    rows = np.arange(labels.size)
    inv, w = z.dtype.type(1.0 / labels.size), [z.dtype.type(x) for x in weights]
    shifted = z - np.max(z, axis=-1, keepdims=True)
    lsm = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    per_frame = [np.maximum(h.data, 0.0) - h.data * t + np.log1p(np.exp(-np.abs(h.data)))
                 for h, t in zip(heads, events)] + [-lsm[rows, labels]]
    t0, t1, t2, t3 = ((f.sum() * inv) * wk for f, wk in zip(per_frame, w))

    def backward(g):
        gs = [(g * wk) * inv for wk in w]
        d = np.exp(lsm) * gs[3]
        d[rows, labels] -= gs[3]
        return tuple(gk * (tz.sigmoid(h.data) - t)
                     for gk, h, t in zip(gs, heads, events)) + (d,)

    loss = Tensor._from_op(np.asarray(((t0 + t1) + t2) + t3), heads, backward,
                           "multitask_loss")
    return loss, (float(t0), float(t1), float(t2), float(t3))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class RAdamState:
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @staticmethod
    def for_params(params: list[Tensor]) -> "RAdamState":
        return RAdamState(step=0,
                          m=[np.zeros_like(p.data) for p in params],
                          v=[np.zeros_like(p.data) for p in params])


BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8   # RAdam moment decays, denominator guard


def radam_step(params: list[Tensor], state: RAdamState, lr: float,
               weight_decay: float = 0.0) -> None:
    """One rectified-Adam update with decoupled weight decay.

    While the variance estimate is still untrustworthy (rectification
    coefficient fewer than four effective samples) the step falls back to
    plain bias-corrected momentum. A tensor without a gradient is
    stepped as if its gradient were zero.
    """
    state.step += 1
    t = state.step
    rho_inf = 2.0 / (1.0 - BETA2) - 1.0
    beta2_t = BETA2 ** t
    rho_t = rho_inf - 2.0 * t * beta2_t / (1.0 - beta2_t)

    for p, m, v in zip(params, state.m, state.v):
        g = np.zeros_like(p.data) if p.grad is None else p.grad
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / (1.0 - BETA1 ** t)
        if rho_t > 4.0:
            rect = math.sqrt(((rho_t - 4.0) * (rho_t - 2.0) * rho_inf)
                             / ((rho_inf - 4.0) * (rho_inf - 2.0) * rho_t))
            v_hat = np.sqrt(v / (1.0 - beta2_t)) + ADAM_EPS
            update = (lr * rect) * m_hat / v_hat
        else:
            update = lr * m_hat
        if weight_decay:
            update = update + (lr * weight_decay) * p.data
        p.data = p.data - update


# ---------------------------------------------------------------------------
# stochastic weight averaging
# ---------------------------------------------------------------------------

@dataclass
class SwaAverage:
    """Running average of weight snapshots, held as exact float64 sums."""

    sums: list[np.ndarray] = field(default_factory=list)
    count: int = 0

    def update(self, weights: ModelWeights) -> None:
        tensors = [t.data for _, t in weights.named_tensors()]
        if not self.sums:
            self.sums = [d.astype(np.float64) for d in tensors]
        else:
            for acc, d in zip(self.sums, tensors):
                acc += d
        self.count += 1

    def weights(self, like: ModelWeights) -> ModelWeights:
        if not self.count:
            raise InputError("no snapshots collected")
        out = like.copy()
        for (_, t), acc in zip(out.named_tensors(), self.sums):
            t.data[:] = (acc / self.count).astype(t.data.dtype)
        return out


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

_TOY_LABELS = ("intro", "verse", "chorus", "bridge", "inst", "outro")


def _smooth_profile(rng: np.random.Generator, bands: int) -> np.ndarray:
    raw = rng.random(bands + 8)
    kernel = np.hanning(9)
    prof = np.convolve(raw, kernel / kernel.sum(), mode="valid")
    return (0.4 + 1.6 * prof).astype(np.float64)


def make_toy_dataset(seed: int, n_tracks: int, duration_s: float,
                     fps: float = FPS, bands: int = 27, num_stems: int = 4,
                     vocab: tuple[str, ...] = DEFAULT_VOCAB
                     ) -> list[tuple[StemSpectrogram, Annotation]]:
    """Synthetic (spectrogram, annotation) pairs with planted structure.

    Each track draws a tempo on the frame grid, accents every third or
    fourth beat, and splits into two or three sections with distinct
    per-stem band profiles; boundaries sit on section changes. The same
    seed always produces the same dataset.
    """
    if duration_s < 10:
        raise InputError("toy tracks need at least 10 seconds")
    frames = int(round(duration_s * fps))
    tracks = []
    for track_idx in range(n_tracks):
        rng = np.random.default_rng([seed, track_idx])
        period = int(rng.integers(44, 61))          # 98..136 BPM on the grid
        meter = int(rng.choice([3, 4]))
        offset = int(rng.integers(10, period))
        beat_frames = np.arange(offset, frames - 3, period)

        n_sections = 2 if duration_s < 26 else int(rng.choice([2, 3]))
        cuts = np.linspace(0, frames, n_sections + 1)[1:-1]
        downbeat_frames = beat_frames[::meter]
        bounds = [int(downbeat_frames[np.abs(downbeat_frames - c).argmin()])
                  for c in cuts]
        edges = [0] + sorted(set(bounds)) + [frames]
        labels = list(rng.choice(len(_TOY_LABELS), size=len(edges) - 1,
                                 replace=False))

        mag = 0.05 * rng.random((num_stems, frames, bands))
        for s in range(num_stems):
            for j, (lo, hi) in enumerate(zip(edges, edges[1:])):
                mag[s, lo:hi] += _smooth_profile(rng, bands)
        decay = np.array([1.0, 0.6, 0.25])
        low = slice(0, max(bands // 3, 1))
        for i, f in enumerate(beat_frames):
            mag[1, f:f + 3] += 2.5 * decay[:frames - f][:3, None]
            if i % meter == 0:
                mag[0, f:f + 3, low] += 3.5 * decay[:frames - f][:3, None]
        values = np.log1p(mag).astype(np.float32)

        beats = [Beat(time=f / fps, bar_position=(i % meter) + 1)
                 for i, f in enumerate(beat_frames)]
        segments = [Segment(lo / fps, hi / fps, _TOY_LABELS[lab])
                    for (lo, hi), lab in zip(zip(edges, edges[1:]), labels)]
        ann = Annotation(beats=beats, segments=segments,
                         duration=frames / fps)
        ann.validate()
        tracks.append((StemSpectrogram(values=values, fps=fps), ann))
    return tracks


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

class StepStats(NamedTuple):
    """What one :func:`train_step` reports."""

    loss: float
    task_losses: tuple[float, float, float, float]    # weighted terms, TASKS order
    grad_norm: float                    # over every weight, from float64 squares


def train_step(weights: ModelWeights, state: RAdamState, values: np.ndarray,
               targets: TrainingTargets, model_cfg: ModelConfig,
               cfg: TrainConfig, lr: float, rng: np.random.Generator) -> StepStats:
    """One step on one chunk: clear the gradients, forward with dropout
    drawn from ``rng``, loss, backward, RAdam update. It returns the loss,
    its four weighted terms and the global gradient norm. The graph is
    local to this call, so it is freed when the step returns."""
    params = weights.parameters()
    for p in params:
        p.grad = None
    # the rng goes 4th and positional: bench/tracer.py reads args[3] to
    # tell a training forward from a validation one
    logits = forward_logits(values, weights, model_cfg, rng)
    loss, terms = multitask_loss(logits, targets, cfg.loss_weights)
    loss.backward()
    squares = sum(np.square(p.grad, dtype=np.float64).sum() for p in params
                  if p.grad is not None)
    radam_step(params, state, lr, cfg.weight_decay)
    return StepStats(loss.item(), terms, math.sqrt(squares))


def _task_means(terms: list[tuple[float, ...]]) -> dict[str, float]:
    return {task: round(float(np.mean(col)), 6) for task, col in zip(TASKS, zip(*terms))}


def train(model_cfg: ModelConfig, cfg: TrainConfig,
          dataset: list[tuple[StemSpectrogram, Annotation]],
          validation: list[tuple[StemSpectrogram, Annotation]]
          ) -> tuple[ModelWeights, list[dict]]:
    """Seeded training loop; returns averaged weights and the history.

    Each epoch runs one ``train_step`` per shuffled track, on a random
    chunk when the track is longer than the budget, then the validation
    loss, the schedule and snapshot averaging. A non-finite value in a
    step or in validation raises ``TrainingDiverged`` naming the epoch.

    Each history entry holds the epoch, the mean train and validation
    losses, the rate and whether averaging is on; the mean weighted term
    of each task in training and in validation (``train_tasks`` and
    ``val_tasks``, keyed by ``TASKS``); the mean of the steps' global
    gradient norms; and the training frames per wall-second of the
    epoch's steps, the one value a seed does not fix.
    """
    cfg.validate()
    if not dataset:
        raise InputError("empty training set")
    rng = np.random.default_rng(cfg.seed)
    weights = init_weights(model_cfg, cfg.seed)
    state = RAdamState.for_params(weights.parameters())
    swa = SwaAverage()
    swa_start = max(1, math.ceil(cfg.swa_start_frac * cfg.max_epochs))

    fps = model_cfg.fps
    chunk_frames = int(round(cfg.chunk_seconds * fps))
    full_targets, val_targets = (
        [build_targets(ann, fps, spec.num_frames, model_cfg.label_vocab)
         for spec, ann in tracks] for tracks in (dataset, validation))

    lr = cfg.lr
    best_val = math.inf
    epochs_since_best = 0
    history: list[dict] = []

    for epoch in range(1, cfg.max_epochs + 1):
        swa_active = epoch >= swa_start
        if epoch == swa_start:
            lr = cfg.swa_lr
        order = rng.permutation(len(dataset))
        steps, frames = [], 0
        started = time.perf_counter()
        try:
            # a non-finite value raises NumericError; numpy's overflow
            # warning on the way there would only repeat it
            with np.errstate(over="ignore", invalid="ignore"):
                for idx in order:
                    spec, _ = dataset[idx]
                    targets = full_targets[idx]
                    values = spec.values
                    if spec.num_frames > chunk_frames:
                        start = int(rng.integers(0, spec.num_frames - chunk_frames + 1))
                        values = values[:, start:start + chunk_frames]
                        targets = targets.slice(start, start + chunk_frames)
                    steps.append(train_step(weights, state, values, targets,
                                            model_cfg, cfg, lr, rng))
                    frames += values.shape[1]
                step_s = time.perf_counter() - started
                with tz.no_grad():
                    val = [multitask_loss(forward_logits(spec.values, weights, model_cfg),
                                          tgt, cfg.loss_weights)
                           for (spec, _), tgt in zip(validation, val_targets)]
        except tz.NumericError as exc:
            raise TrainingDiverged(
                f"non-finite values at epoch {epoch}: {exc}") from exc
        train_losses = [step.loss for step in steps]
        val_loss = float(np.mean([loss.item() for loss, _ in val] or train_losses))

        if val_loss < best_val - 1e-9:
            best_val = val_loss
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best % PLATEAU_EPOCHS == 0:
                lr *= DECAY_FACTOR
        if swa_active:
            swa.update(weights)
        train_tasks = _task_means([step.task_losses for step in steps])
        history.append({"epoch": epoch,
                        "train_loss": round(float(np.mean(train_losses)), 6),
                        "val_loss": round(val_loss, 6),
                        "lr": lr, "swa_active": swa_active,
                        "train_tasks": train_tasks,
                        "val_tasks": _task_means([terms for _, terms in val]) if val
                        else train_tasks,
                        "grad_norm": float(np.mean([step.grad_norm for step in steps])),
                        "frames_per_s": frames / step_s})
        if epochs_since_best >= PATIENCE_EPOCHS:
            break

    final = swa.weights(weights) if swa.count else weights
    return final, history
