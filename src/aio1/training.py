"""Multi-task training at desk scale.

Targets are soft per-frame values: event frames get weight one, their
neighbors a reduced weight (beats/downbeats) or a triangular ramp
(boundaries), and every frame also carries a section-label class index.
The loss is binary cross-entropy with logits for the three event tasks
plus categorical cross-entropy for labels, each averaged over frames
and summed with per-task weights.

Optimization is rectified Adam with decoupled weight decay; a running
average of weight snapshots (kept in float64 sums so the average is the
exact arithmetic mean) starts after a warm fraction of the epoch budget
and becomes the returned model. The learning rate decays on validation
plateaus and switches to the averaging-phase rate when snapshot
collection starts. Every random choice (shuffling, chunk offsets,
dropout) is drawn from one seeded generator, so runs are reproducible
bit for bit.

A synthetic-track generator stands in for real data: each track plants
a tempo grid with accented bar starts and a few timbre sections whose
band profiles change at the section boundaries, and the matching
annotation is emitted alongside the spectrogram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tz
from .errors import ConfigError, InputError, TrainingDiverged
from .frontend import StemSpectrogram
from .metrics import Annotation, Beat
from .model import (DEFAULT_VOCAB, ModelConfig, ModelWeights, forward_logits,
                    init_weights)
from .postproc import Segment
from .tensor import Tensor


@dataclass
class TrainConfig:
    lr: float = 0.005
    swa_lr: float = 0.15
    decay_factor: float = 0.3
    weight_decay: float = 0.00025
    patience_epochs: int = 30
    plateau_epochs: int = 5
    chunk_seconds: float = 300.0
    max_epochs: int = 100
    swa_start_frac: float = 0.25
    widen_frames: int = 2
    widen_weight: float = 0.5
    boundary_ramp_seconds: float = 0.5
    loss_weights: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    seed: int = 0

    def validate(self) -> None:
        if min(self.lr, self.swa_lr, self.decay_factor, self.weight_decay) <= 0:
            raise ConfigError("rates must be positive")
        if self.patience_epochs < 1 or self.max_epochs < 1:
            raise ConfigError("patience and max_epochs must be >= 1")


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
                  cfg: TrainConfig, vocab: tuple[str, ...] = DEFAULT_VOCAB
                  ) -> TrainingTargets:
    """Soft per-frame targets from an annotation."""
    beat = np.zeros(frames, dtype=np.float32)
    downbeat = np.zeros(frames, dtype=np.float32)
    boundary = np.zeros(frames, dtype=np.float32)

    def place(target, time_s):
        f = int(round(time_s * fps))
        if not 0 <= f < frames:
            raise InputError(f"event at {time_s:.3f}s outside the track")
        for off in range(-cfg.widen_frames, cfg.widen_frames + 1):
            j = f + off
            if 0 <= j < frames:
                w = 1.0 if off == 0 else cfg.widen_weight
                target[j] = max(target[j], w)

    for b in ann.beats:
        place(beat, b.time)
        if b.bar_position == 1:
            place(downbeat, b.time)

    ramp = max(int(round(cfg.boundary_ramp_seconds * fps)), 1)
    for seg in ann.segments[1:]:
        f = int(round(seg.start * fps))
        if not 0 <= f < frames:
            raise InputError(f"boundary at {seg.start:.3f}s outside the track")
        lo = max(f - ramp, 0)
        hi = min(f + ramp + 1, frames)
        offs = np.abs(np.arange(lo, hi) - f)
        boundary[lo:hi] = np.maximum(boundary[lo:hi], 1.0 - offs / ramp)

    index = {lab: i for i, lab in enumerate(vocab)}
    labels = np.zeros(frames, dtype=np.int64)
    for seg in ann.segments:
        if seg.label not in index:
            raise InputError(f"label {seg.label!r} not in the vocabulary")
        lo = int(round(seg.start * fps))
        hi = frames if seg is ann.segments[-1] else int(round(seg.end * fps))
        labels[lo:hi] = index[seg.label]

    return TrainingTargets(beat=beat, downbeat=downbeat, boundary=boundary,
                           labels=labels)


def multitask_loss(logits: dict[str, Tensor], targets: TrainingTargets,
                   weights: tuple[float, float, float, float] = (1.0,) * 4
                   ) -> Tensor:
    """Mean BCE over frames per event task plus label cross-entropy."""
    total = None
    for w, (name, target) in zip(weights[:3], (("beat", targets.beat),
                                               ("downbeat", targets.downbeat),
                                               ("boundary", targets.boundary))):
        term = tz.tmean(tz.bce_with_logits(logits[name], target)) * w
        total = term if total is None else total + term

    lsm = tz.log_softmax(logits["labels"], axis=-1)
    t = lsm.shape[0]
    flat_idx = np.arange(t) * lsm.shape[1] + targets.labels
    picked = tz.take(lsm.reshape(-1), flat_idx, axis=0)
    total = total + tz.tmean(picked * -1.0) * weights[3]
    return total


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
        p.data = (p.data - update).astype(p.data.dtype)


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
            self.sums = [np.asarray(d, dtype=np.float64).copy() for d in tensors]
        else:
            for acc, d in zip(self.sums, tensors):
                acc += d
        self.count += 1

    def mean_arrays(self) -> list[np.ndarray]:
        if not self.count:
            raise InputError("no snapshots collected")
        return [s / self.count for s in self.sums]

    def weights(self, like: ModelWeights) -> ModelWeights:
        out = like.copy()
        for (_, t), mean in zip(out.named_tensors(), self.mean_arrays()):
            t.data[:] = mean.astype(t.data.dtype)
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
                     fps: float = 100.0, bands: int = 27, num_stems: int = 4,
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

def train(model_cfg: ModelConfig, cfg: TrainConfig,
          dataset: list[tuple[StemSpectrogram, Annotation]],
          validation: list[tuple[StemSpectrogram, Annotation]]
          ) -> tuple[ModelWeights, list[dict]]:
    """Seeded training loop; returns averaged weights and the history.

    Epoch structure: shuffle, per-track random chunk (when longer than
    the chunk budget), forward/loss/backward/step; then validation loss,
    plateau-driven learning-rate decay, snapshot averaging after the warm
    fraction, and early stopping on stalled validation.
    """
    cfg.validate()
    if not dataset:
        raise InputError("empty training set")
    rng = np.random.default_rng(cfg.seed)
    weights = init_weights(model_cfg, cfg.seed)
    params = weights.parameters()
    state = RAdamState.for_params(params)
    swa = SwaAverage()
    swa_start = max(1, math.ceil(cfg.swa_start_frac * cfg.max_epochs))

    fps = model_cfg.fps
    chunk_frames = int(round(cfg.chunk_seconds * fps))
    full_targets = [build_targets(ann, fps, spec.num_frames, cfg,
                                  model_cfg.label_vocab)
                    for spec, ann in dataset]
    val_targets = [build_targets(ann, fps, spec.num_frames, cfg,
                                 model_cfg.label_vocab)
                   for spec, ann in validation]

    lr = cfg.lr
    best_val = math.inf
    epochs_since_best = 0
    plateau_counter = 0
    history: list[dict] = []

    for epoch in range(1, cfg.max_epochs + 1):
        swa_active = epoch >= swa_start
        if swa_active and epoch == swa_start:
            lr = cfg.swa_lr
        order = rng.permutation(len(dataset))
        train_losses = []
        for idx in order:
            spec, _ = dataset[idx]
            targets = full_targets[idx]
            values = spec.values
            if spec.num_frames > chunk_frames:
                start = int(rng.integers(0, spec.num_frames - chunk_frames + 1))
                values = values[:, start:start + chunk_frames]
                targets = targets.slice(start, start + chunk_frames)
            for p in params:
                p.grad = None
            try:
                logits = forward_logits(values, weights, model_cfg,
                                        training=True, rng=rng)
                loss = multitask_loss(logits, targets, cfg.loss_weights)
                loss.backward()
            except tz.NumericError as exc:
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}: {exc}") from exc
            radam_step(params, state, lr, cfg.weight_decay)
            train_losses.append(loss.item())

        with tz.no_grad():
            val_losses = [
                multitask_loss(forward_logits(spec.values, weights, model_cfg,
                                              training=False),
                               tgt, cfg.loss_weights).item()
                for (spec, _), tgt in zip(validation, val_targets)]
        val_loss = float(np.mean(val_losses)) if val_losses else float(
            np.mean(train_losses))

        if val_loss < best_val - 1e-9:
            best_val = val_loss
            epochs_since_best = 0
            plateau_counter = 0
        else:
            epochs_since_best += 1
            plateau_counter += 1
        if plateau_counter >= cfg.plateau_epochs:
            lr *= cfg.decay_factor
            plateau_counter = 0
        if swa_active:
            swa.update(weights)
        history.append({"epoch": epoch,
                        "train_loss": round(float(np.mean(train_losses)), 6),
                        "val_loss": round(val_loss, 6),
                        "lr": lr, "swa_active": swa_active})
        if epochs_since_best >= cfg.patience_epochs:
            break

    final = swa.weights(weights) if swa.count else weights
    return final, history
