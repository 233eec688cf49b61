"""Seeded inputs, the timed operation and its checks for each workload.

Every workload is a closed loop in one process: the next operation (one
track, or one ``train()`` call) starts only when the previous one has
returned. Item ``i`` of a run is built from ``(seed, i)`` alone, so the
same seed always gives the same inputs; only the timed call touches the
program, and the checks run outside the timed region.

* ``analyze_default``: four-stem 44.1 kHz audio with planted beats,
  downbeats and sections, run through ``stems_from_audio`` ->
  ``model_forward`` (default preset) -> ``analyze_activations`` ->
  ``evaluate_track``. The network does about three quarters of the work,
  so the spectrogram, front-end, block and head metrics move here.
* ``decode_long``: 2-10 minute activation tracks built from planted
  annotations (60-200 BPM, meters 3 and 4, labelled sections, noise,
  missing and extra peaks), run through ``analyze_activations`` ->
  ``evaluate_track`` with no model. The bar-pointer DBN does nearly all
  the work; the network and tensor layers stay idle.
* ``train_default``: ``train()`` on the default preset with seeded
  ``make_toy_dataset`` tracks a little longer than the chunk, plus one
  validation track, for two epochs so the second runs in the weight-
  averaging phase. Same front end, attention and blocks as
  ``analyze_default``, but with a recorded graph and a backward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

import aio1.attention as attention
import aio1.frontend as frontend
import aio1.metrics as metrics
import aio1.model as model
import aio1.postproc as postproc
import aio1.tensor as tz
import aio1.training as training

SAMPLE_RATE = 44100
FPS = 100.0
# Track lengths do not depend on the seed, which draws only the content of
# item i from (seed, i); so the working set, and with it peak RSS, is the
# same from seed to seed. Analysis costs a little more per audio-second on
# longer tracks, so all analyze_default tracks share one length, and the
# rate cannot shift with the mix of lengths. The decoder's cost per frame
# does not depend on the length, so decode_long cycles through several,
# longest first so that its peak RSS does not depend on how many tracks a
# run gets through, and short ones last so that a run overshoots its
# seconds by little.
ANALYZE_SECONDS = (20.0,)
DECODE_SECONDS = (600.0, 240.0, 120.0, 180.0, 120.0, 180.0)
TRAIN_CHUNK_S = 7.0          # about half of 8 GB at the peak of train()
TRAIN_TRACK_S = 10.0         # make_toy_dataset's shortest track
TRAIN_EPOCHS = 2
TRAIN_SWA_FRAC = 0.75        # weight averaging starts in epoch 2

SMOKE_ANALYZE_SECONDS = (4.0, 3.0)
SMOKE_DECODE_SECONDS = (20.0, 12.0)
SMOKE_TRAIN_CHUNK_S = 2.0

# float32 inference must agree with a float64 forward on the same weights
F64_ATOL = 1e-4
# item of analyze_default whose activations are checked against float64
F64_ITEM = 1

# Floors on decode_long beat tracking. The activations carry the planted
# beats, so a working decoder clears them by a wide margin. Boundary and
# label scores get no floor: pick_boundaries has no threshold, so on noisy
# activations their level reflects the picker's design, not a fault.
DECODE_FLOORS = {"beat_f1": 0.7, "downbeat_f1": 0.5}
QUALITY_KEYS = ("beat_f1", "downbeat_f1", "segment_hr05", "label_pwf")

SECTION_LABELS = ("intro", "verse", "chorus", "bridge", "inst", "outro")


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Workload:
    name: str
    # A run does at least this many items; the traced pass replays them.
    # train_default's first train() call in a process is about 30% slower
    # than later ones, so its rate would jump with the number of calls a
    # run fits in; three calls fill the run's seconds on their own.
    min_items: int
    setup: Callable[[int, bool], Any]            # (seed, smoke) -> context
    make_item: Callable[[Any, int], Any]         # untimed
    run_item: Callable[[Any, Any], Any]          # timed: the program's work
    check_item: Callable[[Any, Any, Any], dict]  # -> {"audio_s": .., scores}
    final_check: Callable[[Any], dict] | None = None     # after the loop


def _model_config(smoke: bool):
    if smoke:
        return replace(model.tiny_config(), num_stems=4, bands=81)
    return model.default_config()


def _warm_window_tables(cfg, weights, frame_counts) -> None:
    """Fill the attention window cache for every track length and
    dilation the timed loop will see, through the public ``na1d``."""
    w = weights.blocks[0].dina1
    dilations = sorted({d for l in range(cfg.num_blocks)
                        for d in cfg.block_dilations(l)})
    with tz.no_grad():
        for t in sorted(set(frame_counts)):
            x = tz.Tensor(np.zeros((1, t, cfg.embed_dim),
                                   dtype=weights.final_norm_g.data.dtype))
            for d in dilations:
                attention.na1d(x, w, attention.AttentionConfig(
                    cfg.kernel_size, d, cfg.num_heads))


def _frames(seconds: float) -> int:
    return -(-int(round(seconds * SAMPLE_RATE)) // int(SAMPLE_RATE / FPS))


# ---------------------------------------------------------------------------
# planted annotations
# ---------------------------------------------------------------------------

def _plant(rng, duration: float, bpm_range, section_s):
    """Beat grid, meter and labelled sections for one track."""
    bpm = rng.uniform(*bpm_range)
    period = 60.0 / bpm
    meter = int(rng.choice([3, 4]))
    offset = rng.uniform(0.1, 0.1 + period)
    times = np.arange(offset, duration - 0.2, period)
    times = times + rng.normal(0.0, 0.004, times.size)
    downs = times[::meter]
    n_sections = max(2, int(round(duration / rng.uniform(*section_s))))
    cuts = np.linspace(0.0, duration, n_sections + 1)[1:-1]
    cuts = cuts + rng.uniform(-0.2, 0.2, cuts.size) * duration / n_sections
    starts = sorted({float(downs[np.abs(downs - c).argmin()]) for c in cuts})
    starts = [s for s in starts if 1.5 < s < duration - 1.5]
    edges = [0.0] + starts + [duration]
    labels, prev = [], None
    for _ in range(len(edges) - 1):
        choices = [l for l in SECTION_LABELS if l != prev]
        prev = choices[int(rng.integers(len(choices)))]
        labels.append(prev)
    beats = [metrics.Beat(time=float(t), bar_position=i % meter + 1)
             for i, t in enumerate(times)]
    segments = [postproc.Segment(a, b, lab)
                for a, b, lab in zip(edges, edges[1:], labels)]
    ann = metrics.Annotation(beats=beats, segments=segments, duration=duration)
    ann.validate()
    return ann


# ---------------------------------------------------------------------------
# analyze_default: synthetic stem audio
# ---------------------------------------------------------------------------

def _stem_audio(seed: int, index: int, seconds: float):
    """Four mono stems: drums on the beats (accented on downbeats), and a
    bass note, a chord and, in alternate sections, a vocal line per section."""
    rng = np.random.default_rng([seed, index, 1])
    n = int(round(seconds * SAMPLE_RATE))
    duration = _frames(seconds) / FPS
    ann = _plant(rng, duration, (70.0, 180.0), (8.0, 20.0))
    t = np.arange(n) / SAMPLE_RATE
    drums = 0.01 * rng.standard_normal(n)
    burst = np.exp(-np.arange(int(0.08 * SAMPLE_RATE)) / (0.02 * SAMPLE_RATE))
    for b in ann.beats:
        i = int(b.time * SAMPLE_RATE)
        seg = burst[:max(n - i, 0)] * (1.0 if b.bar_position == 1 else 0.5)
        drums[i:i + seg.size] += seg * rng.standard_normal(seg.size)
    bass = np.zeros(n)
    other = np.zeros(n)
    vocals = np.zeros(n)
    for j, s in enumerate(ann.segments):
        lo, hi = int(s.start * SAMPLE_RATE), int(s.end * SAMPLE_RATE)
        ts = t[lo:hi]
        root = 55.0 * 2 ** (rng.integers(0, 12) / 12)
        bass[lo:hi] = 0.4 * np.sin(2 * np.pi * root * ts)
        for ratio in (4.0, 5.04, 6.0):
            other[lo:hi] += 0.1 * np.sin(2 * np.pi * root * ratio * ts)
        if j % 2:
            f0 = root * 8 * (1 + 0.01 * np.sin(2 * np.pi * 5.0 * ts))
            vocals[lo:hi] = 0.2 * np.sin(2 * np.pi * np.cumsum(f0) / SAMPLE_RATE)
    noise = 0.005 * rng.standard_normal((3, n))
    stems = {"bass": bass + noise[0], "drums": drums,
             "other": other + noise[1], "vocals": vocals + noise[2]}
    return {k: v.astype(np.float32) for k, v in stems.items()}, ann


def _analyze_setup(seed: int, smoke: bool):
    cfg = _model_config(smoke)
    weights = model.init_weights(cfg, seed)
    frontend.compute_logspec(np.zeros(SAMPLE_RATE // 10, dtype=np.float32))
    ladder = SMOKE_ANALYZE_SECONDS if smoke else ANALYZE_SECONDS
    _warm_window_tables(cfg, weights, [_frames(s) for s in ladder])
    return {"cfg": cfg, "weights": weights, "seed": seed,
            "ladder": ladder, "kept": {}}


def _analyze_item(ctx, i):
    seconds = ctx["ladder"][i % len(ctx["ladder"])]
    waves, ann = _stem_audio(ctx["seed"], i, seconds)
    return {"index": i, "waves": waves, "ann": ann, "audio_s": ann.duration}


def _analyze_run(ctx, item):
    cfg = ctx["cfg"]
    spec = frontend.stems_from_audio(item["waves"])
    acts = model.model_forward(spec, ctx["weights"], cfg)
    result = postproc.analyze_activations(acts, vocab=cfg.label_vocab)
    report = metrics.evaluate_track(result, item["ann"])
    return spec, acts, result, report


def _check_result(result, ann) -> None:
    if abs(result.duration - ann.duration) > 1e-6:
        raise CheckFailed(f"result covers {result.duration} s of {ann.duration} s")
    if result.beats.size and not 0 <= result.beats[0] <= result.beats[-1] <= result.duration:
        raise CheckFailed("beats outside the track")
    if not result.segments:
        raise CheckFailed("no segments")


def _analyze_check(ctx, item, out):
    spec, acts, result, report = out
    if acts.num_frames != spec.num_frames:
        raise CheckFailed(f"{acts.num_frames} activation frames for "
                          f"{spec.num_frames} spectrogram frames")
    _check_result(result, item["ann"])
    if item["index"] == F64_ITEM:
        ctx["kept"] = {"spec": spec, "acts": acts}
    return {"audio_s": item["audio_s"], **{k: getattr(report, k) for k in QUALITY_KEYS}}


def _analyze_final(ctx):
    """The float32 activations of one track against a float64 forward on
    the same weights."""
    spec, acts = ctx["kept"]["spec"], ctx["kept"]["acts"]
    w64 = model.init_weights(ctx["cfg"], ctx["seed"], dtype=np.float64)
    for (_, src), (_, dst) in zip(ctx["weights"].named_tensors(), w64.named_tensors()):
        dst.data[...] = src.data
    ref = model.model_forward(spec, w64, ctx["cfg"])
    diff = max(float(np.abs(getattr(acts, k).astype(np.float64)
                            - getattr(ref, k)).max())
               for k in ("beat", "downbeat", "boundary", "labels"))
    if not diff <= F64_ATOL:
        raise CheckFailed(f"float32 activations differ from float64 by {diff:.3g} "
                          f"(allowed {F64_ATOL})")
    return {"f64_max_abs_diff": diff}


# ---------------------------------------------------------------------------
# decode_long: activations built from planted annotations
# ---------------------------------------------------------------------------

def _peaks(frames: int, times, heights, width: float):
    """Gaussian bumps of the given heights and width (frames) at ``times``."""
    out = np.zeros(frames)
    span = int(math.ceil(3 * width))
    offs = np.arange(-span, span + 1)
    shape = np.exp(-0.5 * (offs / width) ** 2)
    for t, h in zip(times, heights):
        c = int(round(t * FPS))
        idx = c + offs
        ok = (idx >= 0) & (idx < frames)
        out[idx[ok]] = np.maximum(out[idx[ok]], h * shape[ok])
    return out


def _planted_activations(seed: int, index: int, seconds: float):
    """Beat, downbeat, boundary and label activations that carry the
    planted answer, with noise, missing peaks and extra peaks."""
    rng = np.random.default_rng([seed, index, 2])
    frames = int(round(seconds * FPS))
    duration = frames / FPS
    ann = _plant(rng, duration, (60.0, 200.0), (15.0, 30.0))
    beats = ann.beat_times()
    downs = ann.downbeat_times()

    def events(times, miss, extra, lo, hi):
        keep = times[rng.random(times.size) >= miss]
        spurious = rng.uniform(0, duration, int(extra * times.size))
        t = np.concatenate([keep, spurious])
        h = np.concatenate([rng.uniform(lo, hi, keep.size),
                            rng.uniform(0.2, 0.5, spurious.size)])
        return t, h

    bt, bh = events(beats, 0.05, 0.05, 0.5, 0.9)
    beat = 0.05 * rng.random(frames) + _peaks(frames, bt, bh, 1.0)
    dt, dh = events(downs, 0.1, 0.05, 0.4, 0.8)
    down = 0.03 * rng.random(frames) + _peaks(frames, dt, dh, 1.0)
    beat = np.clip(beat - down, 0.0, 1.0)        # downbeats claim their frames
    starts = np.array([s.start for s in ann.segments[1:]])
    st, sh = events(starts, 0.1, 0.3, 0.6, 1.0)
    boundary = np.clip(0.1 * rng.random(frames)
                       + _peaks(frames, st, sh, 30.0), 0.0, 1.0)

    vocab = model.DEFAULT_VOCAB
    logits = rng.normal(0.0, 1.0, (frames, len(vocab)))
    for s in ann.segments:
        lo, hi = int(round(s.start * FPS)), int(round(s.end * FPS))
        logits[lo:hi, vocab.index(s.label)] += 2.0
    labels = np.exp(logits - logits.max(axis=1, keepdims=True))
    labels /= labels.sum(axis=1, keepdims=True)
    acts = model.FrameActivations(
        beat=beat.astype(np.float32), downbeat=down.astype(np.float32),
        boundary=boundary.astype(np.float32), labels=labels.astype(np.float32),
        fps=FPS)
    return acts, ann


def _decode_setup(seed: int, smoke: bool):
    # first-call work of the decode path, on two seconds of flat activations
    flat = np.full(200, 0.1, dtype=np.float32)
    labels = np.full((200, len(model.DEFAULT_VOCAB)),
                     1.0 / len(model.DEFAULT_VOCAB), dtype=np.float32)
    postproc.analyze_activations(model.FrameActivations(
        beat=flat, downbeat=flat, boundary=flat, labels=labels, fps=FPS))
    return {"seed": seed, "ladder": SMOKE_DECODE_SECONDS if smoke else DECODE_SECONDS}


def _decode_item(ctx, i):
    seconds = ctx["ladder"][i % len(ctx["ladder"])]
    acts, ann = _planted_activations(ctx["seed"], i, seconds)
    return {"index": i, "acts": acts, "ann": ann, "audio_s": ann.duration}


def _decode_run(ctx, item):
    result = postproc.analyze_activations(item["acts"])
    return result, metrics.evaluate_track(result, item["ann"])


def _decode_check(ctx, item, out):
    result, report = out
    _check_result(result, item["ann"])
    scores = {k: getattr(report, k) for k in QUALITY_KEYS}
    low = {k: scores[k] for k, floor in DECODE_FLOORS.items() if not scores[k] >= floor}
    if low:
        raise CheckFailed(f"track {item['index']}: scores below their floors: {low}")
    return {"audio_s": item["audio_s"], **scores}


# ---------------------------------------------------------------------------
# train_default: train() on make_toy_dataset tracks
# ---------------------------------------------------------------------------

def _train_setup(seed: int, smoke: bool):
    cfg = _model_config(smoke)
    weights = model.init_weights(cfg, seed)
    chunk = SMOKE_TRAIN_CHUNK_S if smoke else TRAIN_CHUNK_S
    _warm_window_tables(cfg, weights, [int(round(chunk * cfg.fps)),
                                       int(round(TRAIN_TRACK_S * cfg.fps))])
    return {"cfg": cfg, "seed": seed, "chunk": chunk}


def _train_item(ctx, i):
    if "train" not in ctx:
        cfg = ctx["cfg"]
        tracks = training.make_toy_dataset(
            ctx["seed"], 2, TRAIN_TRACK_S, fps=cfg.fps, bands=cfg.bands,
            num_stems=cfg.num_stems, vocab=cfg.label_vocab)
        ctx["train"], ctx["val"] = tracks[:1], tracks[1:]
    tcfg = training.TrainConfig(
        chunk_seconds=ctx["chunk"], max_epochs=TRAIN_EPOCHS,
        swa_start_frac=TRAIN_SWA_FRAC, seed=ctx["seed"] * 1000 + i)
    chunk_frames = int(round(tcfg.chunk_seconds * ctx["cfg"].fps))
    frames = sum(min(spec.num_frames, chunk_frames) for spec, _ in ctx["train"])
    return {"index": i, "tcfg": tcfg,
            "audio_s": TRAIN_EPOCHS * frames / ctx["cfg"].fps}


def _train_run(ctx, item):
    return training.train(ctx["cfg"], item["tcfg"], ctx["train"], ctx["val"])


def _train_check(ctx, item, out):
    weights, history = out
    if len(history) != TRAIN_EPOCHS:
        raise CheckFailed(f"{len(history)} epochs of {TRAIN_EPOCHS}")
    if not history[-1]["swa_active"]:
        raise CheckFailed("training never reached weight averaging")
    losses = [h[k] for h in history for k in ("train_loss", "val_loss")]
    if not all(math.isfinite(v) for v in losses):
        raise CheckFailed(f"non-finite loss in {history}")
    if not all(np.isfinite(t.data).all() for _, t in weights.named_tensors()):
        raise CheckFailed("non-finite averaged weights")
    return {"audio_s": item["audio_s"], "val_loss": history[-1]["val_loss"]}


WORKLOADS = {w.name: w for w in (
    Workload("analyze_default", 2, _analyze_setup, _analyze_item, _analyze_run, _analyze_check,
             _analyze_final),
    Workload("decode_long", 2, _decode_setup, _decode_item, _decode_run, _decode_check),
    Workload("train_default", 3, _train_setup, _train_item, _train_run, _train_check),
)}
