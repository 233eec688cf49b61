"""Spans around the program's public functions, recorded from outside.

``instrument(tracer)`` swaps module attributes such as
``aio1.model.na1d`` and ``aio1.tensor.Tensor.backward`` for wrappers that
open a span, call the original and close the span; leaving the block
restores the originals. Spans keep a name, start, end, parent and the
tracemalloc figures of their interval, and stay in memory until the run
ends. ``layer_metrics`` turns them into self times (a span's duration
minus the time its children cover), peaks and counts.

Every ``*_s`` metric is a self time, so together with ``trace.other_s``
(time outside every span) they add up to the traced wall time:

* ``heads_s`` is ``model_forward`` outside the front end and blocks;
  ``frontend.self_s`` and ``block<l>.mlp_s`` are those calls outside the
  convolutions, pools and attention calls inside them.
* ``decode.self_s`` is ``analyze_activations`` outside its three decoders.
* ``train.loop_s`` is ``train()`` outside the spans below it;
  ``train.forward_s`` is a training ``forward_logits`` outside the front
  end and blocks, which count under their own names. ``train.val_s`` is
  the whole validation pass: its callees are not split out, so the front
  end and block metrics of ``train_default`` cover graph-recording
  forwards only.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

import aio1.frontend as frontend
import aio1.metrics as metrics
import aio1.model as model
import aio1.postproc as postproc
import aio1.tensor as tensor
import aio1.training as training

MB = 1024.0 * 1024.0


@dataclass
class Span:
    name: str
    parent: int                     # index into Tracer.spans, -1 at top level
    start: float = 0.0
    end: float = 0.0
    mem_start: int = 0
    mem_end: int = 0
    mem_peak: int = 0
    children_s: float = 0.0
    child_calls: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """A stack of open spans plus every closed one, in order of opening."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.opaque = 0             # > 0 inside a span whose callees are not split out
        self.counts: dict[str, float] = {}

    @property
    def current(self) -> Span | None:
        return self.spans[self.stack[-1]] if self.stack else None

    def nth_call(self, kind: str) -> int:
        """1-based index of this ``kind`` of call inside the open span."""
        cur = self.current
        if cur is None:
            return 1
        cur.child_calls[kind] = cur.child_calls.get(kind, 0) + 1
        return cur.child_calls[kind]

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def span(self, name: str, opaque: bool = False):
        # tracemalloc triples the cost of allocation-heavy Python loops such
        # as the DBN, so it runs only inside the spans that report memory
        own_tracing = is_memory_span(name) and not tracemalloc.is_tracing()
        if own_tracing:
            tracemalloc.start()
        cur, peak = tracemalloc.get_traced_memory()
        for i in self.stack:
            self.spans[i].mem_peak = max(self.spans[i].mem_peak, peak)
        tracemalloc.reset_peak()
        sp = Span(name, self.stack[-1] if self.stack else -1,
                  mem_start=cur, mem_peak=cur)
        self.spans.append(sp)
        self.stack.append(len(self.spans) - 1)
        self.opaque += opaque
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self.opaque -= opaque
            self.stack.pop()
            sp.mem_end, peak = tracemalloc.get_traced_memory()
            sp.mem_peak = max(sp.mem_peak, peak)
            for i in self.stack:
                self.spans[i].mem_peak = max(self.spans[i].mem_peak, peak)
            if sp.parent >= 0:
                self.spans[sp.parent].children_s += sp.duration
            if own_tracing:
                tracemalloc.stop()

    def top_level_s(self) -> float:
        return sum(s.duration for s in self.spans if s.parent < 0)

    def dump(self) -> list[dict]:
        return [{"name": s.name, "parent": s.parent, "start": s.start,
                 "end": s.end, "self_s": s.self_s,
                 "mem_start": s.mem_start, "mem_end": s.mem_end,
                 "mem_peak": s.mem_peak} for s in self.spans]


def _is_block(name: str) -> bool:
    return name.startswith("block") and name.endswith(".mlp")


def is_memory_span(name: str) -> bool:
    return name in ("frontend.self", "train.loop") or _is_block(name)


def _wrap(tracer: Tracer, fn, name_of):
    """Wrapper that runs ``fn`` inside the span ``name_of(args, kwargs)``.

    ``name_of`` returns ``(name, opaque)``; inside an opaque span the
    wrappers call straight through, so its callees count as its self time.
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.opaque:
            return fn(*args, **kwargs)
        name, opaque = name_of(args, kwargs)
        with tracer.span(name, opaque):
            return fn(*args, **kwargs)
    return wrapper


def _fixed(name: str):
    return lambda args, kwargs: (name, False)


def _conv(tracer: Tracer):
    return lambda args, kwargs: (f"frontend.conv{tracer.nth_call('conv')}", False)


def _block(args, kwargs):
    return f"block{kwargs.get('l', args[2] if len(args) > 2 else '?')}.mlp", False


def _block_attention(tracer: Tracer, kind: str):
    def name_of(args, kwargs):
        tracer.count(f"calls.{kind}")
        cur = tracer.current
        block = cur.name.split(".")[0] if cur is not None else "block?"
        if kind == "na2d":
            return f"{block}.inst", False
        return f"{block}.dina{tracer.nth_call('na1d')}", False
    return name_of


def _dbn(tracer: Tracer):
    def name_of(args, kwargs):
        beat = args[0]
        fps = kwargs.get("fps", args[2] if len(args) > 2 else None)
        cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
        tracer.count("decode.dbn_state_frames",
                     dbn_states(cfg or postproc.DbnConfig(), fps) * len(beat))
        return "decode.dbn", False
    return name_of


def dbn_states(cfg, fps: float) -> int:
    """Bar-pointer states summed over the bar lengths ``cfg`` decodes:
    one state per (bar position, tempo in frames per beat, phase)."""
    lo = math.ceil(fps * 60.0 / cfg.max_bpm)
    hi = math.floor(fps * 60.0 / cfg.min_bpm)
    per_bar = sum(range(lo, hi + 1))
    return sum(b * per_bar for b in cfg.beats_per_bar)


def _train_forward(tracer: Tracer, last: dict):
    def name_of(args, kwargs):
        training = kwargs.get("training", args[3] if len(args) > 3 else False)
        last["training"] = bool(training)
        return ("train.forward", False) if training else ("train.val", True)
    return name_of


def _train_loss(last: dict):
    def name_of(args, kwargs):
        return ("train.loss", False) if last.get("training") else ("train.val", True)
    return name_of


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the layer entry points for the duration of the block."""
    last_forward: dict = {}
    targets = [
        (frontend, "compute_logspec", _fixed("spec.logspec")),
        (model, "model_forward", _fixed("heads")),
        (model, "frontend_forward", _fixed("frontend.self")),
        (tensor, "conv2d", _conv(tracer)),
        (tensor, "maxpool", _fixed("frontend.pool")),
        (model, "transformer_module_forward", _block),
        (model, "na1d", _block_attention(tracer, "na1d")),
        (model, "na2d", _block_attention(tracer, "na2d")),
        (postproc, "analyze_activations", _fixed("decode.self")),
        (postproc, "dbn_decode", _dbn(tracer)),
        (postproc, "pick_boundaries", _fixed("decode.boundaries")),
        (postproc, "label_segments", _fixed("decode.labels")),
        (metrics, "evaluate_track", _fixed("eval.track")),
        (training, "train", _fixed("train.loop")),
        (training, "forward_logits", _train_forward(tracer, last_forward)),
        (training, "multitask_loss", _train_loss(last_forward)),
        (training, "radam_step", _fixed("train.optim")),
        (training.SwaAverage, "update", _fixed("train.swa")),
        (training.SwaAverage, "weights", _fixed("train.swa")),
        (tensor.Tensor, "backward", _fixed("train.backward")),
    ]
    saved = []
    for owner, attr, name_of in targets:
        if not hasattr(owner, attr):
            print(f"trace: {owner.__name__}.{attr} not found; its span is "
                  "missing and its time counts as trace.other_s", file=sys.stderr)
            continue
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, _wrap(tracer, orig, name_of))
    try:
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer self times (s), peaks (MB) and counts from closed spans.

    Every span name maps to one ``<name>_s`` metric, so the self times
    plus ``trace.other_s`` add up to ``wall_s``.
    """
    out: dict[str, float] = {}
    for s in tracer.spans:
        key = s.name + "_s"
        out[key] = out.get(key, 0.0) + s.self_s

    def peak(match):
        return max((s.mem_peak - s.mem_start for s in tracer.spans
                    if match(s.name)), default=0) / MB

    out["frontend.peak_mb"] = peak(lambda n: n == "frontend.self")
    out["blocks.peak_mb"] = peak(_is_block)
    out["train.peak_mb"] = peak(lambda n: n == "train.loop")
    out["train.graph_mb"] = max((s.mem_end - s.mem_start for s in tracer.spans
                                 if s.name == "train.forward"), default=0) / MB
    out.update(tracer.counts)
    out["trace.other_s"] = wall_s - tracer.top_level_s()
    out["trace.wall_s"] = wall_s
    return out
