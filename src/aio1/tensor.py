"""Dense tensors with reverse-mode automatic differentiation.

A tensor wraps one numpy array (float32 by default, float64 for
verification paths) plus the bookkeeping needed for backpropagation. A
trainable weight is a leaf tensor with ``requires_grad`` set; its
``grad`` stays None until a backward reaches it. Every operation is a
pure function: inputs are never mutated and identical inputs produce
bit-identical outputs.

Each op records one backward closure that maps its output's gradient to
a tuple of gradients, one per parent in order, with None where a parent
needs none. :meth:`Tensor.backward` alone writes ``grad``: it adopts a
node's first gradient and adds any later one out of place, so no
gradient array is written once handed over and one buffer may go to two
parents. A node's ``grad`` is dropped as soon as its closure has run;
only leaves keep theirs, and a second backward adds to them.

Every op that computes new values raises :class:`NumericError` as soon
as it produces a NaN or Inf, so a diverging computation fails at the op
that broke, not three modules later. The shape-only ops (``reshape``,
``transpose``, ``stitch``, ``concat``) only view or copy values and skip the check;
a non-finite leaf is caught by the first op that computes with it.
:func:`conv_block` leaves its checks to the conv and pool it calls.

A graph node exists only where training differentiates through one: the
skip :func:`residual` (a branch's dropout and add), the shape plumbing,
the mean over the stems (:func:`tmean`), the biased :func:`linear`,
layer normalisation, the GELU, attention over window slots
(:func:`neighborhood_attention`), the MLP's :func:`dropout` and the
fused front-end layer :func:`conv_block`, which runs the ELU; the whole
training loss is one node, ``training.multitask_loss``. :func:`dropout`
and :func:`residual` keep a bool mask from one draw per call, in call
order, which :func:`_dropout_mask` makes from raw PCG64 words;
:func:`conv_block` takes its mask from the caller.
:func:`checkpoint` makes a segment of ops one node that keeps only the
segment's input, its weights and a copy of its generator, and builds the
segment's graph again in the backward; the model runs each transformer
block and each front-end time tile through it, and :func:`stitch` joins
the tiles' own frames.

Four ops are array functions that build no node. :func:`conv_block`
calls two of them: 2-D cross-correlation with a fused bias
(:func:`conv2d`, whose GEMMs run in row tiles and tap groups, never on
a whole im2col matrix) and max pooling (:func:`maxpool`). It runs its
ELU, dropout, pool and the search for each pool window's first maximum
as an epilogue on each of the conv's GEMM tiles, keeps only state of the
pooled output's size, and hands one full-size gradient to
:func:`_conv2d_backward`. Inference applies the other two,
:func:`sigmoid` and :func:`softmax`, to the logits, and the loss's
backward calls :func:`sigmoid`.

Inference may run in a worker region (:func:`workers`): a pool of one
thread per further CPU, plus the calling thread, that lives for one
block and holds OpenBLAS at one thread meanwhile. In it three ops split
independent rows into one part per thread: :func:`conv2d` its GEMM
tiles with their epilogue, :func:`neighborhood_attention` its query
frames, and :func:`rowwise` the stems of a row-wise function such as the
MLP. Each part runs the serial code on its rows and every GEMM keeps the
kernel of its whole product (:func:`_split`), so outputs equal the
serial call's bit for bit. A recorded graph runs every op whole.

The GELU is the exact-erf one. In float64 it uses
``scipy.special.erf``, imported on the first float64 GELU, so importing
the package loads no scipy module; in float32 it evaluates a rational erf
(Abramowitz & Stegun 7.1.26) in cache-sized chunks, within 5e-7 of the
float64 ``x * Phi(x)`` (tested on [-12, 12] and at magnitudes up to
3.4e38). The tests check the gradient of every node, and of the model
built on top, against central finite differences in float64. Weight
containers are dataclasses whose fields declare their names with
:func:`param`, and :func:`named` lists them in one fixed order.
"""

from __future__ import annotations

import contextvars
import copy
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import field, fields
from functools import cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, NumericError, ParameterError

FLOAT_DTYPES = (np.float32, np.float64)

_grad_enabled = True

# an op's backward: output gradient -> one gradient (or None) per parent
Backward = Callable[[np.ndarray], tuple]


@contextmanager
def _grad_mode(enabled: bool):
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = enabled
    try:
        yield
    finally:
        _grad_enabled = prev


def no_grad():
    """Disable graph construction inside the block (inference mode)."""
    return _grad_mode(False)


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"{op} produced non-finite values")


class Tensor:
    """A numpy-backed array node in a reverse-mode autodiff graph.

    ``data`` is held by reference; callers must not mutate arrays they
    hand in (the one sanctioned exception is the in-place perturbation
    done by the finite-difference gradient check in the tests). After a
    backward only leaves hold a ``grad``; an op's output holds None.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is None and arr.dtype not in FLOAT_DTYPES:
            dtype = np.float32
        self.data = arr if dtype is None else arr.astype(dtype, copy=False)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Backward | None = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: Sequence["Tensor"],
                 backward: Backward, op: str | None) -> "Tensor":
        """A node holding ``data``, made by ``op`` from ``parents``.

        Shape-only ops pass ``op=None`` and skip the finite check: they
        only view or copy values that a checked op already made, as does
        :func:`conv_block`, whose pool has checked its output.
        """
        if op is not None:
            _check_finite(data, op)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    # -- basic protocol --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, grad={self.requires_grad})"

    # -- backprop ---------------------------------------------------------------

    def backward(self, gradient: np.ndarray | None = None) -> None:
        """Backpropagate from this node through the recorded graph.

        ``gradient`` (ones for a scalar) is this node's first or next
        gradient; like ``data`` it is held by reference. A gradient, given
        or returned by an op, whose shape differs from its node's raises
        :class:`DimensionError`. Every node's ``grad`` except a leaf's is
        None again on return.
        """
        if not self.requires_grad:
            raise ParameterError("backward() on a tensor that requires no grad")
        if gradient is None:
            if self.size != 1:
                raise ParameterError("backward() without gradient needs a scalar")
            gradient = np.ones_like(self.data)
        # Iterative topological order; graphs are shallow but wide.
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        def receive(node: Tensor, g) -> None:
            # order="C" keeps a 0-d gradient 0-d, unlike ascontiguousarray
            g = np.asarray(g, dtype=node.data.dtype, order="C")
            if g.shape != node.data.shape:
                raise DimensionError(f"backward: gradient of shape {g.shape} "
                                     f"for a node of shape {node.data.shape}")
            node.grad = g if node.grad is None else node.grad + g

        receive(self, gradient)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            g, node.grad = node.grad, None
            for p, pg in zip(node._parents, node._backward(g)):
                if pg is not None and p.requires_grad:
                    receive(p, pg)

    # -- operator sugar ----------------------------------------------------------

    def reshape(self, *shape):
        return reshape(self, *shape)

    def transpose(self, *axes):
        return transpose(self, axes if axes else None)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis, keepdims)


def param(name: str):
    """A dataclass field that holds a weight (or nested weights, or a list
    of them) saved under ``name``."""
    return field(metadata={"param": name})


def named(weights, prefix: str) -> Iterator[tuple[str, Tensor]]:
    """``(name, tensor)`` for every :func:`param` field of the dataclass
    ``weights``, in declaration order.

    A name is ``prefix.name``. ``None`` fields are skipped, nested weights
    recurse under their own name, and list items are numbered after it
    (``block0``, ``block1``, ...).
    """
    for f in fields(weights):
        value = getattr(weights, f.name)
        if "param" not in f.metadata or value is None:
            continue
        name = f"{prefix}.{f.metadata['param']}" if prefix else f.metadata["param"]
        if isinstance(value, Tensor):
            yield name, value
        elif isinstance(value, list):
            for i, item in enumerate(value):
                yield from named(item, f"{name}{i}")
        else:
            yield from named(value, name)


def check_unique_names(names: Iterable[str]) -> None:
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ParameterError(f"duplicate parameter name {name!r}")
        seen.add(name)


def fan_in_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int,
                   dtype=np.float32) -> Tensor:
    """Weights drawn uniformly from ``±1/sqrt(fan_in)``."""
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, shape).astype(dtype))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _require_same_dtype(a: Tensor | np.ndarray, b: Tensor | np.ndarray, op: str) -> None:
    if a.dtype != b.dtype:
        raise DimensionError(f"{op}: mixed dtypes {a.dtype.name} vs {b.dtype.name}")


# ---------------------------------------------------------------------------
# shape plumbing
# ---------------------------------------------------------------------------

def reshape(a: Tensor, *shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    out_data = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.data.shape),)

    return Tensor._from_op(out_data, (a,), backward, None)


def transpose(a: Tensor, axes=None) -> Tensor:
    out_data = np.transpose(a.data, axes)
    inv = None if axes is None else np.argsort([ax % a.ndim for ax in axes])

    def backward(g):
        return (np.transpose(g, inv),)

    return Tensor._from_op(out_data, (a,), backward, None)


def stitch(parts: Iterable[tuple[Tensor, slice]], length: int, axis: int = 0) -> Tensor:
    """The ``keep`` span along ``axis`` of each ``(part, keep)``, laid end
    to end into an axis of ``length`` entries, as one node. Its backward
    gives each part its span of the gradient and zeros elsewhere.

    ``parts`` may be a generator: each part is copied in as it comes and
    kept afterwards only as a parent of the graph, so with no graph to
    record the parts do not pile up.
    """
    out = None
    kept = []                       # (part, keep, its span of the output)
    at = 0
    for part, keep in parts:
        if out is None:
            axis %= part.ndim
            cut = (slice(None),) * axis
            out = np.empty(part.shape[:axis] + (length,) + part.shape[axis + 1:], part.dtype)
        _require_same_dtype(out, part, "stitch")
        piece = part.data[cut + (keep,)]
        span = slice(at, at + piece.shape[axis])
        out[cut + (span,)] = piece
        at = span.stop
        if _grad_enabled and part.requires_grad:
            kept.append((part, keep, span))
    if out is None:
        raise ParameterError("stitch of zero parts")
    if at != length:
        raise DimensionError(f"stitch: parts fill {at} of {length} entries")

    def backward(g):
        grads = []
        for part, keep, span in kept:
            d = np.zeros(part.shape, g.dtype)
            d[cut + (keep,)] = g[cut + (span,)]
            grads.append(d)
        return tuple(grads)

    return Tensor._from_op(out, [part for part, _, _ in kept], backward, None)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """``tensors`` laid end to end along ``axis``: :func:`stitch` of whole parts."""
    return stitch([(t, slice(None)) for t in tensors],
                  sum(t.shape[axis] for t in tensors), axis)


def _scatter_rows(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """``out[index[j]] += rows[j]`` into ``n`` zero rows, duplicates summed.

    One sparse product with a column per row of ``rows`` beats both
    ``np.add.at`` and a per-column ``bincount``. ``scipy.sparse`` is
    imported here: a fresh import costs about 0.17 s and 19 MB, and
    inference never runs a backward.
    """
    from scipy.sparse import csc_matrix
    scatter = csc_matrix((np.ones(index.size, dtype=rows.dtype), index,
                          np.arange(index.size + 1)), shape=(n, index.size))
    return scatter @ rows


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """The mean over ``axis`` (every axis when None) as one node: the sum
    times ``dtype(1 / count)``, and in the backward that scaled gradient
    spread back over the summed axes."""
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.data.shape[ax] for ax in axes]))
    inv = a.data.dtype.type(1.0 / count)
    out_data = np.asarray(a.data.sum(axis=axis, keepdims=keepdims) * inv)

    def backward(g):
        g = g * inv
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return Tensor._from_op(out_data, (a,), backward, "mean")


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def _check_matmul(a: Tensor, b: Tensor, op: str) -> None:
    _require_same_dtype(a, b, op)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"{op} operands need at least 2 axes")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"{op} inner dimensions differ: {a.data.shape} x {b.data.shape}")


def _matmul_backward(a: Tensor, b: Tensor, g: np.ndarray) -> tuple:
    ga = gb = None
    if a.requires_grad:
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.data.shape)
    if b.requires_grad:
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.data.shape)
    return ga, gb


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node: the bias is added into the product."""
    _check_matmul(x, w, "linear")
    _require_same_dtype(x, b, "linear")
    if b.data.shape != w.data.shape[-1:]:
        raise DimensionError(f"linear bias {b.data.shape} does not match "
                             f"weight {w.data.shape}")
    out_data = np.matmul(x.data, w.data)
    out_data += b.data

    def backward(g):
        return _matmul_backward(x, w, g) + (_unbroadcast(g, b.data.shape),)

    return Tensor._from_op(out_data, (x, w, b), backward, "linear")


# output positions per forward GEMM tile: its im2col columns, 9 MiB for the
# default conv2, are the only copy of the windows the forward makes
_CONV_TILE = 8192
# the fewest im2col columns in one backward GEMM: numpy's matmul sends a
# one-column product to cblas ?gemv, which sums in another order than
# ?gemm (OpenBLAS 0.3.31, SkylakeX core: widths 2-40 matched); 32 keeps
# conv1's nine 1-channel taps in one group
_GROUP_COLUMNS = 32
# OpenBLAS 0.3.31 (SMALL_MATRIX_OPT builds, SkylakeX core) may run a
# product of at most 100^3 multiply-adds through the small-matrix kernel
# that ?gemm_small_kernel_permit_skylakex.c allows, which sums in another
# order than its blocked GEMM kernel
_SMALL_GEMM = 100 ** 3


def _spans(length: int, step: int, least: int, work: int) -> list[int]:
    """Bounds that split a GEMM axis of ``length`` entries, one the GEMM
    does not sum over, into near-equal spans of about ``step`` entries.

    A span has at least ``least`` entries and more than ``_SMALL_GEMM``
    multiply-adds, at ``work`` per entry, or is the whole axis. So every
    part runs through the same GEMM kernel as the whole product would, and
    each output keeps its reduction order bit for bit. ``work`` 0 sets no
    such bound (see :func:`_split`).
    """
    if work:
        least = max(least, _SMALL_GEMM // work + 1)
    count = max(1, min(-(-length // step), length // least))
    return [length * i // count for i in range(count + 1)]


# ---------------------------------------------------------------------------
# the worker region
# ---------------------------------------------------------------------------

# the fewest output values in one part of a split op: on a 2-vCPU Xeon a
# hand-off to a pool thread and back costs about 45 us, and a default
# 1 s track (100 frames) runs no slower on two CPUs than on one from here
_PART = 32768


def cpu_count() -> int:
    """The number of CPUs this process may use."""
    return len(os.sched_getaffinity(0))


class _Region(threading.local):
    """The open worker region, as the thread that opened it sees it; every
    other thread, its workers among them, sees none."""

    pool = None                     # its concurrent.futures.ThreadPoolExecutor
    threads = 1


_region = _Region()


class _Blas(NamedTuple):
    get: Callable[[], int]                  # the thread count
    put: Callable[[int], None]              # sets it
    park: Callable[[], int] | None          # stops the pool, which the next threaded call restarts


@cache
def _blas_threads() -> _Blas | None:
    """The thread functions of the OpenBLAS that numpy ships in
    ``numpy.libs``, or None where it has no get and set pair."""
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for form in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get, put = (getattr(lib, form.format(verb), None) for verb in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                # what OpenBLAS itself runs before a fork
                park = getattr(lib, "blas_thread_shutdown_", None)
                if park is not None:
                    park.argtypes, park.restype = [], ctypes.c_int
                return _Blas(get, put, park)
    return None


@contextmanager
def workers():
    """A region in which :func:`conv2d`, :func:`neighborhood_attention` and
    :func:`rowwise` split their independent rows into one part per CPU this
    process may use (:func:`cpu_count`).

    The region is a pool of ``cpu_count() - 1`` threads plus the calling
    thread, which runs the first part itself. It lives only until the
    block exits, and until then it holds OpenBLAS at one thread
    (:func:`_hold_blas`), restoring the count on the way out, on error
    too: BLAS threads and the region's would only compete, and OpenBLAS
    runs one threaded GEMM at a time. It also stops OpenBLAS's thread
    pool, whose idle threads spin for about 0.1 s after each threaded GEMM
    before they sleep; the next threaded GEMM after the region starts the
    pool again. Without OpenBLAS's thread functions no limit applies. With
    one CPU there is no pool and the block runs as it is; inside an open
    region a second one changes nothing.

    Each part runs the code a serial call runs on those rows, and every
    GEMM keeps its kernel (:func:`_split`), so outputs equal the serial
    call's bit for bit. Open the region only for inference, under
    :func:`no_grad` and with no generator: a recorded graph makes the ops
    run whole.
    """
    threads = cpu_count()
    if threads == 1 or _region.pool is not None:
        yield
        return
    # imported here: concurrent.futures loads logging, 4 ms a process
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(threads - 1, thread_name_prefix="aio1-worker")
    _hold_blas(+1)
    try:
        _region.pool, _region.threads = pool, threads
        yield
    finally:
        _region.pool, _region.threads = None, 1
        pool.shutdown()
        _hold_blas(-1)


# the regions open in this process, and the OpenBLAS thread count the
# first of them found
_blas_held = [0, None]
_blas_lock = threading.Lock()


def _hold_blas(step: int) -> None:
    """Count a region in (+1) or out (-1). The first one in holds OpenBLAS
    at one thread and stops its pool; the last one out restores the count
    the first found, so regions opened by several threads at once leave
    it as it was."""
    blas = _blas_threads()
    if blas is None:
        return
    with _blas_lock:
        if step > 0 and _blas_held[0] == 0:
            _blas_held[1] = blas.get()
            blas.put(1)
            if blas.park is not None:
                blas.park()
        _blas_held[0] += step
        if step < 0 and _blas_held[0] == 0:
            blas.put(_blas_held[1])


def _threads() -> int:
    """The threads an op splits its rows over: those of the open region,
    or 1 outside one, inside one of its parts and under a graph."""
    return 1 if _region.pool is None or _grad_enabled else _region.threads


def _split(length: int, works: Sequence[int], size: int) -> list[int]:
    """Bounds of near-equal spans of an axis of ``length`` rows, one per
    thread of the open region, or the whole axis outside one or under a
    graph. Each span holds at least ``_PART`` of the output's values, at
    ``size`` per row. GEMMs over the rows take ``works`` multiply-adds per
    row.

    Every span passes each of those GEMMs to the kernel its whole product
    takes: a product with more than ``_SMALL_GEMM`` multiply-adds splits
    only into spans above that bound (:func:`_spans`), and one small as a
    whole has only small parts, so it splits freely.
    """
    threads = max(1, min(_threads(), length * size // _PART))
    big = [w for w in works if length * w > _SMALL_GEMM]
    return _spans(length, max(1, -(-length // threads)), 1, min(big, default=0))


def _run(fn: Callable[[int, int], object], bounds: Sequence[int]) -> list:
    """``fn(lo, hi)`` for each span of ``bounds``, their results in order.

    In the open region the spans after the first go to its pool, each in a
    copy of this thread's context, so numpy's error state (``np.errstate``)
    holds there too; the first runs on this thread, which meanwhile sees
    no region, so a split inside a part runs whole. Every span has
    finished before this returns or raises; an error is that of the first
    span that failed.
    """
    spans = list(zip(bounds, bounds[1:]))
    pool = _region.pool
    if pool is None or len(spans) == 1:
        return [fn(lo, hi) for lo, hi in spans]
    from concurrent.futures import wait
    rest = [pool.submit(contextvars.copy_context().run, fn, lo, hi) for lo, hi in spans[1:]]
    _region.pool = None
    try:
        first = fn(*spans[0])
    finally:
        _region.pool = pool
        wait(rest)
    return [first] + [f.result() for f in rest]


def rowwise(fn: Callable[..., Tensor | tuple[Tensor, ...]], *xs: Tensor
            ) -> Tensor | tuple[Tensor, ...]:
    """``fn(*xs)``, for an ``fn`` of stacked inputs ``[B, ..., C]`` whose
    every output, a tensor or a tuple of them, maps each entry of the
    first axis from the same entry of the inputs, and that draws nothing.

    In the open region (:func:`workers`), with no graph and inputs of
    three or more axes, ``fn`` runs over one span of the first axis per
    thread, and the parts' outputs are laid end to end. Numpy runs one
    GEMM per matrix of a stacked product, so each part runs the GEMMs the
    whole call would, and the values equal its values bit for bit.
    Elsewhere it is the plain call.
    """
    n = xs[0].shape[0]
    bounds = _split(n, (), xs[0].size // max(n, 1)) if xs[0].ndim >= 3 else [0, n]
    if len(bounds) == 2:
        return fn(*xs)
    whole: list[np.ndarray] = []            # made by the first part done
    made = threading.Lock()

    def part(lo, hi):
        got = fn(*(Tensor(x.data[lo:hi]) for x in xs))
        ts = (got,) if isinstance(got, Tensor) else got
        with made:
            if not whole:
                whole.extend(np.empty((n,) + t.shape[1:], t.dtype) for t in ts)
        for out, t in zip(whole, ts):       # each part copies itself in
            out[lo:hi] = t.data
        return ts is not got                # fn made one tensor

    single = _run(part, bounds)[0]
    outs = tuple(Tensor(out) for out in whole)
    return outs[0] if single else outs


def _inside(offset: int, out_len: int, in_len: int) -> tuple[slice, slice]:
    """The output positions ``p`` whose input position ``p + offset`` lies
    in ``[0, in_len)``, and those input positions: one kernel tap's reach
    into an unpadded axis."""
    lo = max(0, -offset)
    hi = max(lo, min(out_len, in_len - offset))
    return slice(lo, hi), slice(lo + offset, hi + offset)


def _conv2d_backward(x: Tensor, kernels: Tensor, padding: tuple[int, int],
                     g: np.ndarray) -> tuple:
    """:func:`conv2d`'s gradients of x, kernels and bias, one group of
    kernel taps at a time: a group's im2col columns give its block of the
    kernel gradient, and its block of ``g @ kmat`` adds back into the
    input pixels its columns were copied from, in tap order. The adds skip
    the padding, so ``dx`` is a C-contiguous ``[n, h, w, cin]`` array."""
    n, h, w, cin = x.data.shape
    cout, _, kh, kw = kernels.data.shape
    ph, pw = padding
    oh, ow = g.shape[1:3]
    gcols = g.reshape(-1, cout)
    kmat = kernels.data.transpose(0, 2, 3, 1).reshape(cout, -1)
    xp = np.pad(x.data, ((0, 0), (ph, ph), (pw, pw), (0, 0))) if kernels.requires_grad else None
    dk = np.empty_like(kmat) if kernels.requires_grad else None
    dx = np.zeros(x.data.shape, g.dtype) if x.requires_grad else None
    bounds = _spans(kh * kw, 1, -(-_GROUP_COLUMNS // cin), cin * gcols.size)
    for lo, hi in zip(bounds, bounds[1:]):
        span = slice(lo * cin, hi * cin)
        taps = [divmod(tap, kw) for tap in range(lo, hi)]
        if dk is not None:
            # [n, oh, ow, taps, cin]
            cols = np.stack([xp[:, i:i + oh, j:j + ow] for i, j in taps], axis=3)
            dk[:, span] = gcols.T @ cols.reshape(gcols.shape[0], -1)
        if dx is not None:
            dcols = (gcols @ kmat[:, span]).reshape(n, oh, ow, hi - lo, cin)
            for t, (i, j) in enumerate(taps):
                oy, iy = _inside(i - ph, oh, h)
                ox, ix = _inside(j - pw, ow, w)
                dx[:, iy, ix] += dcols[:, oy, ox, t]
    if dk is not None:
        dk = dk.reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2)
    return dx, dk, _unbroadcast(g, (cout,))


def _conv2d_shape(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray,
                  padding: tuple[int, int]) -> tuple[int, int, int, int]:
    """:func:`conv2d`'s output shape ``[n, oh, ow, cout]``; raises on
    operands it cannot take."""
    _require_same_dtype(x, kernels, "conv2d")
    _require_same_dtype(x, bias, "conv2d")
    if x.ndim != 4 or kernels.ndim != 4:
        raise DimensionError("conv2d expects [n,h,w,cin] input and [cout,cin,kh,kw] kernels")
    n, h, w, cin = x.shape
    cout, kcin, kh, kw = kernels.shape
    if kcin != cin:
        raise DimensionError(f"conv2d channel mismatch: input {cin}, kernels {kcin}")
    if bias.shape != (cout,):
        raise DimensionError(f"conv2d bias {bias.shape} does not match "
                             f"{cout} output channels")
    ph, pw = padding
    if ph < 0 or pw < 0:
        raise ParameterError("conv2d padding must be non-negative")
    if h + 2 * ph < kh or w + 2 * pw < kw:
        raise DimensionError("conv2d kernel larger than padded input")
    return n, h + 2 * ph - kh + 1, w + 2 * pw - kw + 1, cout


def conv2d(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray,
           padding: tuple[int, int] = (0, 0),
           epilogue: Callable[[int, int, np.ndarray], None] | None = None
           ) -> np.ndarray | None:
    """2-D cross-correlation (no kernel flip), channels last, plus a
    per-channel bias, as an array function.

    ``x`` is ``[n, h, w, cin]``, ``kernels`` is ``[cout, cin, kh, kw]`` and
    ``bias`` is ``[cout]``. The output is ``[n, h + 2*pad_h - kh + 1,
    w + 2*pad_w - kw + 1, cout]``. It is an im2col GEMM run in tiles of
    about ``_CONV_TILE`` output positions, whole output rows of any stems:
    each tile copies its ``(kh, kw, cin)`` windows, and its product gets
    the bias and the finite check while it is in cache. Its gradients come
    from :func:`_conv2d_backward`, which runs in groups of kernel taps,
    column blocks of the im2col matrix. Neither holds the whole matrix.
    Both split the GEMMs only along axes they do not sum over
    (:func:`_spans`), so every value equals that of one whole-matrix GEMM
    bit for bit. In a worker region each thread runs a span of the output
    rows in tiles of its own, whose scratch is a share of one serial tile.

    With an ``epilogue``, no output is made: each checked tile goes to
    ``epilogue(lo, hi, tile)``, where ``tile`` is output rows ``lo:hi`` of
    the ``[n * oh, ow, cout]`` output in a scratch buffer the epilogue may
    overwrite, and the call returns None.
    """
    n, oh, ow, cout = _conv2d_shape(x, kernels, bias, padding)
    _, _, kh, kw = kernels.shape
    ph, pw = padding
    kmat = kernels.transpose(0, 2, 3, 1).reshape(cout, -1)
    work = ow * kmat.size
    # the region's parts share the scratch of one serial call's tile
    step = max(1, _CONV_TILE // ow // _threads())
    out = None if epilogue is not None else np.empty((n, oh, ow, cout), dtype=x.dtype)

    def tiles(start, stop):
        # output rows start:stop, one per (stem, output row), in GEMM tiles,
        # from the padded stems they reach
        first = start // oh
        xp = np.pad(x[first:(stop - 1) // oh + 1], ((0, 0), (ph, ph), (pw, pw), (0, 0)))
        # [stems, oh, ow, kh, kw, cin]: the (kh, kw, cin) order makes each
        # copy move runs of cin values
        windows = sliding_window_view(xp, (kh, kw), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)
        bounds = [start + b for b in _spans(stop - start, step, 1, work)]
        rows = max(np.diff(bounds))
        cols = np.empty((rows,) + windows.shape[2:], dtype=x.dtype)
        buf = np.empty((rows, ow, cout), dtype=x.dtype) if out is None else None
        for lo, hi in zip(bounds, bounds[1:]):
            for s in range(lo // oh, (hi - 1) // oh + 1):       # a tile may span stems
                a, b = max(lo, s * oh), min(hi, s * oh + oh)
                cols[a - lo:b - lo] = windows[s - first, a - s * oh:b - s * oh]
            tile = buf[:hi - lo] if out is None else out.reshape(n * oh, ow, cout)[lo:hi]
            np.matmul(cols[:hi - lo].reshape(-1, kmat.shape[1]), kmat.T,
                      out=tile.reshape(-1, cout))
            tile += bias
            _check_finite(tile, "conv2d")
            if epilogue is not None:
                epilogue(lo, hi, tile)

    _run(tiles, _split(n * oh, [work], ow * cout))
    return out


def _pool_windows(xd: np.ndarray, axis: int, width: int) -> np.ndarray:
    """``xd`` with ``axis`` split in place into ``(windows, width)``; a
    trailing remainder is first padded by repeating the last element."""
    pad = (-xd.shape[axis]) % width
    if pad:
        xd = np.pad(xd, [(0, pad if i == axis else 0) for i in range(xd.ndim)], mode="edge")
    return xd.reshape(xd.shape[:axis] + (-1, width) + xd.shape[axis + 1:])


def maxpool(x: np.ndarray, axis: int, width: int) -> np.ndarray:
    """Non-overlapping max over ``width`` along ``axis``, as an array function.

    The axis splits in place into ``(windows, width)``, a view of the input.
    A trailing remainder is padded by repeating the last element, so no
    frames are dropped. Its gradient goes to the first maximal index of
    each window (see :func:`conv_block`).
    """
    if width < 1:
        raise ParameterError("maxpool width must be >= 1")
    axis %= x.ndim
    windows = _pool_windows(x, axis, width)
    # a running max beats numpy's reduction over an axis this short
    at = (slice(None),) * (axis + 1)
    out = windows[at + (0,)].copy()
    for j in range(1, width):
        np.maximum(out, windows[at + (j,)], out=out)
    _check_finite(out, "maxpool")
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalise the last axis to zero mean / unit variance, then affine."""
    c = x.data.shape[-1]
    if c < 1:
        raise DimensionError("layer_norm needs at least one feature")
    if eps <= 0:
        raise ParameterError("layer_norm eps must be positive")
    if gain.data.shape != (c,) or bias.data.shape != (c,):
        raise DimensionError("layer_norm gain/bias must match the last axis")
    _require_same_dtype(x, gain, "layer_norm")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.data.dtype))
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data

    def backward(g):
        dx = dgain = None
        if gain.requires_grad:
            dgain = (g * xhat).reshape(-1, c).sum(axis=0)
        if x.requires_grad:
            gy = g * gain.data
            m1 = gy.mean(axis=-1, keepdims=True)
            m2 = (gy * xhat).mean(axis=-1, keepdims=True)
            dx = (gy - m1 - xhat * m2) * inv
        return dx, dgain, np.ascontiguousarray(g).reshape(-1, c).sum(axis=0)

    return Tensor._from_op(out_data, (x, gain, bias), backward, "layer_norm")


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

# values per pass of the ELU and GELU: a chunk's input, output and
# scratch buffers stay in cache. Any size gives the same values; on a
# 2-vCPU Xeon with 2 MiB of L2 per core, 32,768 against 16,384 takes the
# GELU on [4, 2000, 192] from 4.27 to 3.95 ms, its gradient from 5.23 to
# 4.77 ms and the ELU on a [4, 260, 81, 32] conv1 tile from 1.94 to
# 1.76 ms, and 131,072 is slower. 65,536 runs as fast as 32,768 on one
# thread, and with half the numpy calls, each of which hands the GIL
# over, it takes those GELU and ELU calls split over two threads from
# 6.53 to 5.01 and from 2.77 to 2.41 ms
_CHUNK = 65536


def _elu(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``max(a, 0) + expm1(min(a, 0))`` into ``out``, which may be ``a``: one
    of the two terms is always 0, so this equals ``np.where(a > 0, a,
    expm1(a))`` bit for bit, in less time. It runs over chunks of
    ``_CHUNK`` values of a C-contiguous ``a`` and ``out``, against a zero
    array: numpy's minimum and maximum take twice as long with a scalar
    operand."""
    out = np.empty(a.shape, a.dtype) if out is None else out
    flat, oflat = a.reshape(-1), out.reshape(-1)
    zero = np.zeros(min(_CHUNK, flat.size), a.dtype)
    neg = np.empty_like(zero)
    for lo in range(0, flat.size, _CHUNK):
        xs, o = flat[lo:lo + _CHUNK], oflat[lo:lo + _CHUNK]
        z, n = zero[:xs.size], neg[:xs.size]
        np.minimum(xs, z, out=n)
        np.expm1(n, out=n)
        np.maximum(xs, z, out=o)
        o += n
    return out


def _elu_slope(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``g * elu'(x)`` from the ELU output: 1 for x > 0, elu(x) + 1 otherwise."""
    slope = np.minimum(out, 0)
    slope += 1
    slope *= g
    return slope


# Phi(-a) = erfc(a / sqrt 2) / 2 ~ t (c5 t^4 + ... + c1) exp(-a^2 / 2) for
# a >= 0, t = 1 / (1 + p a): Abramowitz & Stegun 7.1.26 with its
# coefficients halved and p rescaled to the argument a, not a / sqrt 2
_PHI_P = np.float32(0.3275911 / math.sqrt(2.0))
_PHI_C = tuple(np.float32(0.5 * c) for c in (
    1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592))
# from here on exp(-a^2 / 2), and so Phi(-a), is 0 in float32: clamping
# a changes no output, and keeps a^2 finite
_PHI_CLAMP = np.float32(15.0)
_INV_SQRT_2PI = np.float32(1.0 / math.sqrt(2.0 * math.pi))
# the sign bit of a float32, as a uint32
_SIGN_BIT = np.uint32(0x80000000)


def _gelu_f32(x: np.ndarray, g: np.ndarray | None = None) -> np.ndarray:
    """``x * Phi(x)`` of float32 ``x``, or, given ``g``, ``g * gelu'(x)``.

    ``gelu(x) = max(x, 0) - |x| Phi(-|x|)``, which subtracts the small
    tail term instead of rounding ``Phi`` near 1. The work runs in place
    over chunks of ``_CHUNK`` values, and clamps and takes the maximum
    against arrays, not scalars, as :func:`_elu` does.
    """
    flat = x.reshape(-1)
    gflat = None if g is None else g.reshape(-1)
    out = np.empty_like(flat)
    size = min(_CHUNK, flat.size)
    abs_buf, t_buf, e_buf = (np.empty(size, np.float32) for _ in range(3))
    clamp, zero = np.full(size, _PHI_CLAMP), np.zeros(size, np.float32)
    for lo in range(0, flat.size, _CHUNK):
        xs, o = flat[lo:lo + _CHUNK], out[lo:lo + _CHUNK]
        a, t, e = abs_buf[:xs.size], t_buf[:xs.size], e_buf[:xs.size]
        np.abs(xs, out=a)
        np.minimum(a, clamp[:xs.size], out=a)
        np.multiply(a, _PHI_P, out=t)
        t += 1
        np.reciprocal(t, out=t)
        np.multiply(t, _PHI_C[0], out=o)
        for c in _PHI_C[1:]:
            o += c
            o *= t
        np.multiply(a, a, out=e)
        e *= -0.5
        np.exp(e, out=e)
        o *= e                                  # Phi(-|x|)
        if gflat is None:
            o *= a
            np.maximum(xs, zero[:xs.size], out=t)
            np.subtract(t, o, out=o)
        else:
            # gelu'(x) = Phi(x) + x phi(x), Phi(x) = 1/2 + sign(x) (1/2 - Phi(-|x|))
            np.subtract(0.5, o, out=o)
            # o is +0 or positive for every float32 x (checked for every
            # clamped |x| in [0, 15]), so xor-ing x's sign bit into it is
            # copysign(o, x) bit for bit, in a third of the time
            sign = a.view(np.uint32)
            np.bitwise_and(xs.view(np.uint32), _SIGN_BIT, out=sign)
            np.bitwise_xor(o.view(np.uint32), sign, out=o.view(np.uint32))
            o += 0.5
            e *= xs
            e *= _INV_SQRT_2PI
            o += e
            o *= gflat[lo:lo + _CHUNK]
    return out.reshape(x.shape)


def gelu(x: Tensor) -> Tensor:
    # exact erf form; the tanh approximation is too loose for grad checks
    if x.data.dtype == np.float32:
        def backward(g):
            return (_gelu_f32(x.data, g),)

        return Tensor._from_op(_gelu_f32(x.data), (x,), backward, "gelu")

    from scipy.special import erf
    inv_sqrt2 = np.asarray(1.0 / math.sqrt(2.0), dtype=x.data.dtype)
    phi = 0.5 * (1.0 + erf(x.data * inv_sqrt2))
    out_data = x.data * phi

    def backward(g):
        dens = np.exp(-0.5 * x.data * x.data) / np.asarray(
            math.sqrt(2.0 * math.pi), dtype=x.data.dtype)
        return (g * (phi + x.data * dens),)

    return Tensor._from_op(out_data, (x,), backward, "gelu")


def sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function of an array, with no overflow in ``exp``."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """The softmax of an array along ``axis``."""
    e = np.exp(z - np.max(z, axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


# ---------------------------------------------------------------------------
# neighborhood attention
# ---------------------------------------------------------------------------

class Slot(NamedTuple):
    """One window slot of every query row ``(b, t)`` of ``[B, T, C]``:
    the row reads key row ``(b + shift, idx[t])`` and bias column
    ``rel[t]``. ``valid [T]`` flags the frames whose slot is real, or is
    None when all are; a row whose ``b + shift`` falls outside ``[0, B)``
    leaves the slot out. Consecutive slots sharing one ``idx`` array
    share its gathers."""

    shift: int
    idx: np.ndarray
    rel: np.ndarray
    valid: np.ndarray | None


def neighborhood_attention(q: Tensor, k: Tensor, v: Tensor, rpb: Tensor,
                           slots: Sequence[Slot], attn_dropout: float = 0.0,
                           rng: np.random.Generator | None = None) -> Tensor:
    """Multi-head softmax attention of each query row over its window slots.

    ``q``, ``k`` and ``v`` are ``[..., T, C]``; the leading axes fold into
    one axis ``B`` that slot shifts move along. ``rpb`` is ``[H, table]``,
    one learned bias per head and relative offset, and fixes the head
    count ``H``. Every query row needs at least one real slot. Each head's
    logit is its ``C/H`` channels of query and key dotted, scaled by
    ``1/sqrt(C/H)``, plus the slot's bias; slots left out get probability
    0. Inverted dropout at ``attn_dropout`` scales the probabilities by the
    bool mask of :func:`_dropout_mask`, drawn once for the rows each slot
    reaches, in slot order; ``rng=None`` is inference.

    The op runs slot by slot: it gathers a key column with ``np.take``,
    multiplies it by the queries and sums each head's channels with a
    GEMM against a ``[C, H]`` block indicator. The softmax runs across the
    slot axis, and values accumulate the same way. The graph keeps only
    the ``[slots, B, T, H]`` probabilities and the dropout mask: the
    backward gathers keys and values again and scatter-adds their
    gradients by row. In float32, outputs of unit-scale inputs stay
    within 1e-6 of the float64 op. With no graph, in a worker region, the
    query frames split into one span per thread (:func:`_split`); keys
    reach across spans through ``idx``, so no halo is needed.
    """
    for t in (k, v, rpb):
        _require_same_dtype(q, t, "neighborhood_attention")
    if not q.data.shape == k.data.shape == v.data.shape:
        raise DimensionError("neighborhood_attention: q, k and v shapes differ")
    heads, table = rpb.data.shape
    frames, c = q.data.shape[-2:]
    if c % heads:
        raise DimensionError(f"{heads} heads do not divide {c} channels")
    dtype = q.data.dtype
    batch = math.prod(q.data.shape[:-2])
    qd, kd, vd = (t.data.reshape(batch, frames, c) for t in (q, k, v))
    reach = []                          # per slot: query rows, their key rows
    for s in slots:
        lo = min(max(0, -s.shift), batch)
        hi = max(lo, min(batch, batch - s.shift))
        reach.append((slice(lo, hi), slice(lo + s.shift, hi + s.shift)))
    reached = np.array([[r.start <= b < r.stop for b in range(batch)] for r, _ in reach])
    drawn, scale = _dropout_mask((reached.sum(), frames, heads), attn_dropout, rng, dtype)
    keep = None                         # the drawn rows, laid out like the probabilities
    if drawn is not None:
        keep = np.zeros(reached.shape + (frames, heads), dtype=bool)
        keep[reached] = drawn
    starts = [j == 0 or s.idx is not slots[j - 1].idx for j, s in enumerate(slots)]
    # a GEMM with this [C, H] block indicator sums each head's channels,
    # one with its transpose repeats each head's weight over its channels
    onehot = np.repeat(np.eye(heads, dtype=dtype), c // heads, axis=0)
    scaled = onehot * dtype.type(1.0 / math.sqrt(c // heads))

    def walk(src, lo=0, hi=frames):
        # per slot: index, rows, key rows, column, src gathered per column
        # for the query frames lo:hi
        col = -1
        for j, slot in enumerate(slots):
            if starts[j]:
                col += 1
                gathered = np.take(src, slot.idx[lo:hi], axis=1)
            rows, keys = reach[j]
            yield j, rows, keys, col, gathered[keys]

    def spread(p, indicator, out):
        # [b, T, H] -> [b, T, C] into out, each head's weight on its channels
        np.matmul(p.reshape(-1, heads), indicator.T, out=out.reshape(-1, c))
        return out

    def attend(lo, hi):
        # the query frames lo:hi into out; returns their probabilities
        logits = np.empty((len(slots), batch, hi - lo, heads), dtype=dtype)
        prod = np.empty((batch, hi - lo, c), dtype)
        for j, rows, _, _, kg in walk(kd, lo, hi):
            np.multiply(qd[rows, lo:hi], kg, out=prod[rows])
            np.matmul(prod[rows].reshape(-1, c), scaled, out=logits[j, rows].reshape(-1, heads))
        bias = np.take(rpb.data.T, np.stack([s.rel[lo:hi] for s in slots]), axis=0)   # [n, t, H]
        for j, slot in enumerate(slots):
            if slot.valid is not None:
                bias[j, ~slot.valid[lo:hi]] = -np.inf
        logits[~reached] = -np.inf
        logits += bias[:, None]
        logits -= logits.max(axis=0)
        probs = np.exp(logits, out=logits)
        probs /= probs.sum(axis=0)
        used = probs if keep is None else _dropout_scale(probs, keep[:, :, lo:hi], scale)
        for j, rows, _, _, vg in walk(vd, lo, hi):
            w = spread(used[j, rows], onehot, prod[rows])
            w *= vg
            out[rows, lo:hi] += w
        return probs

    # keys reach across the frame spans through idx; the head sums and
    # their spread are [rows, C] x [C, H] GEMMs per slot
    out = np.zeros(qd.shape, dtype)
    works = [(rows.stop - rows.start) * c * heads for rows, _ in reach]
    # the one span's probabilities, which a graph needs whole
    probs = _run(attend, _split(frames, works, batch * c))[0]

    def backward(g):
        g = g.reshape(qd.shape)
        used = probs if keep is None else _dropout_scale(probs, keep, scale)
        cols = np.stack([s.idx for s, first in zip(slots, starts) if first])
        dprobs = np.zeros(probs.shape, dtype)
        dq = np.zeros(qd.shape, dtype)
        dkg = np.zeros((len(cols), batch, frames, c), dtype=dtype)
        dvg = np.zeros(dkg.shape, dtype)
        prod = np.empty_like(qd)
        for j, rows, keys, col, vg in walk(vd):
            np.multiply(g[rows], vg, out=prod[rows])
            np.matmul(prod[rows].reshape(-1, c), onehot, out=dprobs[j, rows].reshape(-1, heads))
            w = spread(used[j, rows], onehot, prod[rows])
            w *= g[rows]
            dvg[col, keys] += w
        if keep is not None:
            dprobs = _dropout_scale(dprobs, keep, scale)
        dprobs -= (probs * dprobs).sum(axis=0)
        dlogits = np.multiply(probs, dprobs, out=dprobs)
        index = np.arange(heads) * table + np.stack([s.rel for s in slots])[..., None]
        drpb = np.bincount(index.reshape(-1), weights=dlogits.sum(axis=1).reshape(-1),
                           minlength=heads * table)
        for j, rows, keys, col, kg in walk(kd):
            w = spread(dlogits[j, rows], scaled, prod[rows])
            dq[rows] += w * kg
            w *= qd[rows]
            dkg[col, keys] += w
        # every (column, batch, frame) scatters into its key row
        keys = (np.arange(batch)[:, None] * frames + cols[:, None, :]).reshape(-1)
        dk = _scatter_rows(keys, dkg.reshape(keys.size, c), batch * frames)
        dv = _scatter_rows(keys, dvg.reshape(keys.size, c), batch * frames)
        return (dq.reshape(q.data.shape), dk.reshape(k.data.shape),
                dv.reshape(v.data.shape), drpb.reshape(heads, table))

    return Tensor._from_op(out.reshape(q.data.shape), (q, k, v, rpb), backward,
                           "neighborhood_attention")


def _pcg64(rng: np.random.Generator) -> np.random.PCG64:
    bits = rng.bit_generator
    if not isinstance(bits, np.random.PCG64):
        raise ParameterError(f"dropout needs a PCG64 generator, got {type(bits).__name__}")
    return bits


def _words(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n`` 32-bit words behind ``rng.random(n, dtype=float32)``, whose
    float ``i`` is ``(word_i >> 8) * 2**-24``, leaving ``rng`` in the state
    that draw leaves. PCG64 hands out the low half of a 64-bit output and
    keeps the high half for the next word, so the words are the buffered
    half-word, if ``rng`` holds one, then the halves of raw outputs; they
    come back as those two parts, the first of 0 or 1 words."""
    bits = _pcg64(rng)
    state = bits.state
    head = np.array([state["uinteger"]][:min(state["has_uint32"], n)], np.uint32)
    raw = bits.random_raw((n - head.size + 1) // 2)
    if raw.size:
        state = bits.state
        state["uinteger"] = int(raw[-1] >> np.uint64(32))
    if n:
        state["has_uint32"] = (n - head.size) % 2
        bits.state = state
    return head, raw.astype("<u8", copy=False).view("<u4")[:n - head.size]


def _skip(rng: np.random.Generator, n: int) -> None:
    """Moves ``rng`` past ``n`` float32 draws into the state they would leave,
    in O(log n) steps: ``PCG64.advance`` jumps over all but the raw output
    of the last word (and drops a buffered half-word), and :func:`_words`
    draws the rest."""
    bits = _pcg64(rng)
    buffered = bits.state["has_uint32"]
    whole = (n - buffered - 1) // 2
    if whole > 0:
        bits.advance(whole)
        n -= buffered + 2 * whole
    _words(rng, n)


def _dropout_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator | None,
                  dtype: np.dtype) -> tuple[np.ndarray | None, np.floating | None]:
    """``(rng.random(shape, dtype=float32) >= rate, dtype(1 / (1 - rate)))``, the
    keep mask and scale; ``(None, None)``, with no draw, without ``rng`` or at rate 0.

    The mask compares the raw words of :func:`_words` with ``ceil(float32(rate)
    * 2**24) << 8``, which keeps the same values as the float32 draw, bit for
    bit, at about half its cost. ``rng`` must be a PCG64 generator
    (``np.random.default_rng``); any other raises ``ParameterError``."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return None, None
    least = math.ceil(np.float32(rate) * 2 ** 24) << 8
    keep = np.empty(shape, dtype=bool)
    flat = keep.reshape(-1)
    head, tail = _words(rng, flat.size)
    np.greater_equal(head, least, out=flat[:head.size])
    np.greater_equal(tail, least, out=flat[head.size:])
    return keep, dtype.type(1.0 / (1.0 - rate))


def _dropout_scale(a: np.ndarray, keep: np.ndarray, scale: np.floating) -> np.ndarray:
    """``a * scale * keep`` in a new array."""
    out = a * scale
    return np.multiply(out, keep, out=out)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout ``x * scale * keep``, one node keeping the bool mask of one
    ``rng.random(x.shape)`` draw; ``x`` itself when ``rng`` is None (inference)."""
    keep, scale = _dropout_mask(x.data.shape, rate, rng, x.data.dtype)
    if keep is None:
        return x
    return Tensor._from_op(_dropout_scale(x.data, keep, scale), (x,),
                           lambda g: (_dropout_scale(g, keep, scale),), "dropout")


def residual(x: Tensor, branch: Tensor, rate: float,
             rng: np.random.Generator | None) -> Tensor:
    """The skip ``x + dropout(branch, rate, rng)`` as one node that keeps only
    the bool mask, drawn as :func:`dropout` draws it; without a mask it is
    ``x + branch``. Shapes and dtypes must match."""
    if x.data.shape != branch.data.shape:
        raise DimensionError(f"residual: shapes {x.data.shape} vs {branch.data.shape}")
    _require_same_dtype(x, branch, "residual")
    keep, scale = _dropout_mask(branch.data.shape, rate, rng, branch.data.dtype)
    if keep is None:
        return Tensor._from_op(x.data + branch.data, (x, branch), lambda g: (g, g), "residual")
    out = _dropout_scale(branch.data, keep, scale)
    return Tensor._from_op(np.add(x.data, out, out=out), (x, branch),
                           lambda g: (g, _dropout_scale(g, keep, scale)), "residual")


# ---------------------------------------------------------------------------
# fused front-end layer
# ---------------------------------------------------------------------------

def conv_block(x: Tensor, kernels: Tensor, bias: Tensor, padding: tuple[int, int],
               rate: float, keep: np.ndarray | None, pool: int) -> Tensor:
    """``maxpool(elu(conv2d(x, kernels, bias, padding)) * scale * keep,
    axis=2, width=pool)`` as one node, with ``scale = 1 / (1 - rate)``;
    without a ``keep`` mask there is no dropout.

    ``keep`` is a bool array of the conv output's shape that the caller
    draws (``aio1.frontend.mask_slicer``), so a time tile can draw just its
    slice of a whole track's mask, when it runs. The forward calls the
    array functions :func:`conv2d` and :func:`maxpool` by module name: the
    benchmark tracer times the front end by swapping those two module
    attributes, and a non-finite conv output still fails as ``conv2d``.

    The layer runs as the epilogue of each GEMM tile of :func:`conv2d`,
    while the tile is in cache: the ELU in place, the dropout, the pool
    into the pooled output and, under a graph, a walk over each window's
    slots that finds its first maximum, the slot its gradient goes to. So
    the forward makes no array of the conv output's size. The graph keeps,
    per pooled value, the slot of that maximum and, with a mask, the ELU
    value and the mask bit there; without one the ELU value is the pooled
    output. With no graph it keeps nothing. The pool must follow the ELU:
    float32 ``expm1`` is not monotone everywhere. The backward applies
    the mask and the ELU slope at pooled size, in the order of the chain
    of conv, ELU, dropout and pool nodes, then writes the one full-size
    gradient, zero off each first maximum, for :func:`_conv2d_backward`.
    That backward runs whole, not per tile: its kernel gradient sums over
    every output position, so tiles would change its rounding. Outputs and
    gradients equal those of the chain bit for bit.
    """
    shape = _conv2d_shape(x.data, kernels.data, bias.data, padding)
    if keep is not None and keep.shape != shape:
        raise DimensionError(f"conv_block: mask {keep.shape} for a conv output {shape}")
    if pool < 1:
        raise ParameterError("maxpool width must be >= 1")
    n, oh, ow, cout = shape
    dtype = x.data.dtype
    scale = dtype.type(1.0 / (1.0 - rate))
    out = np.empty((n * oh, -(-ow // pool), cout), dtype)     # one row per (stem, output row)
    graph = _grad_enabled and any(t.requires_grad for t in (x, kernels, bias))
    first = np.zeros(out.shape, np.min_scalar_type(pool - 1)) if graph else None
    elu_at = np.zeros(out.shape, dtype) if graph and keep is not None else None
    kept = np.zeros(out.shape, bool) if graph and keep is not None else None
    rows_keep = None if keep is None else keep.reshape(n * oh, ow, cout)
    # slot j of the windows [0, m): the last window may lack its last slots
    slots = [(j, len(range(j, ow, pool))) for j in range(pool)]

    def epilogue(lo, hi, tile):
        _elu(tile, out=tile)
        dropped = tile if keep is None else _dropout_scale(tile, rows_keep[lo:hi], scale)
        pooled = out[lo:hi]
        pooled[...] = maxpool(dropped, 1, pool)
        if first is None:
            return
        # walking the slots in order, one equal to the maximum is the
        # first maximum unless an earlier one was; the index of that slot
        # counts the slots walked before it
        free = np.ones(pooled.shape, dtype=bool)
        hit = np.empty_like(free)
        for j, m in slots:
            at = (slice(None), slice(j, None, pool))
            h, f = hit[:, :m], free[:, :m]
            np.equal(dropped[at], pooled[:, :m], out=h)
            h &= f
            f ^= h
            first[lo:hi, :m] += f.view(np.uint8)
            if kept is not None:
                elu_at[lo:hi, :m] += tile[at] * h
                kept[lo:hi, :m] |= rows_keep[lo:hi][at] & h

    conv2d(x.data, kernels.data, bias.data, padding, epilogue)

    def backward(g):
        g = g.reshape(out.shape)
        if kept is not None:
            g = _dropout_scale(g, kept, scale)
        g = _elu_slope(out if elu_at is None else elu_at, g)
        d = np.empty(shape, dtype)
        rows = d.reshape(n * oh, ow, cout)
        for j, m in slots:
            np.multiply(g[:, :m], first[:, :m] == j, out=rows[:, j::pool])
        del g                           # freed before the conv backward builds its columns
        return _conv2d_backward(x, kernels, padding, d)

    # conv2d and maxpool have checked the values
    return Tensor._from_op(out.reshape(n, oh, -1, cout), (x, kernels, bias), backward, None)


# ---------------------------------------------------------------------------
# recomputation
# ---------------------------------------------------------------------------

def checkpoint(fn: Callable[..., Tensor], x: Tensor, weights,
               rng: np.random.Generator | None) -> Tensor:
    """``fn(x, weights, rng)`` as one node that keeps only ``x``, the
    weights and a copy of ``rng``, not the graph ``fn`` builds (gradient
    checkpointing, Chen et al., arXiv 1604.06174).

    ``weights``, a :func:`param` dataclass, goes to ``fn`` as it is. The
    node's parents are ``x`` and the leaves :func:`named` lists, so a
    segment over an ``x`` that needs no gradient still records a node. With
    no graph it is the plain call; otherwise ``fn`` runs under
    :func:`no_grad`. The backward runs it again with the graph on, over a
    fresh leaf for ``x``, the real weights and a generator in the saved
    state, so every dropout mask is drawn again bit for bit and a second
    backward works. That nested backward adds each weight's gradient to
    the weight, and the node returns ``x``'s alone. So a weight that is no
    leaf raises :class:`ParameterError`: the nested backward would walk on
    into the outer graph. ``fn`` draws from ``rng`` alone. Where each weight
    enters a segment once (a block's in its block, the front end's in each
    tile), it gets the same arrays in the same order as in the plain call,
    so gradients and outputs equal that call's bit for bit.
    """
    pairs = list(named(weights, ""))
    if not _grad_enabled or not (x.requires_grad or any(t.requires_grad for _, t in pairs)):
        return fn(x, weights, rng)
    if bad := [name for name, t in pairs if t._backward is not None]:
        raise ParameterError(f"checkpoint: weights made by an op, not leaves: {bad}")
    saved = copy.deepcopy(rng)
    with no_grad():
        out = fn(x, weights, rng)

    def backward(g):
        fresh = Tensor(x.data, requires_grad=x.requires_grad)
        with _grad_mode(True):
            fn(fresh, weights, copy.deepcopy(saved)).backward(g)
        return (fresh.grad,) + (None,) * len(pairs)

    # fn's own ops have checked the values
    return Tensor._from_op(out.data, [x] + [t for _, t in pairs], backward, None)
