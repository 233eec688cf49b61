"""The worker region ``tz.workers`` that ``model_forward`` opens.

``model_forward`` on two CPUs must equal a one-CPU call bit for bit, the
attention op split by query frames must equal the whole call, and the
split bounds must keep every GEMM in the kernel of its whole product.
Whatever happens inside, the region leaves no thread behind and the
OpenBLAS thread count as it found it, so the DBN forks in a process
that runs no worker. The CPU count is set by monkeypatching
``os.sched_getaffinity``, as the DBN tests do; the tests that leave it
alone run the one-CPU path (no pool) in a one-CPU process.
"""

import os
import threading

import numpy as np
import pytest

import aio1.model as model
import aio1.tensor as tz
from aio1.attention import _grid_slots, _window_table
from aio1.errors import NumericError
from aio1.frontend import StemSpectrogram
from aio1.postproc import analyze_activations
from aio1.tensor import Tensor

ACTIVATIONS = ("beat", "downbeat", "boundary", "labels")


def on_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def random_spec(cfg, frames, seed):
    rng = np.random.default_rng(seed)
    values = (2 * rng.random((cfg.num_stems, frames, cfg.bands))).astype(np.float32)
    return StemSpectrogram(values=values, fps=cfg.fps)


def record_splits(monkeypatch):
    """The ops whose rows ``tz._run`` splits into more than one part, by
    name, in call order."""
    seen, real = [], tz._run

    def spy(fn, bounds):
        if len(bounds) > 2:
            seen.append(fn.__qualname__.split(".")[0])
        return real(fn, bounds)

    monkeypatch.setattr(tz, "_run", spy)
    return seen


def blas_threads():
    blas = tz._blas_threads()
    return None if blas is None else blas.get()


def worker_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("aio1-worker")]


@pytest.mark.blas_order
@pytest.mark.parametrize("frames", [120, 218, 2000, 2700])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("preset", ["default", "small"])
def test_model_forward_on_two_cpus_equals_one_cpu(preset, dtype, frames, monkeypatch):
    # 218 frames is the front-end tile's small-GEMM bound, 2,604 at four
    # stems the attention head sum's; at 2,000 frames every site splits
    cfg = model.CONFIG_PRESETS[preset]()
    w = model.init_weights(cfg, seed=31, dtype=dtype)
    spec = random_spec(cfg, frames, seed=frames)
    on_cpus(monkeypatch, 1)
    one = model.model_forward(spec, w, cfg)
    on_cpus(monkeypatch, 2)
    seen = record_splits(monkeypatch)
    two = model.model_forward(spec, w, cfg)
    assert "conv2d" in seen
    if frames == 2000:
        assert {"neighborhood_attention", "rowwise"} <= set(seen)
    for key in ACTIVATIONS:
        np.testing.assert_array_equal(getattr(two, key), getattr(one, key), err_msg=key)


# (stems, frames, splits in 1-D, splits in 2-D) with the part-size floor
# lifted: a head sum of at most 10^6 multiply-adds (10,416 rows at 4
# heads of 24 channels) splits freely, a larger one only into parts above
# the bound, and the 2-D slots of 2, 3 and 4 stems must all keep theirs
ATTENTION_CASES = [
    (4, 200, True, True),           # 800 rows
    (4, 1000, True, True),
    (4, 2000, True, True),          # a 20 s track
    (4, 2604, True, True),          # 10,416 rows: small as a whole
    (4, 2605, False, False),        # large as a whole, small halves
    (1, 12000, False, False),
    (4, 5400, True, False),         # 1-D halves above the bound
    (4, 10500, True, True),         # 2-D halves above it for 2 stems too
]


@pytest.mark.blas_order
@pytest.mark.parametrize("kind", ["1d", "2d"])
@pytest.mark.parametrize("stems, frames, split_1d, split_2d", ATTENTION_CASES)
def test_attention_split_by_query_frames_equals_the_whole_call(
        kind, stems, frames, split_1d, split_2d, monkeypatch):
    rng = np.random.default_rng(frames)
    q, k, v = (Tensor(rng.standard_normal((stems, frames, 24)).astype(np.float32))
               for _ in range(3))
    if kind == "1d":
        slots, table = _window_table(frames, 5, 2), 9
    else:
        slots, table = _grid_slots(stems, frames, 5), 81
    rpb = Tensor(rng.standard_normal((4, table)).astype(np.float32))
    whole = tz.neighborhood_attention(q, k, v, rpb, slots).data
    on_cpus(monkeypatch, 2)
    monkeypatch.setattr(tz, "_PART", 1)
    seen = record_splits(monkeypatch)
    with tz.no_grad(), tz.workers():
        parts = tz.neighborhood_attention(q, k, v, rpb, slots).data
    assert seen == (["neighborhood_attention"] if (split_1d if kind == "1d" else split_2d) else [])
    np.testing.assert_array_equal(parts, whole)


@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_split_keeps_every_gemm_in_the_kernel_of_its_whole_product(cpus, monkeypatch):
    on_cpus(monkeypatch, cpus)
    monkeypatch.setattr(tz, "_PART", 1)
    with tz.no_grad(), tz.workers():
        for length in (1, 2, 7, 120, 1000, 2604, 2605, 5210, 10417, 60000):
            for works in ((), (96,), (192, 288, 384), (576,), (9216, 4608), (10 ** 7,)):
                bounds = tz._split(length, works, 1)
                sizes = np.diff(bounds)
                assert bounds[0] == 0 and bounds[-1] == length
                assert len(sizes) <= cpus and sizes.max() - sizes.min() <= 1
                for w in works:
                    whole_small = length * w <= tz._SMALL_GEMM
                    assert all((s * w <= tz._SMALL_GEMM) == whole_small for s in sizes)
        # the floor on a part's values
        monkeypatch.setattr(tz, "_PART", 1000)
        assert tz._split(1999, (), 1) == [0, 1999]
        assert len(tz._split(2000 * cpus, (), 1)) == cpus + 1
    # outside the region, and under a graph, an axis is one span
    assert tz._split(60000, (96,), 100) == [0, 60000]


@pytest.mark.parametrize("site", ["conv2d", "neighborhood_attention"])
def test_a_non_finite_value_in_a_part_fails_as_the_serial_call_does(site, monkeypatch):
    """A NaN in the spectrogram fails ``conv2d``'s check in the worker
    that runs the last stems; an Inf in an attention bias table fails
    ``neighborhood_attention``'s, under the caller's ``np.errstate``,
    which the workers keep. The caller gets the one-CPU error, and the
    region leaves no thread and the OpenBLAS count as it found them."""
    cfg = model.small_config()
    w = model.init_weights(cfg, seed=33)
    spec = random_spec(cfg, 2000, seed=34)
    if site == "conv2d":
        spec.values[-1, 1500] = np.nan
        # the spectrogram's own check would refuse it before the model
        monkeypatch.setattr(spec, "validate", lambda: None)
    else:
        w.blocks[0].dina1.rpb.data[:] = np.inf
    failed_in, real = [], tz._check_finite

    def check(arr, op):
        try:
            real(arr, op)
        except NumericError:
            failed_in.append(threading.current_thread() is threading.main_thread())
            raise

    monkeypatch.setattr(tz, "_check_finite", check)
    errors = {}
    for cpus in (1, 2):
        on_cpus(monkeypatch, cpus)
        threads, blas = threading.active_count(), blas_threads()
        # inf - inf in the softmax would warn first, as serially
        with pytest.raises(NumericError) as err, np.errstate(invalid="ignore"):
            model.model_forward(spec, w, cfg)
        errors[cpus] = str(err.value)
        assert threading.active_count() == threads and worker_threads() == []
        assert blas_threads() == blas
    assert errors[1] == errors[2] == f"{site} produced non-finite values"
    if site == "conv2d":
        assert False in failed_in           # a worker ran the failing tile


def test_the_dbn_forks_in_a_process_that_runs_no_worker(monkeypatch):
    """The pool lives only for ``model_forward``, so the decode that
    follows forks its DBN child while this thread is the only one the
    region started: no lock of a worker can be held in the child."""
    on_cpus(monkeypatch, 2)
    cfg = model.small_config()
    w = model.init_weights(cfg, seed=35)
    threads, blas = threading.active_count(), blas_threads()
    acts = model.model_forward(random_spec(cfg, 1000, seed=36), w, cfg)
    assert threading.active_count() == threads and blas_threads() == blas
    at_fork, fork = [], os.fork

    def spy():
        at_fork.append((threading.active_count(), worker_threads()))
        return fork()

    monkeypatch.setattr(os, "fork", spy)
    analyze_activations(acts)
    assert at_fork == [(threads, [])]


def test_the_region_on_the_cpus_this_process_has():
    # under `taskset -c 0` this is the one-CPU path: no pool, BLAS untouched
    threads, blas = threading.active_count(), blas_threads()
    with tz.no_grad(), tz.workers():
        assert (tz._region.pool is None) == (tz.cpu_count() == 1)
        assert tz._threads() == tz.cpu_count()
        with tz.workers():                  # a nested region changes nothing
            assert tz._threads() == tz.cpu_count()
        if tz.cpu_count() == 1:
            assert blas_threads() == blas
        elif blas is not None:
            assert blas_threads() == 1
    assert threading.active_count() == threads and blas_threads() == blas
    assert tz._threads() == 1


def test_one_cpu_opens_no_pool_and_leaves_blas_alone(monkeypatch):
    on_cpus(monkeypatch, 1)
    blas = blas_threads()
    with tz.no_grad(), tz.workers():
        assert tz._region.pool is None and tz._threads() == 1
        assert blas_threads() == blas


def test_a_graph_recording_call_in_a_region_runs_whole(monkeypatch):
    # the ops split only with no graph to record, so training is serial
    on_cpus(monkeypatch, 2)
    cfg = model.tiny_config()
    w = model.init_weights(cfg, seed=37)
    seen = record_splits(monkeypatch)
    with tz.workers():
        assert tz._threads() == 1
        logits = model.forward_logits(random_spec(cfg, 300, seed=38).values, w, cfg)
    assert seen == [] and logits["beat"].requires_grad


def test_regions_open_in_several_threads_restore_the_blas_count(monkeypatch):
    """Two threads that run ``model_forward`` at once each open a region;
    the last one out restores the OpenBLAS count the first one found, and
    each gets the one-CPU outputs."""
    on_cpus(monkeypatch, 2)
    cfg = model.small_config()
    w = model.init_weights(cfg, seed=39)
    specs = [random_spec(cfg, 2000, seed=s) for s in (40, 41)]
    on_cpus(monkeypatch, 1)
    want = [model.model_forward(spec, w, cfg) for spec in specs]
    on_cpus(monkeypatch, 2)
    blas, got = blas_threads(), [None, None]

    def run(i):
        got[i] = model.model_forward(specs[i], w, cfg)

    threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert blas_threads() == blas and worker_threads() == []
    for i in (0, 1):
        for key in ACTIVATIONS:
            np.testing.assert_array_equal(getattr(got[i], key), getattr(want[i], key))
