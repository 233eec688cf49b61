"""The repository's benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload analyze_default --seed 1 --seconds 25 --trace 0

``--workload`` is one of the workloads in ``BENCHMARK.json``, or ``all``
to run each in its own process. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment and the raw
samples.

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
instrumentation. With ``--trace 1`` the run does the same untraced loop,
then replays its first items (a fixed number per workload, so the figures
compare across commits) with every layer wrapped (see ``tracer.py``), and
reports the per-layer metrics: self times that, with ``trace.other_s``,
add up to ``trace.wall_s``; tracemalloc peaks; call and state counts; the
quality scores of the replayed items; and ``trace.overhead_s``, the
traced replay's time minus the untraced time of the same items.

``--smoke`` runs the tiny preset on short inputs (see ``smoke.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 5              # setup_s is the median of this many set-ups


def _limit_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; runs before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if not os.environ.get(var, "").isdigit() or int(os.environ[var]) > nproc:
            os.environ[var] = str(nproc)
    return nproc


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes
    import glob
    import numpy as np
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment(nproc: int) -> dict:
    import platform
    import numpy as np
    import scipy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                             ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    env = {"git_sha": sha, "nproc": nproc, "python": platform.python_version(),
           "numpy": np.__version__, "scipy": scipy.__version__,
           "blas_threads": _blas_threads(), "machine": platform.machine()}
    if env["blas_threads"] is not None and env["blas_threads"] > nproc:
        raise RuntimeError(f"BLAS uses {env['blas_threads']} threads on {nproc} CPUs")
    return env


def _setup_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    out = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True, timeout=120)
    if out.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{out.stderr}")
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def _loop(wl, ctx, seconds: float, min_items: int):
    """Closed loop: one item at a time until both ``seconds`` of timed work
    and ``min_items`` items are done. Returns one record per item; the
    program's errors and failed checks are recorded, not raised."""
    records = []
    busy = 0.0
    i = 0
    while i < min_items or busy < seconds:
        item = wl.make_item(ctx, i)
        rec = {"index": i, "audio_s": item["audio_s"], "ok": False}
        t0 = time.perf_counter()
        try:
            out = wl.run_item(ctx, item)
            rec["s"] = time.perf_counter() - t0
            rec.update(wl.check_item(ctx, item, out), ok=True)
            del out
        except Exception:
            rec.setdefault("s", time.perf_counter() - t0)
            print(f"{wl.name} item {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
        del item
        busy += rec["s"]
        records.append(rec)
        i += 1
    return records


def _mean(records, key) -> float:
    vals = [r[key] for r in records if key in r]
    return statistics.fmean(vals) if vals else 0.0


def run_workload(args) -> dict:
    # set-up: importing the program (through the workload module), weights
    # and the warm-up calls that fill its lazy caches
    t0 = time.perf_counter()
    import workloads as W
    wl = W.WORKLOADS[args.workload]
    ctx = wl.setup(args.seed, args.smoke)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        return {"setup_s": setup_s}
    setups = [setup_s] + [_setup_in_child(args) for _ in range(SETUP_RUNS - 1)]
    details = {"workload": wl.name, "seed": args.seed, "env": _environment(args.nproc),
               "setup_runs_s": setups}

    records = _loop(wl, ctx, args.seconds, wl.min_items)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(not r["ok"] for r in records)
    if wl.final_check is not None:
        try:
            details.update(wl.final_check(ctx))
        except Exception:
            failed += 1
            print(f"{wl.name} final check failed:\n{traceback.format_exc()}",
                  file=sys.stderr)
    attempted = len(records) + (wl.final_check is not None)
    details["items"] = [{k: r[k] for k in ("index", "audio_s", "s", "ok")} for r in records]

    if args.trace:
        metrics, traced = _traced_replay(wl, ctx, records[:wl.min_items], details, args)
        attempted += len(traced)
        failed += sum(not r["ok"] for r in traced)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "audio_s_per_s": (sum(r["audio_s"] for r in records)
                              / sum(r["s"] for r in records), "audio-s/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "success_rate": ((attempted - failed) / attempted, "share"),
        }
    print(json.dumps(details))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _traced_replay(wl, ctx, untraced, details, args):
    import tracer as T
    import workloads as W
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    tr = T.Tracer()
    with T.instrument(tr):
        traced = _loop(wl, ctx, 0.0, len(untraced))
    wall = sum(r["s"] for r in traced)
    values = T.layer_metrics(tr, wall)
    values["trace.overhead_s"] = wall - sum(r["s"] for r in untraced)
    for key in W.QUALITY_KEYS:
        values[f"quality.{key}"] = _mean(traced, key)
    values["train.val_loss"] = _mean(traced, "val_loss")
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{wl.name}-{args.seed}.json", "w") as f:
        json.dump({"details": details, "spans": tr.dump()}, f)
    return {name: (values.get(name, 0.0), unit) for name, unit in declared.items()}, traced


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is that workload's alone."""
    results = {}
    for wl in _declared()["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))] + (["--smoke"] if args.smoke else [])
        out = subprocess.run(cmd, cwd=ROOT, text=True, stdout=subprocess.PIPE, timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"{wl['name']}: exit code {out.returncode}", file=sys.stderr)
            return 1
        results[wl["name"]] = json.loads(lines[-1])
        for name, m in results[wl["name"]]["metrics"].items():
            print(f"{wl['name']:16s} {name:28s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny preset, short inputs")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(_declared()["run_seconds"])
    if not (SRC / "aio1" / "__init__.py").is_file():
        print(f"no aio1 sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    args.nproc = _limit_blas_threads()
    sys.path.insert(0, str(SRC))
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
