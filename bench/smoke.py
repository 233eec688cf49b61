"""Smoke test of the benchmark itself.

Runs every workload, untraced and traced, on the tiny preset with short
inputs, and checks that:

* the last line of output is the result object with exactly the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics``, and the run is
  correct;
* the metric names are exactly the ``end_to_end`` (untraced) or
  ``per_layer`` (traced) names of ``BENCHMARK.json``, with their units;
* in a traced run the self times plus ``trace.other_s`` add up to
  ``trace.wall_s``;
* the benchmark exits with an error, printing no result, in a directory
  that holds only ``BENCHMARK.json`` and the benchmark's own files.

    python3 bench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# per-layer metrics in seconds that are not self times of a layer
NOT_SELF_TIMES = {"trace.overhead_s", "trace.other_s", "trace.wall_s"}


def _run(cwd: Path, workload: str, trace: int, smoke: bool = True):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(cmd, cwd=cwd, text=True, capture_output=True, timeout=600)


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: {message}")


def check_workload(bench: dict, workload: str, trace: int) -> None:
    out = _run(ROOT, workload, trace)
    _check(out.returncode == 0, f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    _check(set(result) == RESULT_KEYS, f"result keys {sorted(result)}")
    _check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace={trace} not correct:\n{out.stderr}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    emitted = {k: m["unit"] for k, m in result["metrics"].items()}
    _check(emitted == declared, f"{workload} trace={trace}: emitted {emitted} "
           f"but BENCHMARK.json declares {declared}")
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        parts = sum(v for k, v in m.items()
                    if k.endswith("_s") and k not in NOT_SELF_TIMES) + m["trace.other_s"]
        _check(abs(parts - m["trace.wall_s"]) <= 1e-6 * max(1.0, m["trace.wall_s"]),
               f"{workload}: self times + other = {parts}, wall = {m['trace.wall_s']}")
    print(f"ok {workload} trace={trace}")


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "bench", Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = _run(Path(tmp), "analyze_default", 0, smoke=False)
    lines = out.stdout.strip().splitlines()
    _check(out.returncode != 0 and not any(l.startswith("{\"correct\"") for l in lines),
           f"ran without sources: exit {out.returncode}, output {out.stdout!r}")
    print("ok refuses to run without the program's sources")


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    check_refuses_without_sources()
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_workload(bench, w["name"], trace)


if __name__ == "__main__":
    main()
