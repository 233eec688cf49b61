"""The benchmark's traced smoke run of ``analyze_default``.

Its tracks are 300-400 frames, so the front end runs in more than one
time tile. The run fails when a change breaks the tracer's span names
(``frontend.conv1`` .. ``conv3`` are counted per ``frontend_forward``
call) or the metric set that ``BENCHMARK.json`` declares.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _smoke_module():
    spec = importlib.util.spec_from_file_location("bench_smoke", ROOT / "bench" / "smoke.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_analyze_default_smoke_run():
    smoke = _smoke_module()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        smoke.check_workload(bench, "analyze_default", 1)
    except SystemExit as exc:
        pytest.fail(str(exc))
