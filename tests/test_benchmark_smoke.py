"""The benchmark's traced smoke runs of ``analyze_default`` and
``train_default``.

The analyze tracks are 300-400 frames, so the front end runs in more
than one time tile. The runs fail when a change breaks the tracer's span
names (``frontend.conv1`` .. ``conv3`` are counted per
``frontend_forward`` call), the metric set that ``BENCHMARK.json``
declares, or the argument positions the tracer reads: a misread
signature leaves a layer's time at 0 instead of failing the run.
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


def test_traced_train_default_times_every_layer():
    smoke = _smoke_module()
    out = smoke._run(ROOT, "train_default", 1)
    assert out.returncode == 0, out.stderr
    assert "not found" not in out.stderr, out.stderr
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    for name in ("train.forward_s", "train.val_s", "block0.dina1_s", "block0.dina2_s",
                 "block0.inst_s", "block0.mlp_s", "frontend.conv1_s", "frontend.conv2_s",
                 "frontend.conv3_s", "frontend.pool_s"):
        assert metrics[name]["value"] > 0, name
