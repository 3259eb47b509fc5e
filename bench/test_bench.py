"""Tests of the benchmark itself, at N=1.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

# the spans each workload must fire, from the layer-to-metric map in README.md
FIRES = {
    "sim-projected-n3": {
        "lattice.pair_table", "frames.frameset", "dynamics.field_operator",
        "dynamics.full_field", "dynamics.rk4_step", "observables.diagnostics",
    },
    "sim-reduced-n2": {
        "lattice.pair_table", "frames.frameset", "structures.reduced_tables",
        "structures.reduced_coefficients", "dynamics.field_operator", "dynamics.reduced_field",
        "dynamics.rk4_step", "observables.diagnostics", "state.to_reduced", "state.from_reduced",
    },
    "verify-n2": {
        "lattice.pair_table", "frames.frameset", "structures.reduced_coefficients",
        "structures.simple_block", "structures.projected_block", "structures.rotated_block",
        "structures.assemble_global", "verify.suite",
    } | {name for name in TARGETS if name.startswith("verify.") and name not in (
        "verify.suite", "verify.poisson_rank", "verify.kernel_contains")},
    "rank-n3": {
        "lattice.pair_table", "frames.frameset", "dynamics.field_operator", "dynamics.full_field",
        "structures.assemble_global", "verify.poisson_rank", "verify.kernel_contains",
        "equilibria.corank_comparison", "equilibria.gradient_span_test",
    },
}


def _run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_file_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "bench/run.py"]


def test_every_span_fires_on_some_workload():
    assert set(TARGETS) == set().union(*FIRES.values())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_spans_fire_on_their_workload(workload):
    cfg = {"known_failures": [], **run.WORKLOADS[workload], **run.SMOKE, "seed": 3, "child": 0}
    originals = {name: getattr(child.e3, name) for name in ("FrameSet", "integrate", "assemble_global")}
    init = child.e3.FrameSet.__init__
    tracer = Tracer()
    tracer.install()
    try:
        ctx = child.setup(cfg)
        child.JOBS[cfg["kind"]](ctx, 0)
    finally:
        tracer.uninstall()
    assert FIRES[workload] <= set(tracer.fired())
    assert child.e3.FrameSet.__init__ is init
    assert all(getattr(child.e3, name) is fn for name, fn in originals.items())


def test_a_check_counts_once_per_run():
    tally = child.Tally()
    for ok in (True, False, True):
        tally.check("gate", ok)
    tally.check("oracle", True)
    assert tally.results == {"gate": False, "oracle": True}


def test_known_failure_shows_in_every_run():
    cfg = {"known_failures": [], **run.WORKLOADS["verify-n2"], "seed": 3, "child": 0}
    ctx = child.setup(cfg)
    tally = child.Tally()
    child.check_collinear_identities(ctx, tally)
    assert tally.results == {"reduced_identities": False}
    assert run.WORKLOADS["verify-n2"]["known_failures"] == ["reduced_identities"]


def test_calibration_kernels_run():
    for kernel in calibrate.KERNELS:
        assert len(calibrate.slowdowns(kernel, 3)) == 3
        assert all(s > 0 for s in calibrate.slowdowns(kernel))


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans.extend([["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["inner", 5.0, 6.0, 0]])
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 6.0}
    assert summary["inner"]["calls"] == 2


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "verify-n2", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
