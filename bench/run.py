"""euler3d benchmark: four batch workloads, each like one subcommand run.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload sim-projected-n3 --seed 1 --seconds 20 --trace 0

Every set-up runs in a fresh child process (``child.py``) that imports the
package from ``src/``.  A run is one closed loop, one job at a time.  With
``--trace 0``, three children run one after another.  Each times its set-up,
then runs jobs while the next one is expected to end within a third of
``--seconds``; the first also runs the layer oracles (untimed) before its
jobs.  With ``--trace 1``, one child runs the oracles and then alternates
untraced and traced jobs for ``--seconds``, with spans recorded during its
set-up and its traced jobs.

Times are reported in calibrated seconds: wall seconds over the host's
slowdown, measured by a fixed kernel timed right before and after each set-up
and each job (``calibrate.py``).  Wall times are printed alongside.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json, or
with ``--trace 1`` its per-layer metrics).  The lines before it name every
metric with its unit, the environment, and the checks that failed.
``--smoke`` runs the same code at N=1 with small jobs, for the tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Why each workload: see README.md next to this file.
WORKLOADS = {
    "sim-projected-n3": {
        "kind": "sim", "N": 3, "aniso": [1.0, 1.0, 1.0], "which": "projected",
        "amplitude": 2.0, "dt": 1e-3, "steps": 10, "observe_every": 10,
        "calibration": {"setup": "scan", "job": "arrays"},
    },
    "sim-reduced-n2": {
        "kind": "sim", "N": 2, "aniso": [1.0, 0.3, 1.0], "which": "reduced",
        "amplitude": 2.0, "dt": 1e-3, "steps": 20, "observe_every": 10,
        "calibration": {"setup": "calls", "job": "calls"},
    },
    # the one failing check is the known collinear-pair defect of
    # reduced_identity_residual on anisotropic boxes; it is counted in
    # failed/failed_frac, never excluded, and an oracle over every collinear
    # pair makes it fail in every run, not only when a suite call samples one
    "verify-n2": {
        "kind": "verify", "N": 2, "aniso": [1.0, 0.3, 1.0], "cases": 200,
        "known_failures": ["reduced_identities"],
        "calibration": {"setup": "scan", "job": "calls"},
    },
    "rank-n3": {
        "kind": "rank", "N": 3, "aniso": [1.0, 1.0, 1.0],
        "calibration": {"setup": "scan", "job": "lapack"},
    },
}
SMOKE = {"N": 1, "steps": 10, "cases": 100}
CHILDREN = 3
RUN_LIMIT_S = 170.0
# BLAS threads, at most two.  The two vCPUs of a shared host slow down
# independently, and two threads spread each product over both: in paired
# runs this halved the run-to-run spread of the simulations.  Run one
# benchmark at a time: on oversubscribed CPUs, spin-waiting OpenBLAS threads
# made single jobs up to 15x slower.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


class ChildFailed(RuntimeError):
    pass


def run_child(cfg: dict, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(cfg)]
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child {cfg['child']} ran past the time limit") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child {cfg['child']} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="N=1 and small jobs (tests)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "euler3d", "__init__.py")):
        print(f"error: no euler3d source tree at {SRC}", file=sys.stderr)
        return 2

    spec = {"known_failures": [], **WORKLOADS[args.workload], **(SMOKE if args.smoke else {})}
    base = {**spec, "workload": args.workload, "seed": args.seed, "out_dir": OUT_DIR}
    children = []
    try:
        if args.trace:
            children.append(run_child({**base, "traced": True, "budget_s": args.seconds, "child": 0, "oracles": True}, deadline))
        # the children share --seconds of jobs: each gets an equal part of
        # what the earlier ones left, so a job of seconds is not cut to one per child
        left = args.seconds
        for n in range(0 if args.trace else CHILDREN):
            cfg = {**base, "traced": False, "budget_s": left / (CHILDREN - n), "child": n, "oracles": n == 0}
            children.append(run_child(cfg, deadline))
            left -= children[-1]["loop_s"]
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # a named check counts once per run and fails if it failed in any child
    checks: dict[str, bool] = {}
    for c in children:
        for name, ok in c["checks"].items():
            checks[name] = checks.get(name, True) and ok
    attempted, failed = len(checks), sum(not ok for ok in checks.values())
    unexpected = sorted(name for name, ok in checks.items() if not ok and name not in spec["known_failures"])
    # calibrated seconds: wall seconds over the host's slowdown (calibrate.py)
    setup_s = [wall / slow for wall, slow in (c["setup"] for c in children)]
    job_s = [wall / slow for c in children for wall, slow in c["jobs"]]
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
        **children[0]["env"],
    }
    e2e = {
        "setup_s": (statistics.median(setup_s), "s"),
        "job_s": (statistics.median(job_s), "s"),
        "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in children), "MiB"),
    }
    # per-workload metrics, printed where they apply
    report = {
        "setup_s": e2e["setup_s"],
        "setup_wall_s": (statistics.median(c["setup"][0] for c in children), "s"),
        "peak_rss_mb": e2e["peak_rss_mb"],
    }
    if spec["kind"] == "sim":
        steps = sum(c["steps"] for c in children)
        step_ms = [d for c in children for d in c["step_ms"]]
        report["steps_per_s"] = (steps / sum(job_s), "1/s")
        report["step_ms_p50"] = (statistics.median(step_ms), "ms")
        report["step_ms_p95"] = (percentile(step_ms, 95), "ms")
        report["step_samples"] = (len(step_ms), "count")
    elif spec["kind"] == "verify":
        report["verify_s"] = (e2e["job_s"][0], "s")
    else:
        report["rank_s"] = (e2e["job_s"][0], "s")
    report["job_wall_s"] = (statistics.median(wall for c in children for wall, _ in c["jobs"]), "s")
    report["host_slowdown"] = (statistics.median(slow for c in children for _, slow in c["jobs"]), "x")
    report["failed_frac"] = (failed / attempted, "frac")
    report["jobs"] = (len(job_s), "count")

    print(f"env: {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in report.items():
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    if failed:
        print(f"{args.workload}  failed checks: {', '.join(n for n, ok in checks.items() if not ok)} "
              f"({failed} of {attempted}); unexpected: {', '.join(unexpected) or 'none'}")

    if args.trace:
        metrics = children[0]["layers"]
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "children": children, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
