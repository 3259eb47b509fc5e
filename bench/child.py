"""One benchmark child process: a fresh interpreter, one set-up, then work.

Run by ``run.py`` as ``python3 child.py '<json config>'``; prints one JSON
object on its last stdout line.  A fresh process per set-up matters because
``ModeSet._pair_table``, ``ModeSet._field_operator`` and
``FrameSet._tilde_tables`` are lazy caches: a second set-up in the same
process would cost nothing.

Each child times its set-up, runs the layer oracles untimed if asked
(``oracles``), then runs jobs while the next one is expected to end within
its time budget.  The host's speed is calibrated around the set-up and
around each job (``calibrate.py``).  A ``traced`` child records spans during
set-up and alternates untraced and traced jobs.  Every job's output is
checked after its clock stops.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from types import SimpleNamespace

import numpy as np

import euler3d as e3
from euler3d import dynamics, equilibria, structures, verify

from calibrate import slowdowns, warm_up
from spans import Tracer, layer_metrics

# the field-operator oracle compares this many rows against the dense block sum
ORACLE_ROWS = 12
# pairs compared per reduced-coefficient route and for the assembled tensor
ORACLE_PAIRS = 48
ORACLE_RTOL = 1e-12
# the reduced field against the rotated full field (as in tests/test_dynamics.py)
LIFT_RTOL = 1e-11
# Drift of the invariants over one job, relative to their magnitude: energy
# to E0, helicity to the sum of its per-mode term magnitudes.  Criterion 07
# bounds drift by 1e-8 for its one reference state; on seeded random states
# at dt=1e-3, RK4 truncation alone reaches 1.3e-8 (identical for projected
# and reduced, 16x smaller at dt/2), so the per-job gate is 1e-6 and exact
# conservation is checked on the field itself (check_conservation).
DRIFT_TOL = 1e-6
DIVERGENCE_RTOL = 1e-10
# the identity suite's default tolerance
IDENTITY_TOL = 1e-12
# calls of the calibration kernel before a set-up, and again after it
SETUP_CALIBRATION = 3
# ranks of the N=3 and N=1 shear state and generic baseline corank at the seed commit
FROZEN_RANKS = {3: ({"rank": 540, "corank": 486}, [344]), 1: ({"rank": 28, "corank": 50}, [28])}
SHEAR = e3.ShearFlowSpec((1, 0, 0), (0.0, 0.0, 1.0), {1: 1.0})


class Tally:
    """The named checks of a run.  A check counts once, however many samples
    or jobs it covers, and fails if any of them failed, so the counts do not
    depend on how many jobs fit in the run.  ``run.py`` merges the children's
    checks the same way."""

    def __init__(self):
        self.results: dict[str, bool] = {}

    def check(self, name: str, ok: bool) -> None:
        self.results[name] = self.results.get(name, True) and bool(ok)


# -- set-up: from build_lattice until the job is ready, every lazy cache filled


def setup(cfg: dict) -> SimpleNamespace:
    modes = e3.build_lattice(e3.TruncationSpec(cfg["N"]), e3.AnisotropyMatrix(*cfg["aniso"]))
    modes.pair_table()
    frames = e3.FrameSet(modes)
    ctx = SimpleNamespace(cfg=cfg, modes=modes, frames=frames)
    kind = cfg["kind"]
    if kind == "sim":
        dynamics.half_field_evaluator(modes, cfg["which"], frames)
        ctx.state = e3.random_divfree_state(modes, cfg["seed"], cfg["amplitude"])
        if cfg["which"] == "reduced":
            structures.reduced_tables(frames)
            e3.to_reduced(ctx.state, frames)
    elif kind == "rank":
        # gradient_span_test evaluates the field at the shear state
        dynamics.half_field_evaluator(modes, "projected", frames)
        ctx.baseline_seeds = tuple(5 * cfg["seed"] + i for i in range(5))
    return ctx


def helicity_scale(state) -> float:
    """Sum of the magnitudes of the per-mode helicity terms."""
    W = state.full_values()
    cross = np.cross(W, W[state.modes.neg_index])
    terms = np.einsum("md,md->m", state.modes.wavevectors, cross) / state.modes.norms**2
    return float(np.sum(np.abs(terms)))


# -- jobs: what one euler3d subcommand run does after set-up


def sim_job(ctx, i):
    cfg = ctx.cfg
    stamps: list[float] = []
    _, records = e3.integrate(
        ctx.state,
        cfg["dt"],
        cfg["steps"],
        which=cfg["which"],
        frames=ctx.frames,
        observe_every=cfg["observe_every"],
        on_step=lambda step, t, s: stamps.append(time.perf_counter()),
    )
    return records, stamps


def verify_job(ctx, i):
    seed = 1000 * ctx.cfg["seed"] + 100 * ctx.cfg["child"] + i
    return verify.run_identity_suite(ctx.modes, ctx.frames, seed=seed, cases=ctx.cfg["cases"], workers=1)


def rank_job(ctx, i):
    comparison = equilibria.corank_comparison(
        SHEAR, ctx.modes, which="projected", seeds=ctx.baseline_seeds, frames=ctx.frames
    )
    eq = equilibria.shear_state(SHEAR, ctx.modes)
    tensor = structures.assemble_global(eq, ctx.modes, "projected", ctx.frames)
    return comparison, equilibria.gradient_span_test(eq, tensor)


JOBS = {"sim": sim_job, "verify": verify_job, "rank": rank_job}


# -- gates on each job's output, checked after its clock stops


def sim_gates(ctx, out, tally: Tally) -> None:
    records, _ = out
    E0, h0 = records[0].energy, records[0].helicity
    tally.check("energy_drift", max(abs(r.energy - E0) for r in records) <= DRIFT_TOL * abs(E0))
    tally.check("helicity_drift", max(abs(r.helicity - h0) for r in records) <= DRIFT_TOL * helicity_scale(ctx.state))
    tally.check("divergence", all(r.div_max <= DIVERGENCE_RTOL * r.amp_max for r in records))


def verify_gates(ctx, report, tally: Tally) -> None:
    tally.check("cases", report["cases"] == ctx.cfg["cases"])
    for name, entry in report["checks"].items():
        tally.check(name, entry["passed"])


def rank_gates(ctx, out, tally: Tally) -> None:
    comparison, span = out
    shear, baseline = FROZEN_RANKS[ctx.cfg["N"]]
    tally.check("kernel_excess", comparison["kernel_excess"] > 0)
    tally.check("grad_energy_in_kernel", span["grad_energy_in_kernel"])
    tally.check("span_fraction", span["span_residual_fraction"] >= 0.5)
    tally.check("shear_rank", comparison["shear"] == shear)
    tally.check("baseline_corank", comparison["baseline_coranks"] == baseline)


GATES = {"sim": sim_gates, "verify": verify_gates, "rank": rank_gates}


# -- layer oracles, run untimed before any timed work


def _relative_error(got, want) -> float:
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


def check_pair_table(ctx, rng, tally: Tally) -> None:
    modes = ctx.modes
    conv = modes.pair_table()
    ok = True
    for i, j in rng.integers(len(modes), size=(256, 2)):
        total = modes.indices[i] + modes.indices[j]
        ok &= conv[i, j] == (modes.position_of(total) if tuple(total) in modes else -1)
    tally.check("pair_table", bool(ok))


def check_full_field(ctx, state, which: str, rng, tally: Tally) -> None:
    """Sampled rows of the field against the dense block sum."""
    modes = ctx.modes
    block = {"simple": e3.simple_block, "projected": e3.projected_block}[which]
    W = state.full_values()
    conv = modes.pair_table()
    K = modes.wavevectors
    rows = rng.choice(len(modes), size=min(ORACLE_ROWS, len(modes)), replace=False)
    slow = np.zeros((len(rows), 3), dtype=complex)
    for r, pj in enumerate(rows):
        for pk in range(len(modes)):
            w = W[conv[pj, pk]] if conv[pj, pk] >= 0 else np.zeros(3, dtype=complex)
            slow[r] += block(K[pj], K[pk], w) @ (W[modes.neg_index[pk]] / modes.norms[pk] ** 2)
    fast = e3.vector_field_full(state, modes, which)[rows]
    tally.check(f"full_field_{which}", _relative_error(fast, slow) <= ORACLE_RTOL)


def check_assembly(ctx, state, rng, tally: Tally) -> None:
    """Sampled blocks of the assembled projected tensor against projected_block."""
    modes = ctx.modes
    tensor = e3.assemble_global(state, modes, "projected", ctx.frames)
    W = state.full_values()
    conv = modes.pair_table()
    K = modes.wavevectors
    worst = 0.0
    for pj, pk in rng.integers(len(modes), size=(ORACLE_PAIRS, 2)):
        w = W[conv[pj, pk]] if conv[pj, pk] >= 0 else np.zeros(3, dtype=complex)
        worst = max(worst, _relative_error(tensor.block(pj, pk), e3.projected_block(K[pj], K[pk], w)))
    tally.check("assemble_global", worst <= ORACLE_RTOL)


def check_reduced_coefficients(ctx, coefficients, rng, tally: Tally) -> None:
    """(Ty, Tz) on pairs of every route against rotated_block conjugation."""
    modes, frames = ctx.modes, ctx.frames
    conv = modes.pair_table()
    K = modes.wavevectors
    # stratify by how many of j, k, j+k lie on the x axis (the reference),
    # so that the rare axis and all-on-axis pairs are always sampled
    on_axis = ~modes.indices[:, 1:].any(axis=1)
    pj, pk = np.nonzero(conv >= 0)
    strata = on_axis[pj].astype(int) + on_axis[pk] + on_axis[conv[pj, pk]]
    worst = 0.0
    for stratum in np.unique(strata):
        members = np.flatnonzero(strata == stratum)
        for n in rng.choice(members, size=min(ORACLE_PAIRS, len(members)), replace=False):
            Ty, Tz = coefficients(pj[n], pk[n])
            for T, e in ((Ty, [0.0, 1.0, 0.0]), (Tz, [0.0, 0.0, 1.0])):
                want = e3.rotated_block(K[pj[n]], K[pk[n]], np.array(e), frames)[1:, 1:].real
                worst = max(worst, _relative_error(T, want))
    tally.check("reduced_coefficients", worst <= ORACLE_RTOL)


def check_reduced_field(ctx, tally: Tally) -> None:
    """The reduced field against the full field rotated into the frames."""
    modes, frames, state = ctx.modes, ctx.frames, ctx.state
    f_red = e3.vector_field_reduced(e3.to_reduced(state, frames), modes, frames)
    checked = np.einsum("mab,mb->ma", frames.R, e3.vector_field_full(state, modes, "simple"))
    scale = max(1.0, float(np.max(np.abs(checked))))
    ok = float(np.max(np.abs(checked[:, 0]))) <= LIFT_RTOL * scale
    ok &= float(np.max(np.abs(f_red - checked[:, 1:]))) <= LIFT_RTOL * scale
    tally.check("reduced_field", ok)


def check_conservation(ctx, tally: Tally) -> None:
    """Energy and helicity rates grad . f of the workload's field vanish."""
    modes, frames, state, which = ctx.modes, ctx.frames, ctx.state, ctx.cfg["which"]
    if which == "reduced":
        checked = np.zeros((len(modes), 3), dtype=complex)
        checked[:, 1:] = e3.vector_field_reduced(e3.to_reduced(state, frames), modes, frames)
        f = np.einsum("mab,ma->mb", frames.R, checked)
    else:
        f = e3.vector_field_full(state, modes, which)
    for name, grad in (("energy_rate", e3.grad_energy(state)), ("helicity_rate", e3.grad_helicity(state))):
        rate = abs(np.sum(grad * f))
        tally.check(name, rate <= ORACLE_RTOL * float(np.sum(np.abs(grad) * np.abs(f))))


def check_collinear_identities(ctx, tally: Tally) -> None:
    """The suite's ``reduced_identities`` on every collinear pair of modes.

    Collinear pairs are where the known defect of ``reduced_identity_residual``
    sits, and a suite call samples one only now and then; sweeping them all
    makes the check's outcome the same in every run.
    """
    idx = ctx.modes.indices
    for aj in idx:
        for ak in idx[~np.cross(idx, aj).any(axis=1)]:
            tally.check("reduced_identities", verify.reduced_identity_residual(aj, ak, ctx.frames) <= IDENTITY_TOL)


def run_oracles(ctx, tally: Tally) -> None:
    cfg = ctx.cfg
    rng = np.random.default_rng([cfg["seed"], 7])
    check_pair_table(ctx, rng, tally)
    kind = cfg["kind"]
    if kind == "sim":
        check_full_field(ctx, ctx.state, "simple" if cfg["which"] == "reduced" else cfg["which"], rng, tally)
        if cfg["which"] == "reduced":
            tables = structures.reduced_tables(ctx.frames)
            check_reduced_coefficients(ctx, lambda pj, pk: (tables.Ty[pj, pk], tables.Tz[pj, pk]), rng, tally)
            check_reduced_field(ctx, tally)
        check_conservation(ctx, tally)
        return
    state = e3.random_divfree_state(ctx.modes, cfg["seed"], 1.0)
    check_assembly(ctx, state, rng, tally)
    if kind == "rank":
        check_full_field(ctx, state, "projected", rng, tally)
    else:
        K = ctx.modes.wavevectors

        def coefficients(pj, pk):
            return structures.reduced_coefficients(K[pj], K[pk], ctx.frames)[:2]

        check_reduced_coefficients(ctx, coefficients, rng, tally)
        check_collinear_identities(ctx, tally)


# -- the child process


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "euler3d": e3.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def table_bytes(modes) -> int:
    """Bytes of the field operator's index tables, computed from array sizes."""
    op = getattr(modes, "_field_operator", None)
    if op is None:
        return 0
    return sum(v.nbytes for v in vars(op).values() if isinstance(v, np.ndarray))


def run_jobs(ctx, tally: Tally, tracer: Tracer | None, setup_slow: list[float]):
    """Jobs while the next one is expected to end within the budget (at least
    one); a traced child alternates untraced and traced jobs, in pairs.  The
    host's speed is calibrated right before and after each job
    (``calibrate.py``), and the set-up kernel's slowdowns over the jobs are
    added to ``setup_slow``.
    Returns ``(wall time, slowdown, output)`` of each untraced and each
    traced job, and the span summary of each traced job; an aborted job's
    output is None."""
    job, gates = JOBS[ctx.cfg["kind"]], GATES[ctx.cfg["kind"]]
    kernel = ctx.cfg["calibration"]["job"]
    setup_kernel = ctx.cfg["calibration"]["setup"]
    warm_up(kernel)
    untraced, traced_jobs, summaries = [], [], []
    begin = time.perf_counter()
    i = 0

    def another() -> bool:
        if i < (2 if tracer else 1) or (tracer and i % 2):
            return True
        spent = time.perf_counter() - begin
        return spent + spent / i <= ctx.cfg["budget_s"]

    while another():
        traced = tracer is not None and i % 2 == 1
        before = slowdowns(kernel)
        if traced:
            first = len(tracer.spans)
            tracer.install()
        start = time.perf_counter()
        try:
            out = job(ctx, i)
        except Exception as exc:  # an aborted job is a failed check, never hidden
            out = None
            print(f"job {i} aborted: {exc!r}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            summaries.append(tracer.summary(first))
        after = slowdowns(kernel)
        slow = statistics.median(before + after)
        setup_slow += (before + after) if setup_kernel == kernel else slowdowns(setup_kernel)
        (traced_jobs if traced else untraced).append((elapsed, slow, out))
        tally.check("job_completed", out is not None)
        if out is not None:
            gates(ctx, out, tally)
        i += 1
    return untraced, traced_jobs, summaries


def layers(ctx, tracer: Tracer, setup_spans: dict, setup_counts: Counter, untraced, traced_jobs, summaries):
    """Per-layer metrics of a traced child: one set-up plus one average job."""
    n = len(summaries)
    counts = {k: setup_counts[k] + (v - setup_counts[k]) / n for k, v in tracer.counts.items()}
    reports = [out for _, _, out in untraced + traced_jobs if out is not None] if ctx.cfg["kind"] == "verify" else []
    facts = {
        "modes": len(ctx.modes),
        "valid_pairs": int(np.count_nonzero(ctx.modes.pair_table() >= 0)),
        "table_bytes": table_bytes(ctx.modes),
        "verify_cases": np.mean([sum(c["cases"] for c in r["checks"].values()) for r in reports]) if reports else 0,
        "verify_checks_failed": (
            np.mean([sum(not c["passed"] for c in r["checks"].values()) for r in reports]) if reports else 0
        ),
    }
    calibrated = [[wall / slow for wall, slow, _ in jobs] for jobs in (traced_jobs, untraced)]
    overhead = float(np.median(calibrated[0]) / np.median(calibrated[1]) - 1.0)
    return layer_metrics(setup_spans, summaries, counts, facts, overhead)


def main(cfg: dict) -> dict:
    tally = Tally()
    tracer = Tracer() if cfg["traced"] else None
    # The set-up is calibrated by all its kernel's calls in this child, also
    # those during the jobs: right after the interpreter starts the calls
    # kernel reads up to 1.7x its slowdown during the jobs, and a set-up of
    # seconds spans many changes of the host's speed anyway.
    kernel = cfg["calibration"]["setup"]
    warm_up(kernel)
    slow = slowdowns(kernel, SETUP_CALIBRATION)
    if tracer:
        tracer.install()
    start = time.perf_counter()
    ctx = setup(cfg)
    setup_s = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
        setup_spans, setup_counts = tracer.summary(), Counter(tracer.counts)
    slow += slowdowns(kernel, SETUP_CALIBRATION)
    if cfg["oracles"]:
        run_oracles(ctx, tally)
    begin = time.perf_counter()
    untraced, traced_jobs, summaries = run_jobs(ctx, tally, tracer, slow)

    # (wall seconds, slowdown) of the set-up and of each untraced job, and the
    # wall seconds of the job loop
    result = {
        "setup": (setup_s, statistics.median(slow)),
        "jobs": [j[:2] for j in untraced],
        "loop_s": time.perf_counter() - begin,
        "env": environment(),
    }
    if cfg["kind"] == "sim":
        result["steps"] = cfg["steps"] * len(untraced)
        # calibrated step latencies, each divided by its job's slowdown
        result["step_ms"] = [
            1e3 * d / slow for _, slow, out in untraced if out is not None for d in np.diff(out[1])
        ]
    if tracer:
        result["layers"] = layers(ctx, tracer, setup_spans, setup_counts, untraced, traced_jobs, summaries)
        os.makedirs(cfg["out_dir"], exist_ok=True)
        path = os.path.join(cfg["out_dir"], f"spans-{cfg['workload']}-seed{cfg['seed']}.json")
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["checks"] = tally.results
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
