"""Span recorder that wraps euler3d's public functions from the outside.

Nothing inside ``src/`` is edited.  Each target is replaced at every name a
caller can look it up by: methods and constructors are patched on their
class, and module-level functions are rebound in every ``euler3d`` module
namespace that holds them (``euler3d.FrameSet`` is a re-export,
``equilibria`` imports ``to_reduced`` by name, ``verify`` reaches blocks
through the ``structures`` module).  Spans are kept in memory as
``[name, start, end, parent]`` and written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# span name -> (module, attribute); "Class.method" patches the class
TARGETS = {
    "lattice.pair_table": ("euler3d.lattice", "ModeSet.pair_table"),
    "frames.frameset": ("euler3d.frames", "FrameSet.__init__"),
    "structures.reduced_tables": ("euler3d.structures", "ReducedTables.__init__"),
    "structures.reduced_coefficients": ("euler3d.structures", "reduced_coefficients"),
    "structures.simple_block": ("euler3d.structures", "simple_block"),
    "structures.projected_block": ("euler3d.structures", "projected_block"),
    "structures.rotated_block": ("euler3d.structures", "rotated_block"),
    "structures.assemble_global": ("euler3d.structures", "assemble_global"),
    "dynamics.field_operator": ("euler3d.dynamics", "FieldOperator.__init__"),
    "dynamics.full_field": ("euler3d.dynamics", "FieldOperator.full_field"),
    "dynamics.reduced_field": ("euler3d.dynamics", "FieldOperator.reduced_field"),
    "dynamics.rk4_step": ("euler3d.dynamics", "rk4_step"),
    # the diagnostics of one record: energy, helicity, divergence, amplitude
    "observables.diagnostics": ("euler3d.dynamics", "_diagnostics"),
    "state.to_reduced": ("euler3d.state", "to_reduced"),
    "state.from_reduced": ("euler3d.state", "from_reduced"),
    "verify.suite": ("euler3d.verify", "run_identity_suite"),
    "verify.poisson_rank": ("euler3d.verify", "poisson_rank"),
    "verify.kernel_contains": ("euler3d.verify", "kernel_contains"),
    "equilibria.corank_comparison": ("euler3d.equilibria", "corank_comparison"),
    "equilibria.gradient_span_test": ("euler3d.equilibria", "gradient_span_test"),
}

# the identity checks the suite sweeps; one span family, "verify.checks"
CHECKS = (
    "check_antisymmetry",
    "kernel_residuals",
    "difference_residual",
    "jacobi_residual",
    "jacobi_scale",
    "jacobi_residual_normalized",
    "casimir_identity_residual",
    "divergence_casimir_check",
    "reduced_identity_residual",
    "cross_check_tilde",
)
TARGETS.update({f"verify.{name}": ("euler3d.verify", name) for name in CHECKS})

BLOCKS = ("structures.simple_block", "structures.projected_block", "structures.rotated_block")
ROUTES = ("generic", "axis", "conjugation")


def _count_route(counts: Counter, result) -> None:
    counts[f"structures.routes.{result[2]}"] += 1


COUNTERS = {"structures.reduced_coefficients": _count_route}


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if count is not None:
                count(counts, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in list(sys.modules.items()) if n == "euler3d" or n.startswith("euler3d.")]
        for name, (module, attr) in TARGETS.items():
            owner = sys.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                sites = [owner]
            else:
                sites = namespaces
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            for site in sites:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._patches.append((site, key, original))
                        setattr(site, key, wrapper)

    def uninstall(self) -> None:
        for site, key, original in reversed(self._patches):
            setattr(site, key, original)
        self._patches.clear()

    def fired(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def summary(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, over spans[first:]."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans[first:]:
            if span[3] >= first:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, dict[str, float]] = {}
        for i in range(first, len(spans)):
            name, start, end, _ = spans[i]
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out


def layer_metrics(setup: dict, jobs: list[dict], counts: dict, facts: dict, overhead: float) -> dict:
    """Per-layer metrics for one setup plus one job (job spans averaged).

    ``setup`` and each entry of ``jobs`` are Tracer.summary() results; ``counts``
    holds the boundary counters of the same setup plus one job; ``facts`` the
    sizes read off the set-up objects.
    """
    n = max(len(jobs), 1)

    def get(name: str, key: str) -> float:
        return setup.get(name, {}).get(key, 0.0) + sum(j.get(name, {}).get(key, 0.0) for j in jobs) / n

    def ms(name: str, key: str = "total_s") -> float:
        """Mean milliseconds per call."""
        calls = get(name, "calls")
        return 1e3 * get(name, key) / calls if calls else 0.0

    def family(names: list[str], key: str) -> float:
        return sum(get(name, key) for name in names)

    checks = [f"verify.{c}" for c in CHECKS]
    m = {
        "lattice.pair_table_s": (get("lattice.pair_table", "total_s"), "s"),
        "lattice.modes": (facts["modes"], "count"),
        "lattice.valid_pairs": (facts["valid_pairs"], "count"),
        "frames.frameset_s": (get("frames.frameset", "total_s"), "s"),
        "structures.reduced_tables_s": (get("structures.reduced_tables", "total_s"), "s"),
        "structures.reduced_coefficients.calls": (get("structures.reduced_coefficients", "calls"), "count"),
        "structures.reduced_coefficients.self_s": (get("structures.reduced_coefficients", "self_s"), "s"),
    }
    for route in ROUTES:
        m[f"structures.routes.{route}"] = (counts.get(f"structures.routes.{route}", 0), "count")
    m.update(
        {
            "structures.blocks.calls": (family(BLOCKS, "calls"), "count"),
            "structures.blocks.self_s": (family(BLOCKS, "self_s"), "s"),
            "structures.assemble_global.calls": (get("structures.assemble_global", "calls"), "count"),
            "structures.assemble_global.ms": (ms("structures.assemble_global"), "ms"),
            "dynamics.field_operator_s": (get("dynamics.field_operator", "total_s"), "s"),
            "dynamics.table_bytes": (facts["table_bytes"], "bytes"),
            "dynamics.full_field.calls": (get("dynamics.full_field", "calls"), "count"),
            "dynamics.full_field.ms": (ms("dynamics.full_field"), "ms"),
            "dynamics.reduced_field.calls": (get("dynamics.reduced_field", "calls"), "count"),
            "dynamics.reduced_field.ms": (ms("dynamics.reduced_field"), "ms"),
            "dynamics.rk4_step.self_ms": (ms("dynamics.rk4_step", "self_s"), "ms"),
            "observables.diagnostics.calls": (get("observables.diagnostics", "calls"), "count"),
            "observables.diagnostics.ms": (ms("observables.diagnostics"), "ms"),
            "state.to_reduced.calls": (get("state.to_reduced", "calls"), "count"),
            "state.to_reduced.ms": (ms("state.to_reduced"), "ms"),
            "state.from_reduced.calls": (get("state.from_reduced", "calls"), "count"),
            "state.from_reduced.ms": (ms("state.from_reduced"), "ms"),
            "verify.checks.self_s": (family(checks, "self_s"), "s"),
            "verify.suite.self_s": (get("verify.suite", "self_s"), "s"),
            "verify.cases": (facts["verify_cases"], "count"),
            "verify.checks_failed": (facts["verify_checks_failed"], "count"),
            "verify.poisson_rank.calls": (get("verify.poisson_rank", "calls"), "count"),
            "verify.poisson_rank.self_s": (get("verify.poisson_rank", "self_s"), "s"),
            "verify.kernel_contains_s": (get("verify.kernel_contains", "total_s"), "s"),
            "equilibria.corank_comparison_s": (get("equilibria.corank_comparison", "total_s"), "s"),
            "equilibria.gradient_span_s": (get("equilibria.gradient_span_test", "total_s"), "s"),
            "trace.overhead_frac": (overhead, "frac"),
        }
    )
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in m.items()}
