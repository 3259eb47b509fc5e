"""Command-line front end.

Subcommands: verify | simulate | shear | rank | export.  All runs are driven
by one JSON config (``--config``) with ``--set key=value`` overrides; outputs
are byte-stable given identical config and seeds.  Exit codes: 0 ok,
1 identity/acceptance failure, 2 config error, 3 runtime blow-up or a
result that overflows (a non-finite field, residual or real form).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import RunConfig, load_config
from .errors import (
    BlowUpError,
    ConfigError,
    NonFiniteError,
    NotAnEquilibriumError,
    NotDivergenceFreeError,
    OutOfLatticeError,
    TruncationTooSmallError,
)
from .frames import FrameSet
from .lattice import AnisotropyMatrix, TruncationSpec, build_lattice
from . import dynamics, equilibria, state as state_mod, structures, verify

EQUILIBRIUM_TOL = 1e-14

EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_BLOWUP = 0, 1, 2, 3


def _setup(cfg: RunConfig):
    modes = build_lattice(TruncationSpec(cfg.N), AnisotropyMatrix(*cfg.aniso))
    frames = FrameSet(modes, np.asarray(cfg.n_vector, dtype=float))
    return modes, frames


def _write_json(payload: dict, path: str) -> None:
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a NaN or an infinity, which JSON cannot hold
        raise NonFiniteError(f"{os.path.basename(path)} would hold a non-finite number: {exc}") from exc
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _initial_state(cfg: RunConfig, modes):
    kind = cfg.initial["kind"]
    if kind == "random":
        return state_mod.random_divfree_state(modes, cfg.seed, cfg.amplitude), 0.0
    if kind == "snapshot":
        path = cfg.initial["path"]
        try:
            with open(path) as fh:
                return state_mod.state_from_snapshot(modes, fh.read())
        except (OSError, ValueError, TypeError, OverflowError) as exc:  # a malformed file, body or number
            raise ConfigError(f"cannot read snapshot {path}: {exc}") from exc
    return equilibria.shear_state(_shear_spec(cfg), modes), 0.0


def cmd_verify(cfg: RunConfig) -> int:
    modes, frames = _setup(cfg)
    report = verify.run_identity_suite(
        modes,
        frames,
        seed=cfg.seed,
        cases=cfg.cases,
        identity_tol=cfg.tolerances.identity,
    )
    _write_json(report, os.path.join(cfg.output_dir, "verify_report.json"))
    for name, entry in report["checks"].items():
        mark = "info" if entry.get("informational") else ("pass" if entry["passed"] else "FAIL")
        tol = "-" if entry["tolerance"] is None else f"{entry['tolerance']:.1e}"
        print(f"{mark}  {name}: max residual {entry['max_residual']:.3e} "
              f"(tol {tol}, {entry['cases']} cases)")
    print(f"overall: {'pass' if report['passed'] else 'FAIL'}")
    return EXIT_OK if report["passed"] else EXIT_FAIL


def cmd_simulate(cfg: RunConfig) -> int:
    modes, frames = _setup(cfg)
    initial, t0 = _initial_state(cfg, modes)
    if not np.isfinite(t0 + cfg.steps * cfg.dt):  # t0 + i dt is monotone in i: every earlier time is finite
        raise ConfigError(f"final time t0 + steps * dt = {t0!r} + {cfg.steps} * {cfg.dt!r} is not finite")
    os.makedirs(cfg.output_dir, exist_ok=True)

    def snapshot_path(step: int) -> str:
        return os.path.join(cfg.output_dir, f"state_{step:08d}.json")

    def on_step(step: int, t: float, current) -> None:
        if cfg.snapshot_every and step % cfg.snapshot_every == 0:
            with open(snapshot_path(step), "w") as fh:
                fh.write(state_mod.snapshot_json(current, t))

    try:
        final, records = dynamics.integrate(
            initial,
            cfg.dt,
            cfg.steps,
            which=cfg.structure,
            frames=frames,
            observe_every=cfg.observe_every,
            t0=t0,
            on_step=on_step,
            div_rtol=cfg.tolerances.divergence,
        )
    except BlowUpError as err:
        dynamics.write_diagnostics_csv(err.records, os.path.join(cfg.output_dir, "diagnostics.csv"))
        last = os.path.join(cfg.output_dir, "last_good_state.json")
        with open(last, "w") as fh:
            fh.write(state_mod.snapshot_json(err.last_state, err.t))
        print(f"blow-up at step {err.step}; last good state saved to {last}", file=sys.stderr)
        return EXIT_BLOWUP

    dynamics.write_diagnostics_csv(records, os.path.join(cfg.output_dir, "diagnostics.csv"))
    with open(os.path.join(cfg.output_dir, "final_state.json"), "w") as fh:
        fh.write(state_mod.snapshot_json(final, t0 + cfg.dt * cfg.steps))
    first, last = records[0], records[-1]
    drift_e = abs(last.energy - first.energy) / max(abs(first.energy), 1e-300)
    drift_h = abs(last.helicity - first.helicity) / max(1.0, abs(first.helicity))
    div_worst = max(r.div_max for r in records)
    print(f"energy drift {drift_e!r}")
    print(f"helicity drift {drift_h!r}")
    print(f"worst divergence residual {div_worst!r}")
    return EXIT_OK


def _shear_spec(cfg: RunConfig) -> equilibria.ShearFlowSpec:
    try:
        return equilibria.ShearFlowSpec(tuple(cfg.shear["p"]), tuple(cfg.shear["G"]), cfg.shear_coefficients())
    except ValueError as exc:  # p zero or not coprime, an n = 0 harmonic, or c_-n != conj(c_n)
        raise ConfigError(f"shear: {exc}") from exc


def cmd_shear(cfg: RunConfig) -> int:
    modes, frames = _setup(cfg)
    spec = _shear_spec(cfg)
    eq = equilibria.shear_state(spec, modes)
    residuals = {
        which: equilibria.equilibrium_residual(eq, which, frames)
        for which in ("direct", "simple", "projected", "reduced")
    }
    report = {
        "p": list(spec.p),
        "G": list(spec.G),
        "harmonics": spec.harmonics,
        "residuals": residuals,
        "tolerance": EQUILIBRIUM_TOL,
        "passed": all(r <= EQUILIBRIUM_TOL for r in residuals.values()),
    }
    _write_json(report, os.path.join(cfg.output_dir, "shear_report.json"))
    for which, r in residuals.items():
        print(f"{which}: residual {r:.3e}")
    return EXIT_OK if report["passed"] else EXIT_FAIL


def cmd_rank(cfg: RunConfig) -> int:
    modes, frames = _setup(cfg)
    spec = _shear_spec(cfg)
    comparison = equilibria.corank_comparison(
        spec, modes, which="projected" if cfg.structure == "direct" else cfg.structure,
        seeds=tuple(range(5 * cfg.seed, 5 * cfg.seed + 5)), tol=cfg.tolerances.rank, frames=frames,
    )
    eq = equilibria.shear_state(spec, modes)
    # the gradient span analysis lives in full coordinates regardless of the
    # structure used for the rank comparison
    tensor = structures.assemble_global(eq, modes, "projected", frames)
    try:
        span = equilibria.gradient_span_test(eq, tensor)
    except NotAnEquilibriumError as exc:
        print(f"identity failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    report = {"corank_comparison": comparison, "gradient_span": span, "seed": cfg.seed}
    _write_json(report, os.path.join(cfg.output_dir, "rank_report.json"))
    print(json.dumps(report["corank_comparison"], indent=2, sort_keys=True))
    print(f"grad energy in kernel: {span['grad_energy_in_kernel']}")
    print(f"span residual fraction: {span['span_residual_fraction']:.3f}")
    return EXIT_OK


def cmd_export(cfg: RunConfig) -> int:
    modes, frames = _setup(cfg)
    initial, _ = _initial_state(cfg, modes)
    which = cfg.structure if cfg.structure != "direct" else "simple"
    tensor = structures.assemble_global(initial, modes, which, frames)
    os.makedirs(cfg.output_dir, exist_ok=True)
    prefix = os.path.join(cfg.output_dir, f"tensor_{which}")
    bin_path, json_path = tensor.save(prefix)
    with open(os.path.join(cfg.output_dir, "modes.json"), "w") as fh:
        fh.write(modes.to_json())
    print(f"wrote {bin_path} and {json_path}")
    return EXIT_OK


COMMANDS = {
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "shear": cmd_shear,
    "rank": cmd_rank,
    "export": cmd_export,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="euler3d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a top-level config key (value parsed as JSON)",
        )
        p.add_argument("--out", help="output directory (overrides output_dir)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        if args.out:
            cfg.output_dir = args.out
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return COMMANDS[args.command](cfg)
    except (ConfigError, TruncationTooSmallError, NotDivergenceFreeError, OutOfLatticeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
