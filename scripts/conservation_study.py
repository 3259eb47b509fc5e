#!/usr/bin/env python3
"""Energy/helicity drift of the truncated dynamics under step refinement.

The assembled structure is exactly antisymmetric and the helicity pairing
survives the box truncation, so both invariants are conserved by the ODE;
what this measures is pure integrator error, which should shrink ~16x per
halving of dt.

Usage: python scripts/conservation_study.py [--N 2] [--T 1.0] [--amplitude 2.0] [--structure projected]
"""

import argparse
import time

from euler3d import AnisotropyMatrix, FrameSet, TruncationSpec, build_lattice, energy, helicity, random_divfree_state
from euler3d.dynamics import integrate
from euler3d.structures import STRUCTURES


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--N", type=int, default=2)
    ap.add_argument("--T", type=float, default=1.0)
    ap.add_argument("--dts", type=float, nargs="+", default=[4e-3, 2e-3, 1e-3, 5e-4])
    ap.add_argument("--amplitude", type=float, default=2.0)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--structure", default="projected", choices=STRUCTURES)
    args = ap.parse_args()

    modes = build_lattice(TruncationSpec(args.N), AnisotropyMatrix())
    frames = FrameSet(modes)
    s0 = random_divfree_state(modes, seed=args.seed, amplitude=args.amplitude)
    E0, h0 = energy(s0), helicity(s0)
    print(f"N={args.N} ({len(modes)} modes)  E0={E0!r}  h0={h0!r}")
    print(f"{'dt':>10} {'steps':>8} {'|dE|/E':>12} {'|dh|':>12} {'div_max':>12} {'wall s':>8}")
    prev = None
    for dt in args.dts:
        steps = round(args.T / dt)
        tic = time.time()
        _, recs = integrate(
            s0, dt, steps, which=args.structure, frames=frames, observe_every=max(1, steps // 10)
        )
        wall = time.time() - tic
        dE = abs(recs[-1].energy - E0) / abs(E0)
        dh = abs(recs[-1].helicity - h0)
        div = max(r.div_max for r in recs)
        note = "" if prev is None else f"  (x{prev / dE:.1f})" if dE > 0 else ""
        print(f"{dt:>10.1e} {steps:>8d} {dE:>12.3e} {dh:>12.3e} {div:>12.3e} {wall:>8.1f}{note}")
        prev = dE
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
