"""Shear-flow equilibria and the singularity of the bracket at them.

A shear flow has vorticity supported on one wavevector line n*p with a fixed
real amplitude direction G perpendicular to p.  Every such state is a fixed
point of the truncated dynamics for all structure choices.  At these states
the energy gradient joins the kernel of the assembled tensor without being a
combination of the known Casimir gradients, and the kernel is strictly
larger than at a generic state: the bracket is singular there, which is
what blocks the usual energy-Casimir stability argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteError, NotAnEquilibriumError, NotDivergenceFreeError, TruncationTooSmallError
from .frames import FrameSet, leray_project
from .lattice import ModeSet
from . import dynamics, observables
from . import structures as st
from . import verify
from .state import VorticityState, random_divfree_state, to_reduced


@dataclass(frozen=True)
class ShearFlowSpec:
    """Vorticity profile G * C(p . x) with Fourier coefficients c_n.

    p: integer direction with coprime components; G: real amplitude vector,
    which ``shear_state`` checks against the physical wavevector of p;
    coefficients: {n: c_n} with c_{-n} = conj(c_n) (one-sided input is
    mirrored automatically).
    """

    p: tuple[int, int, int]
    G: tuple[float, float, float]
    coefficients: dict[int, complex] = field(default_factory=lambda: {1: 1.0})

    def __post_init__(self) -> None:
        p = tuple(int(c) for c in self.p)
        if p == (0, 0, 0):
            raise ValueError("shear direction p must be nonzero")
        if math.gcd(math.gcd(abs(p[0]), abs(p[1])), abs(p[2])) != 1:
            raise ValueError(f"shear direction components must be coprime, got {p}")
        coeffs: dict[int, complex] = {}
        for n, c in self.coefficients.items():
            n = int(n)
            if n == 0:
                raise ValueError("the n = 0 profile coefficient is excluded")
            c = complex(c)
            for key, val in ((n, c), (-n, c.conjugate())):
                if key in coeffs and coeffs[key] != val:
                    raise ValueError(f"profile coefficients violate c_-n = conj(c_n) at n={key}")
                coeffs[key] = val
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "G", tuple(float(g) for g in self.G))
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def harmonics(self) -> list[int]:
        return sorted(self.coefficients)


def shear_state(spec: ShearFlowSpec, modes: ModeSet) -> VorticityState:
    """State with omega at n*p equal to G c_n, zero elsewhere.

    Raises NotDivergenceFreeError unless G . (aniso * p) = 0 exactly, where
    aniso * p is the physical wavevector of p on the modes' box.  The sum is
    exactly rounded, so the answer does not hang on how a BLAS dot product
    fuses or orders its terms.  Raises NonFiniteError where G c_n overflows.
    """
    G = np.asarray(spec.G, dtype=float)
    k = modes.aniso.diagonal() * np.asarray(spec.p, dtype=float)
    if math.fsum(G * k) != 0.0:
        raise NotDivergenceFreeError(
            f"shear amplitude G={list(spec.G)} must satisfy G . (aniso * p) = 0 exactly; "
            f"p={list(spec.p)} has wavevector {k.tolist()} on this box"
        )
    values = np.zeros((modes.half_size, 3), dtype=complex)
    for n, c in spec.coefficients.items():
        a = tuple(n * comp for comp in spec.p)
        if a not in modes:
            raise TruncationTooSmallError(
                f"shear harmonic {n} needs mode {a} outside the N={modes.N} box"
            )
        pos = modes.position_of(a)
        if modes.is_canonical[pos]:
            with np.errstate(over="ignore"):
                value = G * c
            if not np.isfinite(value).all():
                raise NonFiniteError(f"the shear amplitude G c_{n} overflows: G={list(spec.G)}, c_{n}={c!r}")
            values[modes.half_slot[pos]] = value
    return VorticityState(modes, values)


def equilibrium_residual(state: VorticityState, which: str, frames: FrameSet | None = None) -> float:
    """Max-norm of the chosen vector field, relative to the square of the peak amplitude.

    The field is quadratic, so it is taken on the state scaled by the power of
    two that puts the peak amplitude in [0.5, 1), and divided by the square of
    the scaled peak.  The scaling is exact, barring underflow: the residual at
    2^e times a state has the bits of the one at the state, and the field
    cannot overflow.  Reality is structural, so the canonical rows hold the
    maximum of the field.  A peak amplitude that overflows raises NonFiniteError.
    """
    amp = state.amp_max
    if not math.isfinite(amp):
        raise NonFiniteError(f"the {which} field needs a finite state; its peak amplitude {amp!r} overflows")
    peak, e = math.frexp(amp)
    state = VorticityState(state.modes, _ldexp(state.values, -e))
    if which == "reduced":
        frames = frames if frames is not None else FrameSet(state.modes)
        state = to_reduced(state, frames)
    f = dynamics.half_field_evaluator(state.modes, which, frames)(state.values)
    return float(np.max(np.abs(f))) / max(peak * peak, 1e-300)


def span_residual_fraction(grad_e: np.ndarray, grad_h: np.ndarray, wavevectors: np.ndarray) -> float:
    """Distance of grad E from span{grad h, divergence directions}, over ||grad E||.

    All three arrays are (M, 3).  The divergence direction of mode k is k at
    k and zero elsewhere, so these directions are mutually orthogonal, and
    grad h is perpendicular to k at every mode.  The least-squares remainder
    is therefore grad E less its component along k at each mode, less one
    Hermitian projection onto grad h (none when grad h is zero).
    """
    rem = leray_project(wavevectors, grad_e)
    hh = np.vdot(grad_h, grad_h).real
    if hh > 0.0:
        rem = rem - grad_h * (np.vdot(grad_h, rem) / hh)
    return float(np.linalg.norm(rem) / max(np.linalg.norm(grad_e), 1e-300))


def _ldexp(z: np.ndarray, e: int) -> np.ndarray:
    """Complex z times 2^e, exact barring underflow and overflow."""
    return np.ldexp(np.ascontiguousarray(z, dtype=complex).view(float), e).view(complex)


def _unit_scaled(g: np.ndarray) -> np.ndarray:
    """Complex g times the power of two that puts its largest real or imaginary part in [0.5, 1).

    Exact, barring underflow, so every ratio taken from it has the bits of
    the unscaled one; its squares and norms cannot overflow.  Zero stays zero.
    """
    g = np.ascontiguousarray(g, dtype=complex)
    return _ldexp(g, -np.frexp(np.max(np.abs(g.view(float)), initial=0.0))[1])


def gradient_span_test(
    state: VorticityState,
    tensor: st.GlobalTensor,
    tol: float = 1e-12,
    equilibrium_tol: float = 1e-10,
) -> dict:
    """Kernel membership of grad E and its distance from the Casimir span.

    Works in full coordinates (a reduced tensor raises ValueError) and only
    at equilibria (NotAnEquilibriumError, a ValueError, otherwise).
    ``gradient_angles_deg`` maps each mode where both grad E and grad h
    exceed 1e-12 times their largest mode norm to the angle between them.  The kernel test, the span fraction and
    the angles do not change when a gradient is scaled, so they are taken on
    the gradients scaled by a power of two (``_unit_scaled``): exactly the
    bits of the unscaled ones, where those do not overflow.
    """
    if tensor.which == "reduced":
        raise ValueError("gradient_span_test works in full coordinates; got a reduced tensor")
    res = equilibrium_residual(state, tensor.which)
    if res > equilibrium_tol:
        raise NotAnEquilibriumError(f"gradient_span_test wants an equilibrium; residual {res:.3e}")
    gE = _unit_scaled(observables.grad_energy(state))
    gH = _unit_scaled(observables.grad_helicity(state))
    nE, nh = np.linalg.norm(gE, axis=1), np.linalg.norm(gH, axis=1)
    sel = np.flatnonzero((nE > 1e-12 * nE.max()) & (nh > 1e-12 * nh.max()))
    cos = np.abs(np.einsum("md,md->m", gE[sel].conj(), gH[sel])) / (nE[sel] * nh[sel])
    angles = np.degrees(np.arccos(np.minimum(1.0, cos)))
    return {
        "equilibrium_residual": res,
        "grad_energy_in_kernel": verify.kernel_contains(tensor, gE.reshape(-1), tol),
        "span_residual_fraction": span_residual_fraction(gE, gH, state.modes.wavevectors),
        "gradient_angles_deg": dict(zip(map(str, map(tuple, state.modes.indices[sel].tolist())), angles.tolist())),
    }


def corank_comparison(
    spec: ShearFlowSpec,
    modes: ModeSet,
    which: str = "projected",
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
    tol: float = 2.0**-46,
    frames: FrameSet | None = None,
) -> dict:
    """Kernel dimension at the shear state vs a generic baseline.

    The baseline is a seeded random divergence-free state of matched peak
    amplitude; its kernel dimension is reported per seed (it is generically
    seed-independent).
    """
    eq = shear_state(spec, modes)
    eq_rank = verify.poisson_rank(eq, modes, which, tol, frames)
    amp = eq.amp_max
    baseline = []
    for seed in seeds:
        raw = random_divfree_state(modes, seed=seed, amplitude=1.0)
        scaled = VorticityState(modes, raw.values * (amp / max(raw.amp_max, 1e-300)))
        r = verify.poisson_rank(scaled, modes, which, tol, frames)
        baseline.append({"seed": int(seed), "rank": r.rank, "corank": r.corank})
    coranks = sorted({b["corank"] for b in baseline})
    degenerate = eq_rank.rank == 0 and all(b["rank"] == 0 for b in baseline)
    # known Casimir gradients: one divergence direction per mode plus helicity
    # in full coordinates; restriction absorbs the divergence directions, so
    # only helicity remains there.  Kernel dimensions beyond the known count
    # are reported, not explained away.  A real antisymmetric matrix has even
    # rank, so when dim - known is odd one more kernel direction is forced by
    # parity alone.  dim - known is 2M - 1 for every structure, so this reads
    # 1 whenever the comparison is not degenerate.
    known = 1 if which == "reduced" else len(modes) + 1
    dim = eq_rank.rank + eq_rank.corank
    return {
        "which": which,
        "dim": dim,
        "shear": {"rank": eq_rank.rank, "corank": eq_rank.corank},
        "baseline": baseline,
        "baseline_coranks": coranks,
        "kernel_excess": eq_rank.corank - max(b["corank"] for b in baseline),
        "known_casimirs": known,
        "baseline_unexplained": max(coranks) - known if not degenerate else 0,
        "parity_forced": (dim - known) % 2 if not degenerate else 0,
        "degenerate": degenerate,
        "rank_tol": tol,
        "seeds": [int(s) for s in seeds],
    }
