"""Conserved functionals, their gradients, and the velocity inversion.

Gradients follow the formal convention that every lattice coefficient is an
independent complex variable; reality is a property of states, not of the
calculus.  For real-valued functionals the gradient then satisfies
``g_{-k} = conj(g_k)``, and a coherent perturbation of a conjugate pair has
directional derivative ``2 Re(g_k . delta)`` -- which is what the finite
difference helper below reconstructs.

All norms use the physical (anisotropy-scaled) wavevectors.
"""

from __future__ import annotations

import numpy as np

from .frames import cross
from .state import ReducedState, VorticityState

#: relative bound on the imaginary part tolerated when realizing a functional
IMAG_RTOL = 1e-13


def _real_part(value: complex, scale: float, what: str) -> float:
    if abs(value.imag) > IMAG_RTOL * max(abs(value), scale, 1e-300):
        raise ValueError(f"{what} has non-negligible imaginary part {value.imag:.3e}")
    return float(value.real)


def energy(state: VorticityState) -> float:
    """Kinetic energy: half the sum of omega_{-j} . omega_j / |j|^2."""
    W = state.full_values()
    Wneg = W[state.modes.neg_index]
    terms = np.einsum("md,md->m", Wneg, W) / state.modes.norms**2
    return _real_part(0.5 * complex(np.sum(terms)), state.amp_max**2, "energy")


def energy_reduced(reduced: ReducedState) -> float:
    """Energy in frame coordinates; equals energy(from_reduced(reduced))."""
    wt = reduced.full_values()
    wneg = wt[reduced.modes.neg_index]
    terms = np.einsum("md,d,md->m", wneg, reduced.twist, wt) / reduced.modes.norms**2
    return _real_part(0.5 * complex(np.sum(terms)), reduced.amp_max**2, "reduced energy")


def helicity(state: VorticityState) -> float:
    """Alignment invariant: sum of (i/|k|^2) k . (omega_k x omega_{-k}).

    Meaningful on (near) divergence-free states, where the velocity is the
    divergence-free inverse curl of the vorticity.
    """
    W = state.full_values()
    Wneg = W[state.modes.neg_index]
    terms = 1j * np.einsum("md,md->m", state.modes.wavevectors, cross(W, Wneg)) / state.modes.norms**2
    return _real_part(complex(np.sum(terms)), state.amp_max**2, "helicity")


def helicity_reduced(reduced: ReducedState) -> float:
    """Helicity in frame coordinates: sum of (2/|k|) Im(conj(wt_y) wt_z)."""
    wt = reduced.full_values()
    terms = 2.0 * np.imag(np.conj(wt[:, 0]) * wt[:, 1]) / reduced.modes.norms
    return float(np.sum(terms))


def grad_energy(state: VorticityState) -> np.ndarray:
    """(M, 3) gradient of the energy: omega_{-k} / |k|^2 at mode k."""
    W = state.full_values()
    return W[state.modes.neg_index] / state.modes.norms[:, None] ** 2


def grad_helicity(state: VorticityState) -> np.ndarray:
    """(M, 3) gradient of the helicity: -(2i/|k|^2) k x omega_{-k}."""
    W = state.full_values()
    Wneg = W[state.modes.neg_index]
    return -2j * cross(state.modes.wavevectors, Wneg) / state.modes.norms[:, None] ** 2


def velocity_modes(state: VorticityState) -> np.ndarray:
    """(M, 3) velocity coefficients: v_j = i (j x omega_j) / |j|^2.

    The divergence-free inverse of the curl; satisfies k . v_k = 0 and
    i j x v_j = omega_j on divergence-free states.
    """
    W = state.full_values()
    return 1j * cross(state.modes.wavevectors, W) / state.modes.norms[:, None] ** 2


def finite_difference_gradient(func, state: VorticityState, a, component: int, step: float = 1e-5) -> complex:
    """Central finite-difference estimate of one gradient component.

    Perturbs the conjugate pair {a, -a} coherently (the only admissible
    variation of a stored state) along the real and imaginary axes of one
    component, and reconstructs the formal gradient from the pairing:
    a real-valued functional responds with 2 Re(g . delta).
    """
    base = state.value_at(a)

    def probe(delta: complex) -> float:
        v = base.copy()
        v[component] += delta
        return func(state.with_mode(a, v))

    d_re = (probe(step) - probe(-step)) / (2.0 * step)
    d_im = (probe(1j * step) - probe(-1j * step)) / (2.0 * step)
    return 0.5 * (d_re - 1j * d_im)


def diagnostics_csv_header() -> str:
    return "t,E,h,div_max,amp_max"


def diagnostics_csv_row(rec) -> str:
    # repr gives the shortest decimal that round-trips the binary value
    return ",".join(repr(float(v)) for v in (rec.t, rec.energy, rec.helicity, rec.div_max, rec.amp_max))
