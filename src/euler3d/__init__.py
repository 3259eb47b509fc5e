"""Truncated-spectral Poisson structures for the 3D incompressible Euler
equations in Fourier vorticity coordinates."""

from .lattice import AnisotropyMatrix, ModeSet, TruncationSpec, build_lattice, in_lattice, wavevector
from .frames import (
    E_X,
    SIGNATURE,
    SIGNATURE_2D,
    FrameSet,
    cross_matrix,
    leray_projector,
)
from .state import (
    DiagnosticsRecord,
    ReducedState,
    VorticityState,
    from_reduced,
    random_divfree_state,
    to_reduced,
)
from .structures import (
    GlobalTensor,
    advection_block,
    assemble_global,
    projected_block,
    reduced_block,
    reduced_coefficients,
    rotated_block,
    simple_block,
)
from .observables import (
    energy,
    energy_reduced,
    finite_difference_gradient,
    grad_energy,
    grad_helicity,
    helicity,
    helicity_reduced,
    velocity_modes,
)
from .dynamics import integrate, rk4_step, vector_field_full, vector_field_reduced
from .equilibria import ShearFlowSpec, corank_comparison, equilibrium_residual, gradient_span_test, shear_state
from .errors import (
    BlowUpError,
    ConfigError,
    InvalidModeError,
    NotDivergenceFreeError,
    OutOfLatticeError,
    TruncationTooSmallError,
)

__version__ = "0.1.0"
