"""Small fixed-size linear algebra: cross-product matrices, the divergence
projector, and the per-mode rotation frames used to split vorticity into a
divergence component and two dynamical components.

The rotation frame of a wavevector ``j`` has rows

    j^T/|j|,   (j x n)^T/|j x n|,   (j x (j x n))^T/(|j x n| |j|),

for a fixed reference vector ``n`` (default: the x axis).  On the line where
``j`` is parallel to ``n`` the formula degenerates and the frame is defined
by fiat: the identity for positive multiples of ``n`` and the signature
matrix diag(-1,-1,1) for negative multiples.  The discrete definition is
deliberate; a limit of nearby frames depends on the approach direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidModeError
from .lattice import ModeSet

E_X = np.array([1.0, 0.0, 0.0])

#: relates frames at opposite modes: R_{-j} R_j^T for every j
SIGNATURE = np.diag([-1.0, -1.0, 1.0])
SIGNATURE.setflags(write=False)

#: 2x2 block of SIGNATURE on the dynamical components
SIGNATURE_2D = np.diag([-1.0, 1.0])
SIGNATURE_2D.setflags(write=False)

GENERIC, PLUS_N, MINUS_N = "generic", "plus_n", "minus_n"


def cross_matrix(a) -> np.ndarray:
    """Antisymmetric matrix with cross_matrix(a) @ b == a x b.

    A (3, n) array of vectors gives the (3, 3, n) stack of their matrices.
    """
    ax, ay, az = np.asarray(a)
    zero = 0 * ax  # keeps dtype (real or complex) of the input
    return np.array([[zero, -az, ay], [az, zero, -ax], [-ay, ax, zero]])


def leray_projector(j) -> np.ndarray:
    """Orthogonal projector removing the component along the wavevector."""
    j = np.asarray(j, dtype=float)
    n2 = float(j @ j)
    if n2 == 0.0:
        raise InvalidModeError("projector undefined for the zero wavevector")
    return np.eye(3) - np.outer(j, j) / n2


@dataclass(frozen=True)
class RotationFrame:
    """Rotation sending the wavevector to the x axis, plus cached norms."""

    j: np.ndarray
    R: np.ndarray
    norm: float
    norm2: float  # projected 2-norm |j x n|
    special: str  # GENERIC | PLUS_N | MINUS_N


def _parallel_sign(j: np.ndarray, n: np.ndarray) -> int:
    """0 if j and n are not parallel, else the sign of j along n.

    Exact comparisons only: for lattice wavevectors and axis-aligned n the
    cross product components are products of exact floats, so the parallel
    case is decided without tolerance.
    """
    if np.any(np.cross(j, n) != 0.0):
        return 0
    return 1 if float(j @ n) > 0.0 else -1


def _parallel_fallback(n: np.ndarray) -> np.ndarray:
    """Frame assigned to wavevectors along +n, where the generic rows fail.

    An explicit orthonormal completion of the unit reference: the second row
    is the coordinate axis least aligned with n, orthogonalized.  For a
    reference along +x this is exactly the identity; the frame at -n is then
    SIGNATURE, and every opposite-mode pair satisfies R_{-j} R_j^T = S.
    """
    nhat = n / np.linalg.norm(n)
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(nhat)))] = 1.0
    u = axis - (axis @ nhat) * nhat
    u /= np.linalg.norm(u)
    return np.array([nhat, u, np.cross(nhat, u)])


def rotation_frame(j, n=E_X) -> RotationFrame:
    """Orthonormal frame for wavevector ``j`` relative to reference ``n``.

    The rows are j^T/|j|, (j x n)^T/|j x n|, (j x (j x n))^T/(|j x n| |j|).
    On the line j parallel to n this degenerates and the frame is fixed by
    convention instead: for the default +x reference, the identity at
    positive multiples and diag(-1,-1,1) at negative ones.
    """
    j = np.asarray(j, dtype=float)
    n = np.asarray(n, dtype=float)
    if not j.any():
        raise InvalidModeError("rotation frame undefined for the zero wavevector")
    if not n.any():
        raise InvalidModeError("reference vector must be nonzero")
    norm = float(np.linalg.norm(j))
    sign = _parallel_sign(j, n)
    if sign > 0:
        return RotationFrame(j, _parallel_fallback(n), norm, 0.0, PLUS_N)
    if sign < 0:
        return RotationFrame(j, SIGNATURE @ _parallel_fallback(n), norm, 0.0, MINUS_N)
    jxn = np.cross(j, n)
    norm2 = float(np.linalg.norm(jxn))
    R = np.array([j / norm, jxn / norm2, np.cross(j, jxn) / (norm2 * norm)])
    return RotationFrame(j, R, norm, norm2, GENERIC)


class FrameSet:
    """Precomputed rotation frames for every mode of a ModeSet.

    Frame construction is O(1) but sits inside triple loops, so the arrays
    are built once and shared.  For lattice wavevectors the parallel test in
    rotation_frame is exact (the cross product entries are products of exact
    floats that vanish iff the integer components off the reference axis do).
    """

    def __init__(self, modes: ModeSet, n=E_X):
        n = np.asarray(n, dtype=float)
        if not n.any():
            raise InvalidModeError("reference vector must be nonzero")
        self.modes = modes
        self.n = n
        M = len(modes)
        self.R = np.empty((M, 3, 3))
        self.norm = modes.norms.copy()
        self.norm2 = np.zeros(M)
        self.special = np.zeros(M, dtype=np.int8)  # 0 generic, +1 plus_n, -1 minus_n
        for i in range(M):
            fr = rotation_frame(modes.wavevectors[i], n)
            self.R[i] = fr.R
            self.norm2[i] = fr.norm2
            self.special[i] = {GENERIC: 0, PLUS_N: 1, MINUS_N: -1}[fr.special]
        for arr in (self.R, self.norm, self.norm2, self.special):
            arr.setflags(write=False)
        self._tilde_tables = None  # structures.ReducedTables, built lazily by reduced_tables()

    def frame(self, position: int) -> RotationFrame:
        tag = {0: GENERIC, 1: PLUS_N, -1: MINUS_N}[int(self.special[position])]
        return RotationFrame(
            self.modes.wavevectors[position],
            self.R[position],
            float(self.norm[position]),
            float(self.norm2[position]),
            tag,
        )

    def frame_for(self, j) -> RotationFrame:
        """Frame for an arbitrary wavevector (not necessarily a mode)."""
        return rotation_frame(j, self.n)
