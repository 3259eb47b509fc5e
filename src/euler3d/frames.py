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
_TAGS = {0: GENERIC, 1: PLUS_N, -1: MINUS_N}  # by parallel sign


def cross_matrix(a) -> np.ndarray:
    """Antisymmetric matrix with cross_matrix(a) @ b == a x b.

    A (..., 3) array of vectors gives the (..., 3, 3) stack of their matrices,
    of the input's dtype.
    """
    a = np.asarray(a)
    ax, ay, az = a[..., 0], a[..., 1], a[..., 2]
    m = np.empty(a.shape + (3,), dtype=a.dtype)
    m[..., 0, 0] = m[..., 1, 1] = m[..., 2, 2] = 0 * ax  # not 0: -0.0 where ax < 0, NaN where ax is not finite
    m[..., 0, 1], m[..., 0, 2] = -az, ay
    m[..., 1, 0], m[..., 1, 2] = az, -ax
    m[..., 2, 0], m[..., 2, 1] = -ay, ax
    return m


_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def cross(a, b) -> np.ndarray:
    """a x b over the last axis; bit-identical to np.cross, and cheaper on a single 3-vector.

    The package's one cross product: every a x b in euler3d is this call.
    """
    a, b = np.asarray(a), np.asarray(b)
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def _norm(v) -> np.ndarray:
    return np.sqrt(np.vecdot(v, v))


def leray_projector(j) -> np.ndarray:
    """Orthogonal projector removing the component along the wavevector.

    A (..., 3) array of wavevectors gives the (..., 3, 3) stack of projectors.
    """
    j = np.asarray(j, dtype=float)
    n2 = np.vecdot(j, j)[..., None, None]
    if not n2.all():
        raise InvalidModeError("projector undefined for the zero wavevector")
    return np.eye(3) - j[..., :, None] * j[..., None, :] / n2


def leray_project(k, w) -> np.ndarray:
    """The vector form of ``leray_projector``: w - k (k . w)/|k|^2 over the last axis, k nonzero."""
    return w - k * (np.einsum("...d,...d->...", k, w) / np.einsum("...d,...d->...", k, k))[..., None]


@dataclass(frozen=True)
class RotationFrame:
    """Rotation sending the wavevector to the x axis, plus cached norms."""

    j: np.ndarray
    R: np.ndarray
    norm: float
    norm2: float  # projected 2-norm |j x n|
    special: str  # GENERIC | PLUS_N | MINUS_N


def _parallel_sign(v, n) -> np.ndarray:
    """0 where v (..., 3) is not parallel to n, else the sign of v along n.

    Exact comparisons only: for lattice wavevectors and a reference along a
    coordinate axis the cross product components are products of exact
    floats, so the parallel case is decided without tolerance.
    """
    sign = np.where(np.vecdot(v, n) > 0.0, 1, -1)
    return np.where(cross(v, n).any(axis=-1), 0, sign)


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
    return np.array([nhat, u, cross(nhat, u)])


def _frames(j: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, |j x n|, parallel sign) for every wavevector of a (..., 3) array."""
    norm = _norm(j)[..., None]
    jxn = cross(j, n)
    norm2 = _norm(jxn)
    sign = _parallel_sign(j, n)
    R = np.empty(j.shape + (3,))
    gen = sign == 0
    j, jxn, norm, n2 = j[gen], jxn[gen], norm[gen], norm2[gen][..., None]
    R[gen] = np.stack([j / norm, jxn / n2, cross(j, jxn) / (n2 * norm)], axis=-2)
    if not gen.all():
        fallback = _parallel_fallback(n)
        R[sign > 0] = fallback
        R[sign < 0] = SIGNATURE @ fallback
    return R, norm2, sign


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
    R, norm2, sign = _frames(j, n)
    return RotationFrame(j, R, float(_norm(j)), float(norm2), _TAGS[int(sign)])


class FrameSet:
    """Precomputed rotation frames for every mode of a ModeSet.

    Built in one array call over all modes.  The parallel test is exact only
    for ``n`` along a coordinate axis (the cross product entries vanish iff
    the integer components off that axis do); for any other ``n`` a mode
    parallel to it may get a generic frame from a roundoff-sized |j x n|.
    """

    def __init__(self, modes: ModeSet, n=E_X):
        n = np.asarray(n, dtype=float)
        if not n.any():
            raise InvalidModeError("reference vector must be nonzero")
        self.modes = modes
        self.n = n
        self.norm = modes.norms.copy()
        self.R, self.norm2, special = _frames(modes.wavevectors, n)
        self.special = special.astype(np.int8)  # 0 generic, +1 plus_n, -1 minus_n
        # frame at +n, a proper rotation sending n to +x: R(j; n) = R(plus_n_frame j; e_x) plus_n_frame
        self.plus_n_frame = _parallel_fallback(n)
        for arr in (self.R, self.norm, self.norm2, self.special, self.plus_n_frame):
            arr.setflags(write=False)
        self._tilde_tables = None  # structures.ReducedTables, built lazily by reduced_tables()


def check_frames(frames: FrameSet, modes: ModeSet) -> None:
    """Raise ValueError unless ``frames`` were built on ``modes``.

    Frames and the tables cached on them are indexed by the modes of their
    own ModeSet; on another one they would give wrong answers silently.
    """
    if frames.modes is not modes:
        raise ValueError("frames and modes disagree")
