"""Blocks of the vorticity Poisson tensor and their global assembly.

Every block is a matrix-valued function of two wavevectors ``(j, k)`` and of
the vorticity coefficient at ``j + k`` (the block is linear in that
coefficient).  Four families are provided:

* ``advection_block``  -- the raw convolution form of the vorticity equation;
  not antisymmetric on its own.
* ``simple_block``     -- antisymmetric with ``k`` in the right kernel and
  ``j`` in the left kernel; generates the same dynamics on the
  divergence-free subspace.
* ``projected_block``  -- the simple block with the coefficient projected
  onto the divergence-free subspace of ``j + k``; a Poisson structure on the
  whole coefficient space.
* ``rotated_block`` / ``reduced_block`` -- the structure seen in the
  per-mode rotation frames; dropping the (conserved, zero) divergence row
  and column leaves a 2x2 block on the dynamical components.

``reduced_block`` evaluates explicit scalar formulas (generic case plus
three parallel-to-axis special cases, each linear in the two dynamical
components).  ``rotated_block`` computes the same object by conjugating the
simple block with the rotation frames; the two routes are implemented
independently and cross-checked in the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass
import json

import numpy as np

from .frames import FrameSet, cross_matrix, leray_projector, _parallel_sign
from .lattice import ModeSet

STRUCTURES = ("direct", "simple", "projected", "reduced")


def advection_block(j, k, w) -> np.ndarray:
    """Convolution-form block: w (k x j)^T - (k . w) cross_matrix(k)."""
    j = np.asarray(j, dtype=float)
    k = np.asarray(k, dtype=float)
    w = np.asarray(w)
    return np.outer(w, np.cross(k, j)) - np.dot(k, w) * cross_matrix(k)


def simple_block(j, k, w) -> np.ndarray:
    """Structure block: w (k x j)^T + (j . w) cross_matrix(k).

    Antisymmetric under (j, k) exchange plus transposition, annihilates k on
    the right and j on the left, for arbitrary w.
    """
    j = np.asarray(j, dtype=float)
    k = np.asarray(k, dtype=float)
    w = np.asarray(w)
    return np.outer(w, np.cross(k, j)) + np.dot(j, w) * cross_matrix(k)


def projected_block(j, k, w) -> np.ndarray:
    """Simple block with w replaced by its divergence-free part at j + k.

    The pair j + k = 0 yields the zero block (the mean mode vanishes
    identically, so no coefficient lives there).
    """
    j = np.asarray(j, dtype=float)
    k = np.asarray(k, dtype=float)
    q = j + k
    if not q.any():
        return np.zeros((3, 3), dtype=complex)
    return simple_block(j, k, leray_projector(q) @ np.asarray(w, dtype=complex))


def rotated_block(j, k, wcheck, frames: FrameSet) -> np.ndarray:
    """Simple block conjugated into the rotation frames of j and k.

    ``wcheck`` is the coefficient at j + k expressed in the frame of j + k;
    it is rotated back before the block is formed.  On the divergence-free
    subspace (first component of wcheck zero) the first row and column of
    the result vanish.
    """
    j = np.asarray(j, dtype=float)
    k = np.asarray(k, dtype=float)
    q = j + k
    if not q.any():
        return np.zeros((3, 3), dtype=complex)
    w = frames.frame_for(q).R.T @ np.asarray(wcheck, dtype=complex)
    return frames.frame_for(j).R @ simple_block(j, k, w) @ frames.frame_for(k).R.T


# -- reduced 2x2 blocks: explicit formulas ------------------------------------


def _norm2(v, n) -> float:
    return float(np.linalg.norm(np.cross(v, n)))


def _generic_coefficients(j, k, n) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient matrices (Ty, Tz) of the reduced block, generic case.

    The reduced block is Ty * wtilde_y + Tz * wtilde_z.  Valid when none of
    j, k, j+k is parallel to the reference vector n.
    """
    q = j + k
    jxk = np.cross(j, k)
    g = float(n @ jxk)
    nj = float(np.linalg.norm(j))
    nk = float(np.linalg.norm(k))
    nq = float(np.linalg.norm(q))
    j2 = _norm2(j, n)
    k2 = _norm2(k, n)
    q2 = _norm2(q, n)

    Ty = np.empty((2, 2))
    Ty[0, 0] = -float(n @ np.cross(jxk, k * j2**2 + j * k2**2)) / (j2 * k2 * q2)
    Ty[0, 1] = g * (j2 * nk) / (q2 * k2)
    Ty[1, 0] = g * (k2 * nj) / (q2 * j2)
    Ty[1, 1] = 0.0

    def yyy(A, B, a2, b2, c2):
        return -float(n @ np.cross(np.cross(A, B), B * a2**2 + A * b2**2)) / (a2 * b2 * c2)

    Tz = np.empty((2, 2))
    Tz[0, 0] = -g * float(np.cross(n, jxk) @ np.cross(n, jxk)) / (j2 * k2 * q2 * nq)
    Tz[0, 1] = -(nk / nq) * yyy(j, -q, j2, q2, k2)
    Tz[1, 0] = +(nj / nq) * yyy(k, -q, k2, q2, j2)
    Tz[1, 1] = g * (nj * nk * q2) / (j2 * k2 * nq)
    return Ty, Tz


def _axis_coefficients(j, k, n_sign_j, n_sign_k, n_sign_q) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient matrices when exactly one of j, k, j+k lies on the x axis.

    Specialization of the frame-conjugated block for a reference vector along
    +x; each case carries the sign s of the axis-parallel vector along +x.
    """
    q = j + k
    nj = float(np.linalg.norm(j))
    nk = float(np.linalg.norm(k))
    nq = float(np.linalg.norm(q))
    jx, jy, jz = j
    kx, ky, kz = k

    if n_sign_j:
        s = float(n_sign_j)
        pre = jx / nq
        Ty = pre * np.array([[kz * nq * s, 0.0], [-ky * nq, 0.0]])
        Tz = pre * np.array([[jx * ky * s, kz * nk * s], [jx * kz, -ky * nk]])
        return Ty, Tz
    if n_sign_k:
        s = float(n_sign_k)
        pre = kx / nq
        Ty = pre * np.array([[-jz * nq * s, jy * nq], [0.0, 0.0]])
        Tz = pre * np.array([[-jy * kx * s, -jz * kx], [-jz * nj * s, jy * nj]])
        return Ty, Tz
    s = float(n_sign_q)
    qx = jx + kx
    Ty = np.array([[qx * jz * s, nk * jy * s], [nj * jy * s, 0.0]])
    Tz = np.array([[-qx * jy, nk * jz], [nj * jz, 0.0]])
    return Ty, Tz


def _conjugation_coefficients(j, k, frames: FrameSet) -> tuple[np.ndarray, np.ndarray]:
    Ty = rotated_block(j, k, np.array([0.0, 1.0, 0.0]), frames)[1:, 1:].real
    Tz = rotated_block(j, k, np.array([0.0, 0.0, 1.0]), frames)[1:, 1:].real
    return Ty, Tz


ROUTE_ZERO, ROUTE_GENERIC, ROUTE_AXIS, ROUTE_CONJUGATION = "zero", "generic", "axis", "conjugation"


def _axis_tables_apply(n) -> bool:
    # the explicit special-case tables encode a reference along +x
    return n[1] == 0.0 and n[2] == 0.0 and n[0] > 0.0


def reduced_coefficients(j, k, frames: FrameSet) -> tuple[np.ndarray, np.ndarray, str]:
    """(Ty, Tz, route) with reduced_block == Ty*wtilde_y + Tz*wtilde_z.

    Routes: explicit generic formulas; explicit axis tables when exactly one
    of j, k, j+k is parallel to the reference; the frame-conjugated
    construction for degenerate combinations (all three on the axis).
    """
    j = np.asarray(j, dtype=float)
    k = np.asarray(k, dtype=float)
    q = j + k
    if not q.any():
        return np.zeros((2, 2)), np.zeros((2, 2)), ROUTE_ZERO
    n = frames.n
    sj = _parallel_sign(j, n)
    sk = _parallel_sign(k, n)
    sq = _parallel_sign(q, n)
    count = (sj != 0) + (sk != 0) + (sq != 0)
    if count == 0:
        Ty, Tz = _generic_coefficients(j, k, n)
        return Ty, Tz, ROUTE_GENERIC
    if count == 1 and _axis_tables_apply(n):
        Ty, Tz = _axis_coefficients(j, k, sj, sk, sq)
        return Ty, Tz, ROUTE_AXIS
    Ty, Tz = _conjugation_coefficients(j, k, frames)
    return Ty, Tz, ROUTE_CONJUGATION


def reduced_block(j, k, wtilde, frames: FrameSet) -> np.ndarray:
    """2x2 reduced-structure block at coefficient wtilde (at mode j + k)."""
    wtilde = np.asarray(wtilde, dtype=complex)
    Ty, Tz, _ = reduced_coefficients(j, k, frames)
    return Ty * wtilde[0] + Tz * wtilde[1]


class ReducedTables:
    """Per-ModeSet reduced coefficient matrices for all pairs.

    Ty, Tz have shape (M, M, 2, 2); pairs whose sum leaves the lattice (or
    vanishes) hold zeros and are flagged in ``route``.  Built once per
    FrameSet and cached there; this is the workhorse of reduced-field
    evaluation and reduced tensor assembly.
    """

    ROUTE_CODES = {ROUTE_ZERO: 0, ROUTE_GENERIC: 1, ROUTE_AXIS: 2, ROUTE_CONJUGATION: 3}

    def __init__(self, frames: FrameSet):
        modes = frames.modes
        M = len(modes)
        self.frames = frames
        self.Ty = np.zeros((M, M, 2, 2))
        self.Tz = np.zeros((M, M, 2, 2))
        self.route = np.zeros((M, M), dtype=np.int8)
        conv = modes.pair_table()
        K = modes.wavevectors
        for pj in range(M):
            for pk in np.flatnonzero(conv[pj] >= 0):
                Ty, Tz, route = reduced_coefficients(K[pj], K[pk], frames)
                self.Ty[pj, pk] = Ty
                self.Tz[pj, pk] = Tz
                self.route[pj, pk] = self.ROUTE_CODES[route]
        for arr in (self.Ty, self.Tz, self.route):
            arr.setflags(write=False)


def reduced_tables(frames: FrameSet) -> ReducedTables:
    if frames._tilde_tables is None:
        frames._tilde_tables = ReducedTables(frames)
    return frames._tilde_tables


# -- global assembly -----------------------------------------------------------


@dataclass
class GlobalTensor:
    """Dense block matrix of a structure over all lattice modes."""

    matrix: np.ndarray
    modes: ModeSet
    which: str
    block_size: int

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def block(self, pj: int, pk: int) -> np.ndarray:
        b = self.block_size
        return self.matrix[b * pj : b * (pj + 1), b * pk : b * (pk + 1)]

    def save(self, path_prefix: str) -> tuple[str, str]:
        """Write <prefix>.bin (row-major little-endian complex128) + header."""
        bin_path = f"{path_prefix}.bin"
        json_path = f"{path_prefix}.json"
        with open(bin_path, "wb") as fh:
            fh.write(np.ascontiguousarray(self.matrix).astype("<c16").tobytes())
        header = {
            "which": self.which,
            "dim": self.dim,
            "block_size": self.block_size,
            "dtype": "complex128",
            "byte_order": "little",
            "layout": "row-major",
            "N": self.modes.N,
            "aniso": [self.modes.aniso.nu_x, self.modes.aniso.nu_y, self.modes.aniso.nu_z],
            "modes": self.modes.indices.tolist(),
        }
        with open(json_path, "w") as fh:
            json.dump(header, fh)
        return bin_path, json_path


def assemble_global(state, modes: ModeSet, which: str, frames: FrameSet | None = None) -> GlobalTensor:
    """Fill every block (j, k) of the chosen structure at omega_{j+k}.

    Pairs whose sum leaves the lattice contribute zero blocks.  The result
    is antisymmetric as a flat matrix.
    """
    from .state import ReducedState, to_reduced  # local import to avoid a cycle

    if which not in ("simple", "projected", "reduced"):
        raise ValueError(f"unknown structure {which!r} (want simple|projected|reduced)")
    M = len(modes)
    K = modes.wavevectors

    if which == "reduced":
        if frames is None:
            frames = FrameSet(modes)
        reduced = state if isinstance(state, ReducedState) else to_reduced(state, frames)
        tabs = reduced_tables(frames)
        wt = modes.values_at_sums(reduced.full_values())
        blocks = tabs.Ty * wt[:, :, 0, None, None] + tabs.Tz * wt[:, :, 1, None, None]
        mat = blocks.transpose(0, 2, 1, 3).reshape(2 * M, 2 * M)
        return GlobalTensor(mat, modes, which, 2)

    Wq = modes.values_at_sums(state.full_values())
    if which == "projected":
        Q = K[:, None, :] + K[None, :, :]
        q2 = np.einsum("jkd,jkd->jk", Q, Q)
        safe = np.where(q2 > 0, q2, 1.0)
        Wq = Wq - Q * (np.einsum("jkd,jkd->jk", Q, Wq) / safe)[:, :, None]
    crossKJ = np.cross(K[None, :, :], K[:, None, :])  # (j, k) -> k x j
    term1 = np.einsum("jka,jkb->jkab", Wq, crossKJ)
    s = np.einsum("jd,jkd->jk", K, Wq)
    CK = cross_matrix(K.T).transpose(2, 0, 1)  # (k, a, b)
    blocks = term1 + s[:, :, None, None] * CK[None, :, :, :]
    mat = blocks.transpose(0, 2, 1, 3).reshape(3 * M, 3 * M)
    return GlobalTensor(mat, modes, which, 3)
