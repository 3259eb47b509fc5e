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

``reduced_coefficients`` evaluates array formulas over pairs, for one pair or
a whole table (generic case plus three parallel-to-axis special cases, each
linear in the two dynamical components).  The special cases are written in
the +x frame; pairs are rotated there by the frame at +n, so they serve any
reference vector.  ``rotated_block`` conjugates the simple block with the
rotation frames instead; the two routes are implemented independently and
cross-checked in the verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass
import json

import numpy as np

from .frames import FrameSet, cross, cross_matrix, leray_projector, _norm, _parallel_sign
from .lattice import ModeSet

STRUCTURES = ("direct", "simple", "projected", "reduced")


def advection_block(j, k, w) -> np.ndarray:
    """Convolution-form block: w (k x j)^T - (k . w) cross_matrix(k)."""
    j = np.asarray(j, dtype=float)
    k = np.asarray(k, dtype=float)
    w = np.asarray(w)
    return np.outer(w, cross(k, j)) - np.dot(k, w) * cross_matrix(k)


def simple_block(j, k, w) -> np.ndarray:
    """Structure block: w (k x j)^T + (j . w) cross_matrix(k).

    Antisymmetric under (j, k) exchange plus transposition, annihilates k on
    the right and j on the left, for arbitrary w.
    """
    j = np.asarray(j, dtype=float)
    k = np.asarray(k, dtype=float)
    w = np.asarray(w)
    return np.outer(w, cross(k, j)) + np.dot(j, w) * cross_matrix(k)


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


# -- reduced 2x2 blocks: array formulas over pairs ----------------------------


def _blocks(a, b, c, d) -> np.ndarray:
    """(..., 2, 2) stack of [[a, b], [c, d]], entries broadcast to the shape of a."""
    out = np.empty(np.shape(a) + (2, 2))
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = a, b, c, d
    return out


def _generic_coefficients(j, k, n) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient matrices (Ty, Tz) of the reduced block, generic case.

    The reduced block is Ty * wtilde_y + Tz * wtilde_z.  Valid when none of
    j, k, j+k is parallel to the reference vector n; elementwise over (..., 3).
    """
    q = j + k
    jxk = cross(j, k)
    g = np.vecdot(n, jxk)
    nj, nk, nq = _norm(j), _norm(k), _norm(q)
    j2, k2, q2 = _norm(cross(j, n)), _norm(cross(k, n)), _norm(cross(q, n))

    def yyy(A, B, a2, b2, c2):
        C = B * (a2**2)[..., None] + A * (b2**2)[..., None]
        return -np.vecdot(n, cross(cross(A, B), C)) / (a2 * b2 * c2)

    nxjxk = cross(n, jxk)
    Ty = _blocks(yyy(j, k, j2, k2, q2), g * (j2 * nk) / (q2 * k2), g * (k2 * nj) / (q2 * j2), 0.0)
    Tz = _blocks(
        -g * np.vecdot(nxjxk, nxjxk) / (j2 * k2 * q2 * nq),
        -(nk / nq) * yyy(j, -q, j2, q2, k2),
        +(nj / nq) * yyy(k, -q, k2, q2, j2),
        g * (nj * nk * q2) / (j2 * k2 * nq),
    )
    return Ty, Tz


def _axis_coefficients(j, k, n_sign_j, n_sign_k, n_sign_q) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient matrices when exactly one of j, k, j+k lies on the x axis.

    Specialization of the frame-conjugated block for a reference vector along
    +x; each case carries the sign s of the axis-parallel vector along +x.
    For a reference n pass (Fj, Fk), F the frame at +n: R(j; n) = R(Fj; e_x) F
    and simple_block is covariant under the proper rotation F.
    Elementwise over (..., 3) pairs, with signs of shape (...).
    """
    q = j + k
    nj, nk, nq = _norm(j), _norm(k), _norm(q)
    (jx, jy, jz), (kx, ky, kz) = np.moveaxis(j, -1, 0), np.moveaxis(k, -1, 0)
    qx = jx + kx

    s, pre = n_sign_j, (jx / nq)[..., None, None]
    on_j = (pre * _blocks(kz * nq * s, 0.0, -ky * nq, 0.0),
            pre * _blocks(jx * ky * s, kz * nk * s, jx * kz, -ky * nk))
    s, pre = n_sign_k, (kx / nq)[..., None, None]
    on_k = (pre * _blocks(-jz * nq * s, jy * nq, 0.0, 0.0),
            pre * _blocks(-jy * kx * s, -jz * kx, -jz * nj * s, jy * nj))
    s = n_sign_q
    on_q = _blocks(qx * jz * s, nk * jy * s, nj * jy * s, 0.0), _blocks(-qx * jy, nk * jz, nj * jz, 0.0)

    pick_j, pick_k = (n_sign_j != 0)[..., None, None], (n_sign_k != 0)[..., None, None]
    Ty, Tz = (np.where(pick_j, a, np.where(pick_k, b, c)) for a, b, c in zip(on_j, on_k, on_q))
    return Ty, Tz


ROUTE_ZERO, ROUTE_GENERIC, ROUTE_AXIS = "zero", "generic", "axis"
_ROUTES = np.array([ROUTE_ZERO, ROUTE_GENERIC, ROUTE_AXIS])


def reduced_coefficients(j, k, frames: FrameSet):
    """(Ty, Tz, route) with reduced_block == Ty*wtilde_y + Tz*wtilde_z.

    One pair, shape (3,), gives (2, 2) matrices and the route name; a batch
    (..., 3) gives (..., 2, 2) matrices and an array of route names.  Routes:
    generic formulas when none of j, k, j+k is parallel to the reference n;
    axis formulas, on the pair rotated into the +x frame, when exactly one is;
    zero when j+k vanishes or all three are (k x j = 0, j . w = 0).  Each
    formula sees only the pairs of its route.
    """
    j, k = np.asarray(j, dtype=float), np.asarray(k, dtype=float)
    q = j + k
    n = frames.n
    sj, sk, sq = _parallel_sign(j, n), _parallel_sign(k, n), _parallel_sign(q, n)
    count = (sj != 0).astype(int) + (sk != 0) + (sq != 0)
    zero = ~q.any(axis=-1) | (count > 1)
    generic = ~zero & (count == 0)
    axis = ~zero & (count == 1)

    Ty, Tz = np.zeros((2, *j.shape[:-1], 2, 2))
    if generic.any():
        Ty[generic], Tz[generic] = _generic_coefficients(j[generic], k[generic], n)
    if axis.any():
        F = frames.plus_n_frame
        Ty[axis], Tz[axis] = _axis_coefficients(j[axis] @ F.T, k[axis] @ F.T, sj[axis], sk[axis], sq[axis])
    route = _ROUTES[generic + 2 * axis]
    return Ty, Tz, (str(route) if route.ndim == 0 else route)


def reduced_block(j, k, wtilde, frames: FrameSet) -> np.ndarray:
    """2x2 reduced-structure block at coefficient wtilde (at mode j + k)."""
    wtilde = np.asarray(wtilde, dtype=complex)
    Ty, Tz, _ = reduced_coefficients(j, k, frames)
    return Ty * wtilde[0] + Tz * wtilde[1]


class ReducedTables:
    """Per-ModeSet reduced coefficient matrices for all pairs.

    Ty, Tz have shape (M, M, 2, 2); pairs whose sum leaves the lattice (or
    vanishes) hold zeros.  Built once per FrameSet, by one batched
    reduced_coefficients call, and cached there; this is the workhorse of
    reduced-field evaluation and reduced tensor assembly.
    """

    def __init__(self, frames: FrameSet):
        modes = frames.modes
        M = len(modes)
        self.frames = frames
        self.Ty = np.zeros((M, M, 2, 2))
        self.Tz = np.zeros((M, M, 2, 2))
        pj, pk = np.nonzero(modes.pair_table() >= 0)
        K = modes.wavevectors
        self.Ty[pj, pk], self.Tz[pj, pk], _ = reduced_coefficients(K[pj], K[pk], frames)
        for arr in (self.Ty, self.Tz):
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
    crossKJ = cross(K[None, :, :], K[:, None, :])  # (j, k) -> k x j
    term1 = np.einsum("jka,jkb->jkab", Wq, crossKJ)
    s = np.einsum("jd,jkd->jk", K, Wq)
    CK = cross_matrix(K.T).transpose(2, 0, 1)  # (k, a, b)
    blocks = term1 + s[:, :, None, None] * CK[None, :, :, :]
    mat = blocks.transpose(0, 2, 1, 3).reshape(3 * M, 3 * M)
    return GlobalTensor(mat, modes, which, 3)
