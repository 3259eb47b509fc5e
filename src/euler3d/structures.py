"""Blocks of the vorticity Poisson tensor and their global assembly.

Every block is a matrix-valued function of two wavevectors ``(j, k)`` and of
the vorticity coefficient at ``j + k`` (the block is linear in that
coefficient).  Blocks are array formulas, elementwise over (..., 3) pairs and
coefficients: one pair gives one (3, 3) or (2, 2) block, a batch a stack of
them with the same bits.  Four families are provided:

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
from functools import cached_property
import json

import numpy as np

from .errors import InvalidModeError, NonFiniteError
from .frames import FrameSet, check_frames, cross, cross_matrix, leray_project, leray_projector, _frames, _norm, _parallel_sign
from .lattice import ModeSet
from .state import ReducedState, from_reduced, to_reduced
from .dynamics import STRUCTURES, _operator  # STRUCTURES re-exported: config, cli and scripts read it here


def advection_block(j, k, w) -> np.ndarray:
    """Convolution-form block: w (k x j)^T - (k . w) cross_matrix(k)."""
    j = np.asarray(j, dtype=float)
    k = np.asarray(k, dtype=float)
    w = np.asarray(w)
    return w[..., :, None] * cross(k, j)[..., None, :] - np.vecdot(k, w)[..., None, None] * cross_matrix(k)


def simple_block(j, k, w) -> np.ndarray:
    """Structure block: w (k x j)^T + (j . w) cross_matrix(k).

    Antisymmetric under (j, k) exchange plus transposition, annihilates k on
    the right and j on the left, for arbitrary w.
    """
    j = np.asarray(j, dtype=float)
    k = np.asarray(k, dtype=float)
    w = np.asarray(w)
    return w[..., :, None] * cross(k, j)[..., None, :] + np.vecdot(j, w)[..., None, None] * cross_matrix(k)


def projected_block(j, k, w) -> np.ndarray:
    """Simple block with w replaced by its divergence-free part at j + k.

    The pair j + k = 0 yields the zero block (the mean mode vanishes
    identically, so no coefficient lives there).
    """
    j = np.asarray(j, dtype=float)
    k = np.asarray(k, dtype=float)
    q = j + k
    live = q.any(axis=-1)[..., None, None]
    P = leray_projector(np.where(live[..., 0], q, 1.0))
    w = np.matmul(P, np.asarray(w, dtype=complex)[..., None])[..., 0]
    return np.where(live, simple_block(j, k, w), 0j)


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
    live = q.any(axis=-1)
    if not (j.any(axis=-1) & k.any(axis=-1) | ~live).all():
        raise InvalidModeError("rotation frame undefined for the zero wavevector")
    R = _frames(np.stack(np.broadcast_arrays(j, k, q), axis=-2), frames.n)
    Rj, Rk, Rq = R[..., 0, :, :], R[..., 1, :, :], R[..., 2, :, :]
    w = np.matmul(np.swapaxes(Rq, -1, -2), np.asarray(wcheck, dtype=complex)[..., None])[..., 0]
    block = Rj @ simple_block(j, k, w) @ np.swapaxes(Rk, -1, -2)
    return np.where(live[..., None, None], block, 0j)


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
    jx, jy, jz, kx, ky, kz = j[..., 0], j[..., 1], j[..., 2], k[..., 0], k[..., 1], k[..., 2]
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
    return Ty * wtilde[..., 0, None, None] + Tz * wtilde[..., 1, None, None]


class ReducedTables:
    """Per-ModeSet reduced coefficient matrices for all pairs.

    Ty, Tz have shape (M, M, 2, 2); pairs whose sum leaves the lattice (or
    vanishes) hold zeros.  Built once per FrameSet, by one batched
    reduced_coefficients call, and cached there.  No package path reads
    them: the reduced field and tensor are the simple ones at the lifted
    state, in the frames (``dynamics.FieldOperator.reduced_field``,
    ``GlobalTensor``).  They serve the benchmark's set-up and the tests'
    oracles.
    """

    def __init__(self, frames: FrameSet):
        modes = frames.modes
        M = len(modes)
        self.frames = frames
        self.Ty, self.Tz = np.zeros((2, M, M, 2, 2))
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


# block rows j per chunk of factors: each reader builds the factors of this
# many rows at a time, so no (M, M) factor array is ever held.  Measured on
# real_form at N=3..5: 4 to 32 rows tie within noise, 64 is slower at N=5;
# 16 holds half the temporaries of 32.
_ROW_CHUNK = 16


def _row_chunks(start: int, stop: int):
    for lo in range(start, stop, _ROW_CHUNK):
        yield slice(lo, min(lo + _ROW_CHUNK, stop))


@dataclass
class GlobalTensor:
    """Block tensor of a structure over all lattice modes, kept as the state.

    ``values`` holds the state's (M, 3) full values: for projected, each
    projected once, at assembly, at its own mode, so the projected tensor is
    the simple one at the projected state; for reduced, those of the lifted
    state, with the ``frames`` it was lifted through.  The chunk of block
    rows j is the unit every reader streams through: the per-pair factors
    are built a chunk at a time (``_factors``), block (j, k) = Wq[j,k]
    (k x j)^T + s[j,k] [k]_x, with Wq the value at j + k (gathered at the
    positions ``ModeSet.pair_positions`` finds) and s = j . Wq.  The reduced
    structure is the simple one restricted to the divergence-free subspace,
    so its (2, 2) block is the simple block at the lifted state in the
    transverse frame rows, P_j T[j,k] P_k^T with P = frames.R[:, 1:].
    Ranks (``singular_values``, from the real form's blocks) are taken
    chunk by chunk, ``_dense_rows`` writes one chunk's dense rows, for
    ``matrix`` and ``save``, and T g (``apply``) runs on the field engine.  The identity suite's
    divergence check reads only ``values`` and builds its rows on the live
    pairs.  The dense ``matrix`` is built on first access; only ``block``
    and the tests read it.
    """

    modes: ModeSet
    which: str
    values: np.ndarray  # (M, 3), projected for projected, lifted for reduced
    frames: FrameSet | None = None  # the reduced tensor's own; for the others, the real form's

    @property
    def block_size(self) -> int:
        return 2 if self.which == "reduced" else 3

    @property
    def dim(self) -> int:
        return self.block_size * len(self.modes)

    @cached_property
    def _padded(self) -> np.ndarray:
        """The values with a zero row appended, read where j + k is not a mode."""
        return np.concatenate([self.values, np.zeros_like(self.values[:1])])

    @cached_property
    def _transverse(self) -> np.ndarray:
        """P = R[:, 1:], the transverse rows of every mode's frame, (M, 2, 3):
        of ``frames``, or of a default FrameSet made here once when the
        tensor was given none."""
        return (self.frames if self.frames is not None else FrameSet(self.modes)).R[:, 1:]

    def _factors(self, rows: slice):
        """Factors (Wq, s) of the block rows j in ``rows``, of shapes
        (rows, M, 3) and (rows, M), Wq the value at j + k.  Elementwise in
        (j, k), so a chunk holds the bits of the same rows built all at once.
        """
        w = self._padded.take(self.modes.pair_positions(rows), axis=0)
        return w, np.einsum("jd,jkd->jk", self.modes.wavevectors[rows], w)

    @cached_property
    def _cross_k(self) -> np.ndarray:
        """cross_matrix(K) as (a, c, k): the entries [k]_x[a, c] of every column mode k."""
        return np.ascontiguousarray(cross_matrix(self.modes.wavevectors).transpose(1, 2, 0))

    def _dense_rows(self, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
        """The dense rows of the block rows j in ``rows``, as (rows, b, M, b):
        block (j, k) at [j, :, k, :].  Written into ``out`` when given.

        The simple rows are written one (a, c) slice at a time,
        T[:, a, :, c] = Wq[:, :, a] (k x j)[:, :, c] + s [k]_x[a, c]."""
        M, b = len(self.modes), self.block_size
        if out is None:
            out = np.empty((rows.stop - rows.start, b, M, b), dtype=complex)
        simple = out if b == 3 else np.empty((len(out), 3, M, 3), dtype=complex)
        K = self.modes.wavevectors
        Wq, s = self._factors(rows)
        kxj = cross(K[None, :, :], K[rows, None, :])
        for a in range(3):
            for c in range(3):
                T = np.einsum("jk,jk->jk", Wq[..., a], kxj[..., c], out=simple[:, a, :, c])
                T += s * self._cross_k[a, c]
        if b == 2:  # reduced: the simple block at the lifted state, P_j T[j,k] P_k^T
            P = self._transverse
            np.einsum("jakc,kdc->jakd", np.einsum("jab,jbkc->jakc", P[rows], simple), P, out=out)
        return out

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense (dim, dim) complex matrix; block (j, k) sits at rows b j, columns b k."""
        M, b = len(self.modes), self.block_size
        mat = np.empty((M, b, M, b), dtype=complex)
        for rows in _row_chunks(0, M):
            self._dense_rows(rows, mat[rows])
        return mat.reshape(b * M, b * M)

    def block(self, pj: int, pk: int) -> np.ndarray:
        b = self.block_size
        return self.matrix[b * pj : b * (pj + 1), b * pk : b * (pk + 1)]

    def apply(self, g: np.ndarray) -> np.ndarray:
        """T g for a flat covector g of length dim: the field engine's B(values, U) = T a at
        U_m = |m|^2 a_{-m}, for each reality-paired part a of g = a + i b, completed by
        pairing.  Reduced: g is lifted, G_k = P_k^T g_k, and the rows rotated back."""
        M, H = len(self.modes), len(self.modes) // 2
        g = g.reshape(M, self.block_size)
        if self.which == "reduced":
            P = self._transverse
            g = np.einsum("kab,ka->kb", P, g)
        opposite = np.conj(g[::-1])  # conj(g_{-k}) at k, so a = (g + opposite) / 2 is paired
        n2 = self.modes.norms[H:, None] ** 2
        Ta, Tb = (_operator(self.modes).full_field(self.values[H:], "simple", n2 * x[H - 1 :: -1])
                  for x in ((g + opposite) / 2, (g - opposite) / 2j))
        out = np.concatenate([(np.conj(Ta) + 1j * np.conj(Tb))[::-1], Ta + 1j * Tb])
        if self.which == "reduced":
            out = np.einsum("jab,jb->ja", P, out)
        return out.reshape(-1)

    def support_blocks(self) -> list[np.ndarray]:
        """Canonical slots of each block of the real form, read off the state's support, by size.

        The real entries between canonical slots j and k are those of
        T[j, k] and T[j, -k], linear in the values at j + k and j - k, so
        they vanish where both values do.  Slots are coupled when either
        value is nonzero, found by one boolean gather of the support at the
        pair positions, a chunk of canonical rows at a time; the blocks are
        the connected components of that pattern.  Returns one (count, n)
        array per block size n, each row one block in ascending slot order.
        A generic state gives one block.  A block may join slots whose
        entries all vanish, such as those on the axis of a shear.
        """
        M = len(self.modes)
        H = M // 2
        live = np.append(self.values.any(axis=1), False)  # the appended entry is read where j + k is not a mode
        coupled = np.empty((H, H), dtype=bool)
        for rows in _row_chunks(H, M):
            on = live.take(self.modes.pair_positions(rows))  # (rows, M): at j + k for every mode k
            np.logical_or(on[:, H:], on[:, H - 1 :: -1], out=coupled[rows.start - H : rows.stop - H])
        # symmetric as built: the value at k - j is nonzero where the one at j - k is
        label = np.arange(H)
        while True:  # smallest slot of each block: take neighbours' minima, then jump
            new = np.minimum(label, np.min(np.broadcast_to(label, (H, H)), axis=1, where=coupled, initial=H))
            new = new[new]
            if np.array_equal(new, label):
                break
            label = new
        size = np.unique(label, return_counts=True)[1]
        order = np.argsort(label, kind="stable")
        start = np.cumsum(size) - size
        return [order[start[size == n, None] + np.arange(n)] for n in np.unique(size)]

    def _real_blocks(self, slots: np.ndarray) -> np.ndarray:
        """The real form's blocks on the canonical slots of each row of ``slots``
        (count, n), as (count, 4n, 4n); rows and columns (Re/Im, slot, transverse
        component) in the form's order.

        Simple and projected blocks kill k on the right and j on the left, so
        conjugated into the mode frames, R_j T[j,k] R_k^T, their first row and
        column vanish.  The frames are orthonormal, so the two transverse rows
        P_j = R_j[1:] and columns of every block carry all the nonzero singular
        values.  P_j T[j,k] P_k^T = (P_j Wq_jk)(P_k (k x j))^T + s_jk P_j [k]_x P_k^T
        is written from the factors, a chunk of each block's rows at a time;
        no other row is built.  Any frames with R_{-j} = S R_j give the same
        singular values, so simple and projected take those they were given,
        or the default ones; the reduced tensor is that form in its own frames.

        In the frames the coordinates pair up as w_{-j} = s conj(w_j) with
        s = ReducedState.twist (R_{-j} = S R_j), so T[-j,-k] = s conj(T[j,k]) s.
        In the real coordinates (Re, Im of each canonical mode) the tensor is
        V^H T conj(V) with V unitary: a real antisymmetric matrix with the
        same singular values.  With A = T[j,k] and B = T[j,-k] over canonical
        j, k its blocks are
        [[Re A + Re B s, Im A - Im B s], [Im A + Im B s, -Re A + Re B s]],
        filled in place from the canonical rows.
        """
        H = len(self.modes) // 2
        count, n = slots.shape
        K = self.modes.wavevectors
        P = self._transverse  # (M, 2, 3)
        KP = np.concatenate([K[:, None, :], P], axis=1)  # (M, 3, 3): rows j, P_j[0], P_j[1]
        # the column modes of each block in ascending position: its slots'
        # negatives (the slots reversed), then the slots; the columns (k, b)
        # are flat, with k x P_k[b] in each
        cols = np.concatenate([H - 1 - slots[:, ::-1], H + slots], axis=1)
        kxP = cross(K[cols][..., None, :], P[cols]).reshape(count, 4 * n, 3).transpose(0, 2, 1)
        # the columns of T[j, -k] for the slots k in order, and the twist s on b
        neg = (2 * np.arange(n - 1, -1, -1)[:, None] + np.arange(2)).ravel()
        twist = np.tile(ReducedState.twist, n)

        def part(F, X):  # Re or Im of T[j, k] = s_jk X[1:] - P_j Wq_jk X[0]: A, and B s for -k
            T = X[..., 1:, :] * F[..., :1, :]
            T -= F[..., 1:, :] * X[..., :1, :]
            return T[..., 2 * n :], T.take(neg, axis=-1) * twist

        real = np.empty((count, 2, n, 2, 2, 2 * n))
        per = max(1, _ROW_CHUNK // n)  # blocks per chunk: a chunk holds at most _ROW_CHUNK rows
        for first in range(0, count, per):
            blocks = slice(first, first + per)
            for rows in _row_chunks(0, n):
                J = H + slots[blocks, rows]
                c, r = J.shape
                # [s_jk, P_j Wq_jk] = [j; P_j] Wq_jk in one product, repeated over
                # b; P_k[b] . (k x j) = -j . (k x P_k[b]) beside P_j (k x P_k[b])
                Wq = self._padded.take(self.modes.pair_positions(J, cols[blocks]), axis=0)  # (c, r, 2n, 3)
                F = np.repeat(np.matmul(KP[J], np.swapaxes(Wq, -1, -2)), 2, axis=-1)
                X = (KP[J].reshape(c, 3 * r, 3) @ kxP[blocks]).reshape(c, r, 3, 4 * n)
                (reA, reBs), (imA, imBs) = part(F.real, X), part(F.imag, X)
                out = real[blocks]
                np.add(reA, reBs, out=out[:, 0, rows, :, 0])
                np.subtract(imA, imBs, out=out[:, 0, rows, :, 1])
                np.add(imA, imBs, out=out[:, 1, rows, :, 0])
                np.subtract(reBs, reA, out=out[:, 1, rows, :, 1])
        return real.reshape(count, 4 * n, 4 * n)

    def real_form(self) -> np.ndarray:
        """The (2M, 2M) real antisymmetric form that carries every nonzero
        singular value: the one block holding every canonical slot."""
        H = len(self.modes) // 2
        return self._real_blocks(np.arange(H)[None])[0]

    def singular_values(self) -> np.ndarray:
        """All dim singular values, largest first, block by block.

        The real form is block diagonal up to a permutation of its canonical
        slots (``support_blocks``), so its singular values are the union of
        its blocks'.  Each block is built on its own, and gets its own SVD,
        batched by block size; no other entry of the form is built.  The M
        directions the real form drops add M exact zeros at the end.  A block
        that is not finite raises NonFiniteError.
        """
        M = len(self.modes)
        sv = []
        for slots in self.support_blocks():
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused just below
                forms = self._real_blocks(slots)
            if not np.isfinite(forms).all():
                raise NonFiniteError(f"the real form of the {self.which} tensor overflows: the state is too large")
            sv.append(np.linalg.svd(forms, compute_uv=False).ravel())
        return np.concatenate([np.sort(np.concatenate(sv))[::-1], np.zeros(self.dim - 2 * M)])

    def save(self, path_prefix: str) -> tuple[str, str]:
        """Write <prefix>.bin (row-major little-endian complex128) + header.

        The dense rows are streamed a chunk at a time; ``matrix`` is not built."""
        bin_path = f"{path_prefix}.bin"
        json_path = f"{path_prefix}.json"
        with open(bin_path, "wb") as fh:
            for rows in _row_chunks(0, len(self.modes)):
                fh.write(self._dense_rows(rows).astype("<c16", copy=False))
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
    """The tensor of the chosen structure at the state: blocks (j, k) at omega_{j+k}.

    Keeps the state's full values (projected: each projected once, at its
    own mode; reduced: those of the lifted state) and the frames, which the
    real form is written in (reduced: the default ones when none are given;
    simple and projected: made on first use when none are given); the
    readers build the per-pair factors a chunk of rows at a time.  Pairs
    whose sum leaves the lattice contribute zero blocks.  The tensor is
    antisymmetric as a flat matrix.  A state of another ModeSet raises
    ValueError.
    """
    if which not in ("simple", "projected", "reduced"):
        raise ValueError(f"unknown structure {which!r} (want simple|projected|reduced)")
    if state.modes is not modes:
        raise ValueError("state and modes disagree")
    if which == "reduced" and frames is None:
        frames = FrameSet(modes)
    if frames is not None:
        check_frames(frames, modes)
    if which == "reduced":
        reduced = state if isinstance(state, ReducedState) else to_reduced(state, frames)
        return GlobalTensor(modes, which, from_reduced(reduced, frames).full_values(), frames)
    values = state.full_values()
    return GlobalTensor(modes, which, leray_project(modes.wavevectors, values) if which == "projected" else values, frames)
