"""Hamiltonian vector fields in full and reduced coordinates, and explicit
time integration with conservation diagnostics.

The field at mode j is the triad sum over k of block(j, k, omega_{j+k})
applied to omega_{-k}/|k|^2, with the coefficient zeroed whenever j+k leaves
the lattice.  For the full-coordinate structures the sum is a correlation.
With c_k = k x omega_{-k}/|k|^2 and omega' = omega (simple, direct) or its
Leray projection (projected), the simple and projected fields are

    f_j = j x X_j,    X_j = sum_k c_k x omega'_{j+k},

and the direct (advection) field is f_j - sum_k ((j+k) . omega_{j+k}) c_k,
which differs from the simple one only by terms in div omega.  The velocity
u_m = i m x omega_m/|m|^2 gives c_k = i u_{-k}, so X_j = i (u x omega')_j,
the Fourier coefficient of a product of two fields on the lattice: f is
the curl of the Lamb vector, truncated to the lattice.  The extra direct
term is likewise -(u d)_j with d_m = -i m . omega_m, the coefficient of
-div omega.

One engine evaluates that truncated sum, from stored rows to stored rows:
the bilinear form B(V, U) = T(V) grad E(U), whose diagonal is the field.
``GlobalTensor.apply`` runs T(omega) g on it, so no T g is an O(M^2) gather.
A state stores the canonical half-lattice, and the engine reads those (H, 3)
values directly: the modes with m_z >= 0 are scattered, each taken from its
stored row or the conjugate of its partner's.  The fields u, omega' (and d)
go to an (L, L, L) grid with one batched inverse real FFT, the products are
formed there, and one forward real FFT brings them back; the (H, 3)
canonical rows of the field are read off.  L is the smallest 5-smooth size
>= 3B + 1, B the largest mode index: products of two fields with indices in
[-B, B] reach 2B, so on that grid no triad aliases onto a mode (Orszag
1971, J. Atmos. Sci. 28:1074), and the FFT computes the truncated block sum
to roundoff; the tests keep the block sum and a gather over the pair table
as its oracles.  The engine caches O(M) scatter and read positions and the
(7, 3) maps from omega to the scattered fields at each mode with m_z >= 0.
Every FFT pass, transpose, product and row pass writes into buffers made
on the first call and kept (``FieldOperator``: the spectrum and two
complex work buffers, about 141 L^3 bytes, the row passes in views of
whichever work buffer the grid passes leave free), so a call allocates
only the rows it returns.  The buffers are shared by every call on the
ModeSet, which therefore must not run in two threads at once.

The reduced structure is the simple one restricted to the divergence-free
subspace and seen in the mode frames, so its field is the simple field at
the lifted state, rotated back: f~_j = R_j[1:] f_j(W) with
W_j = R_j[1:]^T wt_j over the canonical rows, R_j[1:] read from the
complex copy each FrameSet keeps (``FrameSet.transverse``), as are the
lifts of ``state``.  It runs on the same engine, with no table of its
own; the triad sum is as large as in full coordinates, and only the
state is a third smaller.

The all-row fields ``vector_field_full`` and ``vector_field_reduced`` are
the canonical rows completed by the state classes' pairing, so they obey
the (twisted) reality pairing bit for bit.

The step loop runs on the stored arrays.  ``half_field_evaluator`` returns
a callable from the stored rows of a state, (H, 3) or (H, 2) for reduced,
to the canonical rows of their field, and ``rk4_step`` forms its four
stages from ``state.values`` as plain arrays, in one stage array of its
own and the rows the evaluator returns, building one state per step: the
result.  The package integrates with the classical fourth-order
Runge-Kutta method only, which does not conserve the quadratic invariants
(energy, helicity) exactly, so conservation is monitored rather than
enforced.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import BlowUpError
from .frames import FrameSet, _cross_into, _cross_terms, check_frames, cross_matrix, leray_projector
from .lattice import ModeSet
from .state import DIVERGENCE_RTOL, DiagnosticsRecord, ReducedState, VorticityState, from_reduced, to_reduced
from . import observables

STRUCTURES = ("direct", "simple", "projected", "reduced")


def _smooth_size(n: int) -> int:
    """The smallest integer >= n with no prime factor above 5."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


# the transfer rows each structure scatters, one slice of (Leray projection,
# u, -i K . omega): omega' is omega itself but for projected, and only direct
# reads the last row
_MAPPED = {"projected": slice(0, 6), "simple": slice(3, 6), "direct": slice(3, 7)}


class _Stages(NamedTuple):
    """The views of the two work buffers, A and B, that one structure's
    passes write, in pass order; each pass reads the view before it."""

    x: np.ndarray  # A: inverse x pass, (c, y, z, x)
    y: np.ndarray  # B: inverse y pass, in place, (c, z, x, y)
    z: np.ndarray  # A: inverse z pass in, (c, x, y, z)
    fields: np.ndarray  # B: the real fields u, omega' (and d), (c, x, y, z)
    products: np.ndarray  # A: the real products, (c, x, y, z)
    rfft: np.ndarray  # B: forward z pass, (c, x, y, L//2 + 1)
    fy: np.ndarray  # A: forward y pass, in place, (c, z, x, y)
    fx: np.ndarray  # B: forward x pass, in place, (c, z, y, x)
    read: np.ndarray  # fx as (c, cell), where the canonical rows are read
    cross: tuple  # the terms of u x omega' into the first three products (_cross_terms)
    ud: tuple  # (u_c, d, product c + 3) for direct, one grid each; else empty
    scratch: np.ndarray  # the cross product's one grid of scratch


class _Rows(NamedTuple):
    """The row passes' views of the work buffers, each taken while the grid
    passes leave its buffer free, with the mask and the rows they read;
    S counts the modes with m_z >= 0, the ones scattered, and H the
    canonical ones."""

    lift: np.ndarray  # A, (H, 3): the lifted state of a reduced call, read by the gather
    W: np.ndarray  # B, (S, 3): omega at the scattered modes, gathered from the stored rows (then U)
    conj: np.ndarray  # (S, 3) bool: where W is the conjugate of its stored row
    mapped: np.ndarray  # B, (7, S): the transfer rows, in the order of _MAPPED
    Y: np.ndarray  # A, (6, H): the canonical rows of the products, conjugated where j_z < 0
    imag: tuple  # the imaginary part of each row of Y
    K: np.ndarray  # (3, H): the canonical wavevectors as complex rows
    jY: np.ndarray  # A, (H, 3): j x Y, as C-ordered rows
    cross: tuple  # the terms of j x Y into the columns of jY (_cross_terms)
    scratch: np.ndarray  # A, (H,): the cross product's one row of scratch
    simple: np.ndarray  # B, (H, 3): the simple field of a reduced call, before the rotation back


def _fft_tables(modes: ModeSet, L: int) -> tuple[np.ndarray, ...]:
    """Positions and transfer coefficients of the FFT engine.

    The engine scatters into a (7, L, B+1, L) spectrum, axes (component,
    y, z, x), and reads from a (., B+1, L, L) one, axes (component, z, y,
    x); the z frequencies are 0..B, the ones rfft stores, and x and y wrap
    modulo L.  For the modes a with a_z >= 0 it returns ``slot``, the
    stored row of a or of -a, and ``conj``, True where that row is -a's (so
    the value at a is its conjugate); ``transfer``, the (7, 3, len(slot))
    complex maps from omega to the scattered fields at each mode, in the
    order of ``_MAPPED`` (the Leray projection of omega, u = i K x
    omega/|K|^2, and -i K . omega); ``scatter``, the flat offsets of each
    transfer row, in the spectrum's components u (0-2), omega' (3-5) and
    -i K . omega (6).  Then for every canonical mode j, ``read``, the flat
    offset of j, or of -j where j_z < 0, and ``sign``, -1.0 where the value
    read is to be conjugated (j_z < 0) and 1.0 elsewhere.
    """
    a = modes.indices
    flip = a[:, 2] < 0
    b = np.where(flip[:, None], -a, a) % L
    Z = modes.max_index + 1
    H = modes.half_size
    read = (b[H:, 2] * L + b[H:, 1]) * L + b[H:, 0]
    up = np.flatnonzero(~flip)
    b = b[up]
    component = np.array([3, 4, 5, 0, 1, 2, 6])  # of each transfer row
    scatter = component[:, None] * (L * Z * L) + (b[:, 1] * Z + b[:, 2]) * L + b[:, 0]
    K = modes.wavevectors[up]
    velocity = 1j * cross_matrix(K) / (modes.norms[up] ** 2)[:, None, None]
    transfer = np.concatenate([leray_projector(K), velocity, -1j * K[:, None, :]], axis=1)
    conj = up < H
    slot = np.where(conj, H - 1 - up, up - H)
    return slot, conj, scatter, np.ascontiguousarray(transfer.transpose(1, 2, 0)), read, np.where(flip[H:], -1.0, 1.0)


class FieldOperator:
    """The FFT triad-sum engine over one ModeSet, from stored rows to stored rows.

    ``full_field`` takes the (H, 3) stored half-lattice values of a
    full-coordinate state and returns the (H, 3) canonical rows of its
    field, with one batched inverse and one forward real FFT on an
    (L, L, L) grid, the products formed in physical space.  Its tables are
    O(M) positions and transfer coefficients (``_fft_tables``); ``grid`` is
    L, so that a run can say what it ran.

    ``reduced_field`` lifts the (H, 2) stored reduced values through the
    frames' cached complex transverse rows, runs the body of ``full_field``
    for the simple structure and rotates the rows back.

    Every pass of a call writes into buffers made on the first call and
    reused by every later one, so a call allocates only the rows it
    returns, (H, 3) or (H, 2).  With Z = B + 1 they are the (7, L, Z, L)
    spectrum, zero off the scattered modes (112 L^2 Z bytes), and two
    complex work buffers that the passes take turns in, a transpose being
    a copy from one into the other: A holds the inverse x pass, the z pass
    input, the real products and the forward y pass (16 max(7 L^2 Z, 3 L^3)
    bytes); B holds the inverse y pass, the real fields, and the forward z
    and x passes (16 max(7 L^2 Z, 3.5 L^3, 6 L^2 (L//2 + 1)) bytes).  The inverse y and
    forward y and x passes run in place.  At Z about L/3 that is about
    141 L^3 bytes, 37 MB at N=20 (L=64).  All field calls on one ModeSet
    share the buffers and must not run in two threads at once.

    The O(M) row passes run in views of the work buffer that the grid
    passes leave free (``_Rows``), S counting the scattered modes (those
    with m_z >= 0) and H the canonical ones.  Before the scatter, B holds
    the gathered omega (S, 3), then U, and the transfer rows (7, S), 160
    bytes per scattered mode, and A the lift of a reduced call, 48 bytes per
    canonical mode.  After the forward x pass, A holds the canonical rows
    of the products (6, H), j x Y (H, 3) and one row of scratch, 160 bytes
    per canonical mode, and B the simple field of a reduced call, 48.
    Beside the buffers the rows keep the (S, 3) conjugation mask and the
    canonical wavevectors as complex (3, H) rows: 3 bytes per scattered and
    48 per canonical mode, 1.8 MB at N=20.
    """

    def __init__(self, modes: ModeSet):
        self.modes = modes
        self.K = modes.wavevectors[modes.half_size :]
        # 3B+1 points per side alias no triad; 5-smooth sizes keep the FFT fast
        self.grid = _smooth_size(3 * modes.max_index + 1)
        self.slot, self.conj, self.scatter, self.transfer, self.read, self.sign = _fft_tables(modes, self.grid)
        self._buffers = None  # (spectrum, (A, B), stages, rows) from the first call; the spectrum is zero off scatter

    def _make_buffers(self):
        """The spectrum, the work buffers A and B, the views of each pass,
        by direct (7 fields, 6 products) or not (6 and 3), and the rows."""
        L, Z = self.grid, self.modes.max_index + 1
        S, H = len(self.slot), self.modes.half_size
        cells, zh = L * Z * L, L // 2 + 1  # one (y, z, x) component; the z frequencies rfft returns
        spectrum = np.zeros((7, L, Z, L), dtype=complex)
        A = np.empty(max(7 * cells, (6 * L**3 + 1) // 2, 10 * H), dtype=complex)
        B = np.empty(max(7 * cells, (7 * L**3 + 1) // 2, 6 * L * L * zh, 10 * S), dtype=complex)
        fields = B.view(float)[: 7 * L**3].reshape(7, L, L, L)
        u, w = fields[:3], fields[3:6]
        stages = {}
        for direct, n, m in ((False, 6, 3), (True, 7, 6)):
            products = A.view(float)[: m * L**3].reshape(m, L, L, L)
            stages[direct] = _Stages(
                x=A[: n * cells].reshape(n, L, Z, L),
                y=B[: n * cells].reshape(n, Z, L, L),
                z=A[: n * cells].reshape(n, L, L, Z),
                fields=fields[:n],
                products=products,
                rfft=B[: m * L * L * zh].reshape(m, L, L, zh),
                fy=A[: m * cells].reshape(m, Z, L, L),
                fx=B[: m * cells].reshape(m, Z, L, L),
                read=B[: m * cells].reshape(m, cells),
                cross=_cross_terms(products, u, w),
                ud=tuple((u[c], fields[6], products[3 + c]) for c in range(3)) if direct else (),
                # d once u d is formed; else the row of A after the products
                scratch=fields[6] if direct else A.view(float)[m * L**3 : (m + 1) * L**3].reshape(L, L, L),
            )
        # every ufunc on the rows runs on rows of one stride or on C-ordered
        # rows throughout, so none buffers its operands; K is made complex
        # once, the cast its products would make
        Y, K, jY = A[: 6 * H].reshape(6, H), self.K.T.astype(complex), A[6 * H : 9 * H].reshape(H, 3)
        rows = _Rows(
            lift=A[: 3 * H].reshape(H, 3),
            W=B[: 3 * S].reshape(S, 3),
            conj=np.repeat(self.conj[:, None], 3, axis=1),
            mapped=B[3 * S : 10 * S].reshape(7, S),
            Y=Y,
            imag=tuple(y.imag for y in Y),
            K=K,
            jY=jY,
            cross=_cross_terms(jY.T, K, Y),
            scratch=A[9 * H : 10 * H],
            simple=B[: 3 * H].reshape(H, 3),
        )
        return spectrum, (A, B), stages, rows

    def _kept(self):
        """The buffers, made on the first call."""
        if self._buffers is None:
            self._buffers = self._make_buffers()
        return self._buffers

    def _check_rows(self, X: np.ndarray | None, components: int) -> None:
        if X is not None and np.shape(X) != (self.modes.half_size, components):
            raise ValueError(f"expected {(self.modes.half_size, components)} stored rows, got {np.shape(X)}")

    def full_field(self, V: np.ndarray, which: str, U: np.ndarray | None = None) -> np.ndarray:
        """(H, 3) canonical rows of the field at stored values V, or of B(V, U) = T(V) grad E(U).

        which: 'direct' (advection blocks), 'simple', or 'projected'.
        """
        if which not in _MAPPED:
            raise ValueError(f"unknown full-coordinate structure {which!r}")
        for X in (V, U):
            self._check_rows(X, 3)
        return self._field_into(V, which, np.empty((self.modes.half_size, 3), dtype=complex), U)

    def _field_into(self, V: np.ndarray, which: str, field: np.ndarray, U: np.ndarray | None = None) -> np.ndarray:
        """``full_field`` written into the C-ordered (H, 3) rows ``field``.

        V and U are read only by the gathers, before any grid pass, and ``field``
        written only last, so they may be the rows' lift and simple views.
        """
        spectrum, _, stages, r = self._kept()
        L, Z = self.grid, self.modes.max_index + 1
        # W_a = conj(V_-a) where -a is stored; clip, unlike raise, takes no copy
        np.take(V, self.slot, axis=0, out=r.W, mode="clip")
        np.negative(r.W.imag, out=r.W.imag, where=r.conj)
        rows, s = _MAPPED[which], stages[which == "direct"]
        np.einsum("rdm,dm->rm", self.transfer[rows], r.W.T, out=r.mapped[rows])
        if which != "projected":
            np.copyto(r.mapped[:3], r.W.T)  # omega' = omega
        if U is not None:  # u from U, gathered into W once omega is mapped
            np.take(U, self.slot, axis=0, out=r.W, mode="clip")
            np.negative(r.W.imag, out=r.W.imag, where=r.conj)
            np.einsum("rdm,dm->rm", self.transfer[3:6], r.W.T, out=r.mapped[3:6])
        n = len(s.fields)
        spectrum.reshape(-1)[self.scatter[:n]] = r.mapped[:n]
        # the inverse transform, x then y then z; each pass runs along the
        # last axis of a contiguous view, A and B taking turns (a transpose
        # is a copy from one into the other), and irfft pads z up to L//2
        # with zeros
        np.fft.ifft(spectrum[:n], axis=-1, norm="forward", out=s.x)
        np.copyto(s.y, s.x.transpose(0, 2, 3, 1))
        np.fft.ifft(s.y, axis=-1, norm="forward", out=s.y)
        np.copyto(s.z, s.y.transpose(0, 2, 3, 1))
        np.fft.irfft(s.z, n=L, axis=-1, norm="forward", out=s.fields)
        # u x omega', and for direct u d, point by point on the grid
        for u, d, out in s.ud:
            np.multiply(u, d, out=out)
        _cross_into(s.cross, s.scratch)
        # the forward transform: z (keeping 0..B), then y, then x
        np.fft.rfft(s.products, axis=-1, norm="forward", out=s.rfft)
        np.copyto(s.fy, s.rfft[..., :Z].transpose(0, 3, 1, 2))
        np.fft.fft(s.fy, axis=-1, norm="forward", out=s.fy)
        np.copyto(s.fx, s.fy.transpose(0, 1, 3, 2))
        np.fft.fft(s.fx, axis=-1, norm="forward", out=s.fx)
        m = len(s.products)
        np.take(s.read, self.read, axis=1, out=r.Y[:m], mode="clip")
        for y in r.imag[:m]:
            np.multiply(y, self.sign, out=y)  # Y_j = conj(Y_-j) where j_z < 0
        # f_j = j x (i Y_j), Y the transform of u x omega', as C-ordered rows
        _cross_into(r.cross, r.scratch)
        np.multiply(r.jY, 1j, out=field)
        if which == "direct":
            for f, y in zip(field.T, r.Y[3:]):
                np.add(f, y, out=f)  # minus sum_k ((j+k) . omega_{j+k}) c_k
        return field

    def reduced_field(self, vt: np.ndarray, frames: FrameSet) -> np.ndarray:
        """(H, 2) canonical rows of the reduced field at stored reduced values
        vt, against the energy gradient s wt_{-k}/|k|^2.

        The reduced field is the simple field at the lifted state, rotated
        into the frames: f~_j = P_j f_j(V), V_j = P_j^T vt_j, with P_j =
        R_j[1:] the transverse rows of each canonical frame, read as the
        complex ``frames.transverse``.
        """
        self._check_rows(vt, 2)
        P, r = frames.transverse, self._kept()[3]  # P is (H, 2, 3)
        np.einsum("mab,ma->mb", P, vt, out=r.lift)
        return np.einsum("jab,jb->ja", P, self._field_into(r.lift, "simple", r.simple))


def _operator(modes: ModeSet) -> FieldOperator:
    op = getattr(modes, "_field_operator", None)
    if op is None:
        op = FieldOperator(modes)
        modes._field_operator = op
    return op


def vector_field_full(state: VorticityState, modes: ModeSet, which: str = "projected") -> np.ndarray:
    """(M, 3) triad-sum field over all lattice modes, reality-paired by construction."""
    if modes is not state.modes:
        raise ValueError("state and modes disagree")
    return VorticityState(modes, _operator(modes).full_field(state.values, which)).full_values()


def vector_field_reduced(reduced: ReducedState, modes: ModeSet, frames: FrameSet) -> np.ndarray:
    """(M, 2) reduced field over all lattice modes, twisted-reality-paired by construction."""
    if modes is not reduced.modes:
        raise ValueError("state and modes disagree")
    check_frames(frames, modes)
    return ReducedState(modes, _operator(modes).reduced_field(reduced.values, frames)).full_values()


def half_field_evaluator(modes: ModeSet, which: str = "projected", frames: FrameSet | None = None):
    """Derivative of the stored half-lattice values, as a callable on those values.

    The callable maps stored rows to the canonical rows of their field, as
    plain arrays: for 'reduced' the (H, 2) values of a ReducedState to the
    (H, 2) rows of ``vector_field_reduced``, for the full-coordinate
    structures the (H, 3) values of a VorticityState to the (H, 3) rows of
    ``vector_field_full``.  It builds no state, and runs on the ModeSet's
    field operator and its shared buffers.  Each call returns rows of its
    own, a fresh array that shares no memory with the input or the kept
    buffers, and that the caller owns: ``rk4_step`` writes its combination
    into them.
    """
    if which not in STRUCTURES:
        raise ValueError(f"unknown structure {which!r} (want one of {STRUCTURES})")
    op = _operator(modes)
    if which == "reduced":
        if frames is None:
            frames = FrameSet(modes)
        check_frames(frames, modes)
        return lambda values: op.reduced_field(values, frames)
    return lambda values: op.full_field(values, which)


def rk4_step(state, dt: float, evaluator):
    """One classical fourth-order step; reality is structural, so it is kept.

    ``evaluator`` maps stored values to their derivative (``half_field_evaluator``).
    The stages k1..k4 are plain arrays formed from ``state.values``; the one
    state built is the result, of the input's type.  Raises BlowUpError when
    a stage produces non-finite values.

    Each stage input, y0 + h k, is formed in one array of the step's own, and
    the combination y0 + (dt/6)(k1 + 2 k2 + 2 k3 + k4) in the rows k1..k4,
    which the evaluator returns fresh; the operations and their order are
    those of the plain expressions, so the bits are too.
    """
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    y0 = state.values
    stage = np.empty_like(y0)
    with np.errstate(over="ignore", invalid="ignore"):  # blow-up is detected, not a bug
        k1 = evaluator(y0)
        k2 = evaluator(np.add(y0, np.multiply(0.5 * dt, k1, out=stage), out=stage))
        k3 = evaluator(np.add(y0, np.multiply(0.5 * dt, k2, out=stage), out=stage))
        k4 = evaluator(np.add(y0, np.multiply(dt, k3, out=stage), out=stage))
        y1 = np.add(k1, np.multiply(2.0, k2, out=k2), out=k1)
        y1 = np.add(y1, np.multiply(2.0, k3, out=k3), out=y1)
        y1 = np.add(y1, k4, out=y1)
        y1 = np.add(y0, np.multiply(dt / 6.0, y1, out=y1), out=y1)
    if not np.isfinite(y1).all():
        raise BlowUpError(0, "non-finite values in integration stage")
    return type(state)(state.modes, y1)


def _diagnostics(state: VorticityState, t: float) -> DiagnosticsRecord:
    # quadratic diagnostics can overflow before the state does; treat that
    # as the same blow-up condition as a non-finite state
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            values = (
                observables.energy(state),
                observables.helicity(state),
                state.divergence_residual(),
                state.amp_max,
            )
    except OverflowError:  # a Python float squared past the float range
        values = (math.inf,)
    if not all(math.isfinite(v) for v in values):
        raise BlowUpError(0, "non-finite diagnostics")
    return DiagnosticsRecord(t, *values)


def _evolve(current, dt: float, steps: int, evaluator, as_full, observe_every=1, t0=0.0, on_step=None):
    """RK4 steps of ``current`` in its own coordinates; (final state, its full form, records).

    ``as_full`` maps such a state to a VorticityState for diagnostics,
    ``on_step`` and blow-up reports; it runs once on each state that one of
    them reads, and the last step is always recorded.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    records = []
    prev, i = current, 0
    try:
        records.append(_diagnostics(as_full(current), t0))
        for i in range(steps):
            prev = current
            current = rk4_step(current, dt, evaluator)
            t = t0 + (i + 1) * dt
            observe = (i + 1) % observe_every == 0 or i == steps - 1
            if observe or on_step is not None:
                full = as_full(current)
            if observe:
                records.append(_diagnostics(full, t))
            if on_step is not None:
                on_step(i + 1, t, full)
    except BlowUpError as exc:
        err = BlowUpError(i, f"blow-up at step {i} (t={t0 + i * dt!r})")
        err.last_state = as_full(prev)
        err.t = t0 + i * dt
        err.records = records
        raise err from exc
    return current, full, records


def integrate(
    state: VorticityState,
    dt: float,
    steps: int,
    which: str = "projected",
    frames: FrameSet | None = None,
    observe_every: int = 1,
    t0: float = 0.0,
    on_step=None,
    div_rtol: float | None = None,
):
    """Repeated rk4 steps with diagnostics every ``observe_every`` steps.

    ``which='reduced'`` evolves the state in reduced coordinates (the input
    must be divergence-free within ``div_rtol``) and maps back through the
    frames for diagnostics and output.  Returns
    (final_state, [DiagnosticsRecord...]); the record list includes the
    initial state.  On blow-up (a non-finite state or non-finite
    diagnostics), raises BlowUpError carrying the failing step index, the
    last good full-coordinate state and time, and the records so far.  Any
    other error propagates unchanged.
    """
    if which == "reduced":
        if frames is None:
            frames = FrameSet(state.modes)
        current = to_reduced(state, frames, rtol=div_rtol if div_rtol is not None else DIVERGENCE_RTOL)
        as_full = lambda s: from_reduced(s, frames)
    else:
        current, as_full = state, lambda s: s
    evaluator = half_field_evaluator(state.modes, which, frames)
    _, final, records = _evolve(current, dt, steps, evaluator, as_full, observe_every, t0, on_step)
    return final, records


def integrate_reduced(reduced: ReducedState, dt: float, steps: int, frames: FrameSet):
    """The step loop of ``integrate`` in reduced coordinates: (final ReducedState,
    records of the initial and final states); blow-up raises as in ``integrate``."""
    evaluator = half_field_evaluator(reduced.modes, "reduced", frames)
    final, _, records = _evolve(reduced, dt, steps, evaluator, lambda s: from_reduced(s, frames), observe_every=steps)
    return final, records


def write_diagnostics_csv(records, path) -> None:
    lines = [observables.diagnostics_csv_header()]
    lines.extend(observables.diagnostics_csv_row(r) for r in records)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
