"""Executable checks for the algebraic identities of the bracket machinery.

Every check is an array formula over a batch of cases: pairs or triples of
modes (or wavevectors) along the last axis of (..., 3) arrays, with their
coefficients.  It returns one residual per case (normalized where stated),
or a float for a single case.  The suite driver draws seeded random cases
and calls each check once on the whole batch.  Derivatives in the Jacobi
residual are analytic: each block is linear in its coefficient argument, so
the derivative against one coefficient component is a constant matrix, and
nothing is lost to finite differencing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import FrameSet, cross, cross_matrix, leray_projector
from .lattice import ModeSet
from . import structures as st
from .state import VorticityState, random_divfree_state


def _fro(x, ndim: int = 2) -> np.ndarray:
    """Euclidean norm over the last ``ndim`` axes, summed as np.linalg.norm sums one array.

    Real input skips the zero imaginary part: a sum of squares is never -0.0, so adding 0.0 moves no bit.
    """
    x = np.asarray(x)
    flat = x.reshape(x.shape[: x.ndim - ndim] + (math.prod(x.shape[x.ndim - ndim :]),))
    if not np.iscomplexobj(flat):
        return np.sqrt(np.vecdot(flat, flat))
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


def _result(x):
    """One residual per case: a float for a single case."""
    return float(x) if np.ndim(x) == 0 else x


def _apply(B, v) -> np.ndarray:
    """B @ v for stacks of matrices and vectors."""
    return np.matmul(B, v[..., None])[..., 0]


def _value_at(state: VorticityState, a) -> np.ndarray:
    """Coefficient of ``state`` at each mode of a (..., 3) array, zero where a is not a mode."""
    values = state.full_values()
    return np.concatenate([values, np.zeros_like(values[:1])])[state.modes.positions(a)]


# -- block-level identities -----------------------------------------------------


def check_antisymmetry(j, k, w, which: str = "simple"):
    """|| B(j,k,w) + B(k,j,w)^T || / max(1, ||B(j,k,w)||)."""
    block = st.projected_block if which == "projected" else st.simple_block
    B1 = block(j, k, w)
    B2 = block(k, j, w)
    return _result(_fro(B1 + np.swapaxes(B2, -1, -2)) / np.maximum(1.0, _fro(B1)))


def kernel_residuals(j, k, w, which: str = "simple"):
    """Right-kernel ||B k|| and left-kernel ||j^T B||, scale-normalized."""
    block = st.projected_block if which == "projected" else st.simple_block
    B = block(j, k, w)
    j = np.asarray(j, dtype=float)
    k = np.asarray(k, dtype=float)
    scale = np.maximum(1.0, _fro(B))
    right = _fro(_apply(B, k), 1) / (scale * np.maximum(1.0, _fro(k, 1)))
    left = _fro(np.matmul(j[..., None, :], B)[..., 0, :], 1) / (scale * np.maximum(1.0, _fro(j, 1)))
    return _result(right), _result(left)


def difference_residual(j, k, w):
    """Deviation of simple - advection from ((j+k).w) cross_matrix(k), relative."""
    j = np.asarray(j, dtype=float)
    k = np.asarray(k, dtype=float)
    w = np.asarray(w, dtype=complex)
    lhs = st.simple_block(j, k, w) - st.advection_block(j, k, w)
    rhs = np.vecdot(j + k, w)[..., None, None] * cross_matrix(k)
    return _result(_fro(lhs - rhs) / np.maximum(np.maximum(1.0, _fro(rhs)), _fro(lhs)))


# -- Jacobi ----------------------------------------------------------------------


def _jacobi_terms(ai, aj, ak, wm, modes: ModeSet, which: str):
    """(L, D): the three factor pairs of the structure-matrix Jacobi sum, stacked first.

    L is the block at the outer pair, evaluated at wm, the coefficient of
    i+j+k; D stacks the constant derivative matrices of the inner block
    against the three components of its coefficient.  A term exists only
    when the inner pair's sum is a lattice mode (otherwise that coefficient
    is identically zero in the truncated system and is not a coordinate);
    a missing term has L = 0.
    """
    if which not in ("simple", "projected"):
        raise ValueError(f"jacobi check wants 'simple' or 'projected', got {which!r}")
    block = st.projected_block if which == "projected" else st.simple_block
    diag = modes.aniso.diagonal()
    outer, inner0, inner1 = np.stack([ai, ak, aj]), np.stack([aj, ai, ak]), np.stack([ak, aj, ai])
    q = inner0 + inner1
    live = modes.positions(q) >= 0
    L = np.where(live[..., None, None], block(diag * outer, diag * q, wm), 0j)
    iv0, iv1 = diag * inner0, diag * inner1
    # the derivative of the block against component d of its coefficient is
    # the simple block at basis[d]: e_d, or its projection for projected
    basis = np.eye(3)
    if which == "projected":
        basis = np.swapaxes(leray_projector(np.where(live[..., None], iv0 + iv1, 1.0)), -1, -2)
    D = st.simple_block(iv0[..., None, :], iv1[..., None, :], basis)
    return L, D


_JACOBI_PATTERNS = ("...ad,...dbg->...abg", "...gd,...dab->...abg", "...bd,...dga->...abg")


def _jacobi_max(L, D) -> np.ndarray:
    """max over components of |Z|, Z the three-term Jacobi sum."""
    Z = sum(np.einsum(pattern, l, d) for pattern, l, d in zip(_JACOBI_PATTERNS, L, D))
    return np.abs(Z).max(axis=(-3, -2, -1))


def jacobi_residual(ai, aj, ak, state: VorticityState, which: str = "simple"):
    """max over components of |Z(i,j,k)|, the three-term Jacobi sum."""
    wm = _value_at(state, np.asarray(ai) + aj + ak)
    return _result(_jacobi_max(*_jacobi_terms(ai, aj, ak, wm, state.modes, which)))


def jacobi_scale(ai, aj, ak, state: VorticityState, which: str = "simple"):
    """Pre-cancellation magnitude of the Jacobi sum: max ||L|| ||D|| over terms."""
    wm = _value_at(state, np.asarray(ai) + aj + ak)
    L, D = _jacobi_terms(ai, aj, ak, wm, state.modes, which)
    return _result(np.max(_fro(L) * _fro(D, 3), axis=0))


def jacobi_residual_normalized(ai, aj, ak, state: VorticityState, which: str = "simple"):
    scale = np.asarray(jacobi_scale(ai, aj, ak, state, which))
    residual = np.asarray(jacobi_residual(ai, aj, ak, state, which))
    return _result(np.divide(residual, scale, out=np.zeros_like(residual), where=scale != 0.0))


# -- Casimir identities ----------------------------------------------------------


def casimir_identity_residual(aj, ak, state: VorticityState):
    """Pairwise cancellation behind the alignment-invariant kernel property.

    Normalized by the larger of the two term magnitudes; zero coefficients
    give zero residual.
    """
    diag = state.modes.aniso.diagonal()
    aj, ak = np.asarray(aj), np.asarray(ak)
    q = aj + ak
    live = q.any(axis=-1)
    jv, kv = diag * aj, diag * ak
    qv = jv + kv
    w_q = _value_at(state, q)
    w_mk = _value_at(state, -ak)
    qq = np.where(live, np.vecdot(qv, qv), 1.0)[..., None]
    t1 = _apply(st.projected_block(jv, kv, w_q), cross(kv, w_mk) / np.vecdot(kv, kv)[..., None])
    t2 = _apply(st.projected_block(jv, -qv, w_mk), cross(-qv, w_q) / qq)
    # both terms are bounded by ~2 |j| |w_q| |w_-k|; normalizing by the input
    # magnitude keeps degenerate (collinear) cases from dividing roundoff by
    # roundoff
    input_scale = _fro(jv, 1) * _fro(w_q, 1) * _fro(w_mk, 1)
    scale = np.maximum(np.maximum(_fro(t1, 1), _fro(t2, 1)), input_scale)
    live &= scale != 0.0
    return _result(np.divide(_fro(t1 + t2, 1), scale, out=np.zeros_like(scale), where=live))


def divergence_casimir_check(state: VorticityState, g: np.ndarray) -> float:
    """Residual of the bracket rows that pair divergence functions with g.

    Every divergence function j . omega_j is a Casimir of the projected
    structure, so the row j^T T[j, k] vanishes for every k.  Returns the worst
    |sum_k j^T T[j, k] g_k| over the block rows j, each normalized by
    max(|j| sum_k sum_(a,b) |T[j, k]_ab| |g_k|_b, 1), for g of shape (M, 3).

    Block (j, k) is zero unless j + k is a mode, so the rows are built on
    these live pairs alone, a chunk of block rows at a time.  The factors of
    block (j, k) = Wq (k x j)^T + s [k]_x, with Wq the projected value at
    j + k and s = j . Wq, are gathered as (3, P) planes over the chunk's P
    live pairs.  Each output component c sums over a = 0, 1, 2 in turn the
    row term j_a T[j, a, k, c] and |T[j, a, k, c]|, reading [k]_x[a, c] as
    plus or minus one component of k.  The sums are scattered into zeroed
    (rows, M, 3) arrays for the two sums over k.  The sums run over a in the
    dense einsum's order and a dead pair's zeros are exact, so each row's
    residual has the bits of the one taken on the dense matrix; neither that
    3M x 3M matrix nor one chunk's dense rows is ever held.
    """
    modes = state.modes
    M = len(modes)
    g = np.asarray(g)
    if g.shape != (M, 3):
        raise ValueError(f"covector shape {g.shape} != ({M}, 3)")
    values = np.ascontiguousarray(st.assemble_global(state, modes, "projected").values.T)
    K = np.ascontiguousarray(modes.wavevectors.T)
    abs_g = np.abs(g)
    rows = np.empty((st._ROW_CHUNK, M, 3), dtype=complex)  # j^T T[j, k], as (j, k, c)
    mags = np.empty(rows.shape)  # sum over a of |T[j, a, k, c]|
    worst = []
    for chunk in st._row_chunks(0, M):
        pos = modes.pair_positions(chunk)
        live = pos >= 0
        Wq = values.take(pos[live], axis=1)
        T = np.empty_like(Wq)  # T[a] = T[j, a, k, c] for one c; the last chunk's is dropped here
        j = np.repeat(K[:, chunk], np.count_nonzero(live, axis=1), axis=1)
        k = K.take(np.flatnonzero(live) % M, axis=1)
        kxj = cross(k.T, j.T).T
        s = np.einsum("dp,dp->p", j, Wq)
        n = chunk.stop - chunk.start
        rows[:n], mags[:n] = 0.0, 0.0
        for c in range(3):
            np.multiply(Wq, kxj[c], out=T)
            T[(c + 1) % 3] += s * k[(c + 2) % 3]  # [k]_x[c + 1, c] = k_(c + 2)
            T[(c + 2) % 3] -= s * k[(c + 1) % 3]  # [k]_x[c + 2, c] = -k_(c + 1)
            mags[:n, :, c][live] = np.abs(T).sum(axis=0)
            T *= j  # the row terms j_a T[j, a, k, c]
            rows[:n, :, c][live] = T.sum(axis=0)
        num = np.abs(np.einsum("jkb,kb->j", rows[:n], g))
        scale = np.einsum("jkb,kb->j", mags[:n], abs_g)
        scale = np.maximum(scale * modes.norms[chunk], 1.0)
        worst.append(np.max(num / scale))
    return float(np.max(worst))


def reduced_identity_residual(aj, ak, frames: FrameSet):
    """Residual of the three reduced coefficient identities (both rows).

    These are exactly the componentwise conditions making the reduced
    helicity a Casimir of the reduced structure.
    """
    diag = frames.modes.aniso.diagonal()
    jv = diag * np.asarray(aj, dtype=float)
    kv = diag * np.asarray(ak, dtype=float)
    qv = jv + kv
    live = qv.any(axis=-1)
    nk, nq = _fro(kv, 1), np.where(live, _fro(qv, 1), 1.0)
    Ty1, Tz1, _ = st.reduced_coefficients(jv, kv, frames)
    Ty2, Tz2, _ = st.reduced_coefficients(jv, np.where(live[..., None], -qv, kv), frames)
    k, q = nk[..., None], nq[..., None]
    fams = np.stack(
        [Ty1[..., 0] / k + Tz2[..., 1] / q, Ty1[..., 1] / k + Ty2[..., 1] / q, Tz1[..., 0] / k + Tz2[..., 0] / q]
    )
    peak = lambda T, n: np.abs(T).max(axis=(-2, -1)) / n  # noqa: E731
    scale = np.max([peak(Ty1, nk), peak(Tz1, nk), peak(Ty2, nq), peak(Tz2, nq), np.full_like(nk, 1e-30)], axis=0)
    return _result(np.where(live, np.abs(fams).max(axis=(0, -1)) / scale, 0.0))


def cross_check_tilde(aj, ak, wtilde, frames: FrameSet):
    """Explicit reduced tables vs the frame-conjugated construction.

    Integer arguments are modes, real ones wavevectors.
    """
    diag = frames.modes.aniso.diagonal()
    jv, kv = (
        diag * np.asarray(a, float) if np.asarray(a).dtype.kind in "iu" else np.asarray(a, float) for a in (aj, ak)
    )
    wtilde = np.asarray(wtilde, dtype=complex)
    explicit = st.reduced_block(jv, kv, wtilde, frames)
    wcheck = np.concatenate([np.zeros_like(wtilde[..., :1]), wtilde], axis=-1)
    conj = st.rotated_block(jv, kv, wcheck, frames)[..., 1:, 1:]
    scale = np.maximum(np.maximum(1.0, _fro(conj)), _fro(explicit))
    return _result(_fro(explicit - conj) / scale)


# -- kernel / rank ----------------------------------------------------------------


@dataclass(frozen=True)
class RankReport:
    rank: int
    corank: int
    singular_values: np.ndarray


def poisson_rank(
    state: VorticityState,
    modes: ModeSet,
    which: str = "projected",
    tol: float = 2.0**-46,
    frames: FrameSet | None = None,
) -> RankReport:
    """Numerical rank of the assembled tensor over the complex field.

    rank = number of singular values above tol * sigma_max * dimension; the
    singular values come from the tensor's real form, which has the same ones.
    """
    tensor = st.assemble_global(state, modes, which, frames)
    sv = tensor.singular_values()
    dim = tensor.dim
    if sv.size == 0 or sv[0] == 0.0:
        return RankReport(0, dim, sv)
    rank = int(np.sum(sv > tol * sv[0] * dim))
    return RankReport(rank, dim - rank, sv)


def kernel_contains(tensor: st.GlobalTensor, covector: np.ndarray, tol: float = 1e-12) -> bool:
    """True iff ||K g|| <= tol ||K|| ||g|| (spectral norm)."""
    g = np.asarray(covector).reshape(-1)
    if g.shape[0] != tensor.dim:
        raise ValueError(f"covector length {g.shape[0]} != tensor dim {tensor.dim}")
    norm_t = float(tensor.singular_values()[0])
    norm_g = float(np.linalg.norm(g))
    if norm_t == 0.0 or norm_g == 0.0:
        return True
    return float(np.linalg.norm(tensor.apply(g))) <= tol * norm_t * norm_g


# -- suite driver -------------------------------------------------------------------


def _random_modes(rng, modes: ModeSet, count: int) -> np.ndarray:
    """``count`` modes in one draw: the modes that ``count`` draws of one mode give, in order."""
    return modes.indices[rng.integers(len(modes), size=count)]


def _random_wt(rng, count: int) -> np.ndarray:
    """``count`` (2,) coefficients in one draw: the first two components of ``count`` draws of
    ``rng.normal(size=3) + 1j * rng.normal(size=3)``, in order."""
    z = rng.normal(size=(count, 2, 3))
    return z[:, 0, :2] + 1j * z[:, 1, :2]


def _axis_pairs(rng, modes: ModeSet, axis: np.ndarray, count: int) -> np.ndarray:
    """``count`` pairs (a mode on the ``axis`` line, a random mode) in one draw: per pair a sign,
    a magnitude and a mode, in the order of one scalar draw each."""
    d = rng.integers([0, 1, 0], [2, modes.N + 1, len(modes)], size=(count, 3))
    return np.stack([((2 * d[:, :1] - 1) * d[:, 1:2]) * axis, modes.indices[d[:, 2]]], axis=1)


def _sample(rng, draw, accept, count: int, tries: float, shape: tuple) -> np.ndarray:
    """The first ``count`` tries that ``accept`` takes, as one array; gives up after ``tries`` tries.

    ``draw(n)`` makes n tries on ``rng``; ``accept`` tests a (n, *shape) batch.  A batch holding the last
    try needed is drawn again up to it, so ``rng`` ends where one try at a time would leave it.
    """
    found, seen, hits = [np.zeros((0, *shape), dtype=np.int64)], 0, 0
    while hits < count and seen < tries:
        # the shortfall over the acceptance rate so far (double while none passed), at most 2**9 tries:
        # a triple batch's largest array then stays at 48 KiB; a 1520-try one (143 KiB) was seen to
        # change the speed of later gathers in the same process
        short = count - hits
        n = int(min(-(-short * seen // hits) if hits else max(short, seen), tries - seen, 1 << 9))
        state = rng.bit_generator.state
        x = draw(n).reshape(n, *shape)
        ok = np.flatnonzero(accept(x))[:short]
        if len(ok) == short and ok[-1] + 1 < n:
            rng.bit_generator.state = state
            draw(ok[-1] + 1)
        found.append(x[ok])
        seen, hits = seen + n, hits + len(ok)
    return np.concatenate(found)


def _triples(rng, modes: ModeSet, count: int, tries: float, inside: bool = True) -> np.ndarray:
    """Up to ``count`` triples (i, j, k) whose pairwise sums and total are modes, or
    (``inside=False``) whose total is a mode and some nonzero pairwise sum is not."""

    def accept(t):
        sums = t + t[:, [1, 2, 0]]
        pos = modes.positions(np.concatenate([sums, t.sum(axis=1, keepdims=True)], axis=1))
        if inside:
            return (pos >= 0).all(axis=1)
        return (pos[:, 3] >= 0) & (sums.any(axis=2) & (pos[:, :3] < 0)).any(axis=1)

    return _sample(rng, lambda n: _random_modes(rng, modes, 3 * n), accept, count, tries, (3, 3))


def _random_inside_triple(rng, modes: ModeSet) -> np.ndarray:
    """One triple of ``_triples``, with no limit on the tries."""
    return _triples(rng, modes, 1, math.inf)[0]


def run_identity_suite(
    modes: ModeSet,
    frames: FrameSet,
    seed: int = 0,
    cases: int = 1000,
    identity_tol: float = 1e-12,
    workers: int = 1,
) -> dict:
    """Sweep every identity with seeded random cases; returns a JSON-able report.

    Each check runs once, on the whole batch of its cases.  Rejection draws
    give up after 50 * ``cases`` tries, so a sparse mode set reports fewer
    (possibly zero) cases instead of drawing forever.  ``workers`` must be 1.
    """
    if workers != 1:
        raise ValueError(f"the identity suite runs on one thread, got workers={workers}")
    rng = np.random.default_rng(seed)
    tries = 50 * cases
    report: dict = {"N": modes.N, "seed": seed, "cases": cases, "identity_tol": identity_tol, "checks": {}}

    def add(name: str, residuals, tol: float | None, parts=(), extra: dict | None = None) -> None:
        # parts: the checked arguments, one batch each; a tolerance of None
        # reports the residuals without a pass/fail claim
        worst = float(np.max(residuals)) if len(residuals) else 0.0
        entry = {
            "max_residual": worst,
            "cases": int(len(residuals)),
            "tolerance": tol,
            "passed": bool(tol is None or worst <= tol),
        }
        if len(parts) and len(residuals):
            # JSON-able echo of the worst case's arguments (wavevectors/modes first)
            worst_parts = [np.atleast_1d(part[int(np.argmax(residuals))]) for part in parts]
            entry["worst_case"] = [
                (np.stack([a.real, a.imag], axis=-1) if a.dtype.kind == "c" else a.astype(float)).tolist()
                for a in worst_parts
            ]
        report["checks"][name] = {**entry, **(extra or {})}

    # Lemma-family block identities, simple and projected
    # per case two modes, then a coefficient's real and imaginary parts
    draws = [(rng.integers(len(modes), size=2), rng.normal(size=(2, 3))) for _ in range(cases)]
    pj, pk = np.array([d[0] for d in draws], dtype=np.int64).reshape(cases, 2).T
    z = np.array([d[1] for d in draws]).reshape(cases, 2, 3)
    pair = (modes.wavevectors[pj], modes.wavevectors[pk], z[:, 0] + 1j * z[:, 1])
    for which in ("simple", "projected"):
        add(f"check_antisymmetry_{which}", check_antisymmetry(*pair, which), identity_tol, pair)
        right, left = kernel_residuals(*pair, which)
        add(f"right_kernel_{which}", right, identity_tol, pair)
        add(f"left_kernel_{which}", left, identity_tol, pair)
    add("difference_identity", difference_residual(*pair), identity_tol, pair)

    # Jacobi: simple on the subspace, projected anywhere, tainted scaling
    df = random_divfree_state(modes, seed=seed + 1, amplitude=1.0)
    raw = random_divfree_state(modes, seed=seed + 2, amplitude=1.0)
    tainted = VorticityState(modes, raw.values + 0.25 * (modes.wavevectors[modes.half_positions] * (1.0 + 1j)))
    triples = _triples(rng, modes, max(1, cases // 10), tries)
    T = tuple(triples.transpose(1, 0, 2))
    add("jacobi_simple_subspace", jacobi_residual_normalized(*T, df, "simple"), identity_tol, T)
    add("jacobi_projected_full", jacobi_residual_normalized(*T, tainted, "projected"), identity_tol, T)

    # triples whose total is a mode but some nonzero pairwise sum leaves the
    # box: the cancellation argument does not apply there (truncation breaks
    # the pairing), so their residuals are reported without a pass/fail claim
    far = _triples(rng, modes, max(1, cases // 20), tries, inside=False)
    far_res = jacobi_residual_normalized(*far.transpose(1, 0, 2), tainted, "simple")
    add("jacobi_outside_box_informational", far_res, None, extra={"informational": True})

    # off the subspace the simple Jacobi sum is linear in the divergence of
    # the coefficient at i+j+k: add 0.1 and 1.0 times that wavevector there
    scaled = triples[: max(1, len(triples) // 4)]
    scaled = scaled[modes.positions(scaled.sum(axis=1)) >= 0]
    m = scaled.sum(axis=1)
    wm, mv = _value_at(df, m), modes.aniso.diagonal() * m
    r1, r10 = (
        _jacobi_max(*_jacobi_terms(*scaled.transpose(1, 0, 2), wm + s * mv, modes, "simple")) for s in (0.1, 1.0)
    )
    ratios = r10[r1 > 0] / r1[r1 > 0]
    extremes = {"ratios_min": float(ratios.min()), "ratios_max": float(ratios.max())} if ratios.size else {}
    extra = {"ratios_min": 0.0, "ratios_max": 0.0, **extremes}
    add("jacobi_tainted_scaling", np.abs(ratios - 10.0) / 10.0, 0.01, extra=extra)

    # Casimir identities
    pair_modes = tuple(_random_modes(rng, modes, 2 * cases).reshape(cases, 2, 3).transpose(1, 0, 2))
    add("casimir_identity", casimir_identity_residual(*pair_modes, tainted), identity_tol, pair_modes)
    g = rng.normal(size=(len(modes), 3)) + 1j * rng.normal(size=(len(modes), 3))
    add("divergence_casimir_rows", [divergence_casimir_check(tainted, g)], identity_tol)
    add("reduced_identities", reduced_identity_residual(*pair_modes, frames), identity_tol, pair_modes)

    # explicit reduced tables vs conjugated construction, on generic pairs and
    # on pairs with j, k or j + k on the reference axis (a coordinate axis)
    axis = np.arange(3) == np.argmax(np.abs(frames.n))

    def on_axis(n):
        return _axis_pairs(rng, modes, axis, n)

    def nonzero_sum(p):
        return p.sum(axis=1).any(axis=1)

    groups = {
        "generic": _sample(rng, lambda n: _random_modes(rng, modes, 2 * n), nonzero_sum, cases // 4, tries, (2, 3)),
        "j_axis": _sample(rng, on_axis, nonzero_sum, cases // 8, tries, (2, 3)),
        "k_axis": _sample(rng, on_axis, nonzero_sum, cases // 8, tries, (2, 3))[:, ::-1],
        # (j, k) = (q - k, k) for q on the axis
        "sum_axis": _sample(rng, on_axis, lambda p: modes.positions(p[:, 0] - p[:, 1]) >= 0, cases // 8, tries, (2, 3)),
    }
    groups["sum_axis"][:, 0] -= groups["sum_axis"][:, 1]
    for name, pairs in groups.items():
        # coefficients drawn after every pair, in the groups' order
        groups[name] = (pairs[:, 0], pairs[:, 1], _random_wt(rng, len(pairs)))
    res = cross_check_tilde(*(np.concatenate(parts) for parts in zip(*groups.values())), frames)
    for name, parts in groups.items():
        add(f"cross_check_tilde_{name}", res[: len(parts[0])], identity_tol, parts)
        res = res[len(parts[0]) :]

    report["passed"] = all(entry["passed"] for entry in report["checks"].values())
    return report
