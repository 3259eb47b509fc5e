"""Executable checks for the algebraic identities of the bracket machinery.

Every check returns a residual (normalized where stated); the suite driver
sweeps seeded random cases and reports per-identity maxima.  Derivatives in
the Jacobi residual are analytic: each block is linear in its coefficient
argument, so the derivative against one coefficient component is a constant
matrix, and nothing is lost to finite differencing.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .frames import FrameSet, leray_projector
from .lattice import ModeSet, wavevector
from . import structures as st
from .state import VorticityState, random_divfree_state

def _fro(m) -> float:
    return float(np.linalg.norm(m))


def ordered_map(fn, items, workers: int = 1) -> list:
    """Map preserving input order; thread count cannot change the output."""
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# -- block-level identities -----------------------------------------------------


def check_antisymmetry(j, k, w, which: str = "simple") -> float:
    """|| B(j,k,w) + B(k,j,w)^T || / max(1, ||B(j,k,w)||)."""
    block = st.projected_block if which == "projected" else st.simple_block
    B1 = block(j, k, w)
    B2 = block(k, j, w)
    return _fro(B1 + B2.T) / max(1.0, _fro(B1))


def kernel_residuals(j, k, w, which: str = "simple") -> tuple[float, float]:
    """Right-kernel ||B k|| and left-kernel ||j^T B||, scale-normalized."""
    block = st.projected_block if which == "projected" else st.simple_block
    B = block(j, k, w)
    scale = max(1.0, _fro(B))
    right = _fro(B @ np.asarray(k, dtype=float)) / (scale * max(1.0, float(np.linalg.norm(k))))
    left = _fro(np.asarray(j, dtype=float) @ B) / (scale * max(1.0, float(np.linalg.norm(j))))
    return right, left


def difference_residual(j, k, w) -> float:
    """Deviation of simple - advection from ((j+k).w) cross_matrix(k), relative."""
    from .frames import cross_matrix

    j = np.asarray(j, dtype=float)
    k = np.asarray(k, dtype=float)
    w = np.asarray(w, dtype=complex)
    lhs = st.simple_block(j, k, w) - st.advection_block(j, k, w)
    rhs = np.dot(j + k, w) * cross_matrix(k)
    return _fro(lhs - rhs) / max(1.0, _fro(rhs), _fro(lhs))


# -- Jacobi ----------------------------------------------------------------------


def _coefficient_at(state: VorticityState, a) -> np.ndarray:
    a = tuple(int(c) for c in a)
    if a == (0, 0, 0) or a not in state.modes:
        return np.zeros(3, dtype=complex)
    return state.value_at(a)


def _jacobi_terms(ai, aj, ak, state: VorticityState, which: str):
    """The three (L, D) factor pairs of the structure-matrix Jacobi sum.

    L is the block at the outer pair, evaluated at the coefficient of
    i+j+k; D stacks the constant derivative matrices of the inner block
    against the three components of its coefficient.  A term exists only
    when the inner pair's sum is a lattice mode (otherwise that coefficient
    is identically zero in the truncated system and is not a coordinate).
    """
    modes = state.modes
    aniso = modes.aniso
    m = tuple(int(x + y + z) for x, y, z in zip(ai, aj, ak))
    wm = _coefficient_at(state, m)

    if which == "simple":
        block, dblock = st.simple_block, lambda j, k, e: st.simple_block(j, k, e)
    elif which == "projected":
        block = st.projected_block

        def dblock(j, k, e):
            return st.simple_block(j, k, leray_projector(j + k) @ e)

    else:
        raise ValueError(f"jacobi check wants 'simple' or 'projected', got {which!r}")

    eye = np.eye(3)
    terms = []
    for outer, inner in (((ai,), (aj, ak)), ((ak,), (ai, aj)), ((aj,), (ak, ai))):
        q = tuple(int(a + b) for a, b in zip(*inner))
        if q not in modes:
            terms.append(None)
            continue
        qv = wavevector(q, aniso)
        ov = wavevector(outer[0], aniso)
        L = block(ov, qv, wm)
        iv0 = wavevector(inner[0], aniso)
        iv1 = wavevector(inner[1], aniso)
        D = np.stack([dblock(iv0, iv1, eye[d]) for d in range(3)])
        terms.append((L, D))
    return terms


def jacobi_residual(ai, aj, ak, state: VorticityState, which: str = "simple") -> float:
    """max over components of |Z(i,j,k)|, the three-term Jacobi sum."""
    terms = _jacobi_terms(ai, aj, ak, state, which)
    Z = np.zeros((3, 3, 3), dtype=complex)
    patterns = ("ad,dbg->abg", "gd,dab->abg", "bd,dga->abg")
    for pat, term in zip(patterns, terms):
        if term is not None:
            L, D = term
            Z += np.einsum(pat, L, D)
    return float(np.max(np.abs(Z)))


def jacobi_scale(ai, aj, ak, state: VorticityState, which: str = "simple") -> float:
    """Pre-cancellation magnitude of the Jacobi sum: max ||L|| ||D|| over terms."""
    terms = _jacobi_terms(ai, aj, ak, state, which)
    mags = [_fro(L) * _fro(D) for term in terms if term is not None for L, D in (term,)]
    return max(mags, default=0.0)


def jacobi_residual_normalized(ai, aj, ak, state: VorticityState, which: str = "simple") -> float:
    scale = jacobi_scale(ai, aj, ak, state, which)
    if scale == 0.0:
        return 0.0
    return jacobi_residual(ai, aj, ak, state, which) / scale


# -- Casimir identities ----------------------------------------------------------


def casimir_identity_residual(aj, ak, state: VorticityState) -> float:
    """Pairwise cancellation behind the alignment-invariant kernel property.

    Normalized by the larger of the two term magnitudes; zero coefficients
    give zero residual.
    """
    modes = state.modes
    aniso = modes.aniso
    q = tuple(int(a + b) for a, b in zip(aj, ak))
    if q == (0, 0, 0):
        return 0.0
    jv = wavevector(aj, aniso)
    kv = wavevector(ak, aniso)
    qv = jv + kv
    w_q = _coefficient_at(state, q)
    w_mk = state.value_at(tuple(-int(c) for c in ak))
    t1 = st.projected_block(jv, kv, w_q) @ (np.cross(kv, w_mk) / float(kv @ kv))
    t2 = st.projected_block(jv, -qv, w_mk) @ (np.cross(-qv, w_q) / float(qv @ qv))
    # both terms are bounded by ~2 |j| |w_q| |w_-k|; normalizing by the input
    # magnitude keeps degenerate (collinear) cases from dividing roundoff by
    # roundoff
    input_scale = float(np.linalg.norm(jv)) * float(np.linalg.norm(w_q)) * float(
        np.linalg.norm(w_mk)
    )
    scale = max(float(np.linalg.norm(t1)), float(np.linalg.norm(t2)), input_scale)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(t1 + t2)) / scale


def divergence_casimir_check(state: VorticityState, g: np.ndarray) -> float:
    """Residual of the bracket rows that pair divergence functions with g.

    The row j^T . block(j, k, .) must vanish for every k, so the bracket of
    j . omega_j with any covector field is zero; returns the worst row,
    normalized by the gathered magnitudes.
    """
    modes = state.modes
    tensor = st.assemble_global(state, modes, "projected")
    M = len(modes)
    T = tensor.matrix.reshape(M, 3, M, 3)
    rows = np.einsum("jd,jdkb->jkb", modes.wavevectors, T)
    num = np.abs(np.einsum("jkb,kb->j", rows, g))
    scale = np.einsum("jkb,kb->j", np.abs(T).sum(axis=1), np.abs(g))
    scale = np.maximum(scale * np.linalg.norm(modes.wavevectors, axis=1), 1.0)
    return float(np.max(num / scale))


def reduced_identity_residual(aj, ak, frames: FrameSet) -> float:
    """Residual of the three reduced coefficient identities (both rows).

    These are exactly the componentwise conditions making the reduced
    helicity a Casimir of the reduced structure.
    """
    aniso = frames.modes.aniso
    jv = wavevector(aj, aniso)
    kv = wavevector(ak, aniso)
    qv = jv + kv
    if not qv.any():
        return 0.0
    nk = float(np.linalg.norm(kv))
    nq = float(np.linalg.norm(qv))
    Ty1, Tz1, _ = st.reduced_coefficients(jv, kv, frames)
    Ty2, Tz2, _ = st.reduced_coefficients(jv, -qv, frames)
    fams = np.array(
        [
            Ty1[:, 0] / nk + Tz2[:, 1] / nq,
            Ty1[:, 1] / nk + Ty2[:, 1] / nq,
            Tz1[:, 0] / nk + Tz2[:, 0] / nq,
        ]
    )
    scale = max(
        np.max(np.abs(Ty1)) / nk,
        np.max(np.abs(Tz1)) / nk,
        np.max(np.abs(Ty2)) / nq,
        np.max(np.abs(Tz2)) / nq,
        1e-30,
    )
    return float(np.max(np.abs(fams))) / scale


def cross_check_tilde(aj, ak, wtilde, frames: FrameSet) -> float:
    """Explicit reduced tables vs the frame-conjugated construction."""
    aniso = frames.modes.aniso
    jv = wavevector(aj, aniso) if np.asarray(aj).dtype.kind in "iu" else np.asarray(aj, float)
    kv = wavevector(ak, aniso) if np.asarray(ak).dtype.kind in "iu" else np.asarray(ak, float)
    wtilde = np.asarray(wtilde, dtype=complex)
    explicit = st.reduced_block(jv, kv, wtilde, frames)
    wcheck = np.concatenate([[0.0 + 0j], wtilde])
    conj = st.rotated_block(jv, kv, wcheck, frames)[1:, 1:]
    scale = max(1.0, _fro(conj), _fro(explicit))
    return _fro(explicit - conj) / scale


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

    rank = number of singular values above tol * sigma_max * dimension.
    """
    tensor = st.assemble_global(state, modes, which, frames)
    sv = np.linalg.svd(tensor.matrix, compute_uv=False)
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
    norm_t = float(np.linalg.norm(tensor.matrix, 2))
    norm_g = float(np.linalg.norm(g))
    if norm_t == 0.0 or norm_g == 0.0:
        return True
    return float(np.linalg.norm(tensor.matrix @ g)) <= tol * norm_t * norm_g


# -- suite driver -------------------------------------------------------------------


def _random_mode(rng, modes: ModeSet):
    return modes.indices[rng.integers(len(modes))]


def _random_inside_triple(rng, modes: ModeSet):
    """(i, j, k) with all pairwise sums and the total inside the lattice."""
    while True:
        ai, aj, ak = (_random_mode(rng, modes) for _ in range(3))
        sums = (ai + aj, aj + ak, ak + ai, ai + aj + ak)
        if all(tuple(s) in modes for s in sums):
            return tuple(ai), tuple(aj), tuple(ak)


def _random_w(rng):
    return rng.normal(size=3) + 1j * rng.normal(size=3)


def run_identity_suite(
    modes: ModeSet,
    frames: FrameSet,
    seed: int = 0,
    cases: int = 1000,
    identity_tol: float = 1e-12,
    workers: int = 1,
) -> dict:
    """Sweep every identity with seeded random cases; returns a JSON-able report."""
    rng = np.random.default_rng(seed)
    K = modes.wavevectors
    report: dict = {
        "N": modes.N,
        "seed": seed,
        "cases": cases,
        "identity_tol": identity_tol,
        "checks": {},
    }

    def describe(case) -> list:
        # JSON-able echo of the offending arguments (wavevectors/modes first)
        out = []
        for part in case:
            arr = np.asarray(part)
            if arr.dtype.kind in "iuf":
                out.append([float(x) for x in np.atleast_1d(arr)])
            else:
                out.append([[float(x.real), float(x.imag)] for x in np.atleast_1d(arr)])
        return out

    def add(name: str, residuals, tol: float, cases_in=None, extra: dict | None = None) -> None:
        worst = float(np.max(residuals)) if len(residuals) else 0.0
        entry = {
            "max_residual": worst,
            "cases": int(len(residuals)),
            "tolerance": tol,
            "passed": bool(worst <= tol),
        }
        if cases_in is not None and len(residuals):
            entry["worst_case"] = describe(cases_in[int(np.argmax(residuals))])
        if extra:
            entry.update(extra)
        report["checks"][name] = entry

    # Lemma-family block identities, simple and projected
    pair_cases = [
        (K[rng.integers(len(modes))], K[rng.integers(len(modes))], _random_w(rng))
        for _ in range(cases)
    ]
    for which in ("simple", "projected"):
        res = ordered_map(lambda c: check_antisymmetry(*c, which=which), pair_cases, workers)
        add(f"check_antisymmetry_{which}", res, identity_tol, pair_cases)
        kr = ordered_map(lambda c: kernel_residuals(*c, which=which), pair_cases, workers)
        add(f"right_kernel_{which}", [r for r, _ in kr], identity_tol, pair_cases)
        add(f"left_kernel_{which}", [l for _, l in kr], identity_tol, pair_cases)
    add("difference_identity", [difference_residual(*c) for c in pair_cases], identity_tol, pair_cases)

    # Jacobi: simple on the subspace, projected anywhere, tainted scaling
    df = random_divfree_state(modes, seed=seed + 1, amplitude=1.0)
    raw = random_divfree_state(modes, seed=seed + 2, amplitude=1.0)
    tainted_vals = raw.values + 0.25 * (
        modes.wavevectors[modes.half_positions]
        * (1.0 + 1j)
    )
    tainted = VorticityState(modes, tainted_vals)
    triples = [_random_inside_triple(rng, modes) for _ in range(max(1, cases // 10))]
    add(
        "jacobi_simple_subspace",
        ordered_map(lambda t: jacobi_residual_normalized(*t, df, "simple"), triples, workers),
        identity_tol,
        triples,
    )
    add(
        "jacobi_projected_full",
        ordered_map(lambda t: jacobi_residual_normalized(*t, tainted, "projected"), triples, workers),
        identity_tol,
        triples,
    )

    # triples whose intermediate sums leave the box: the cancellation argument
    # does not apply, so their residuals are reported without a pass/fail claim
    outside = []
    tries = 0
    while len(outside) < max(1, cases // 20) and tries < 50 * cases:
        tries += 1
        t = tuple(tuple(_random_mode(rng, modes)) for _ in range(3))
        sums = [tuple(a + b for a, b in zip(x, y)) for x, y in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0]))]
        total = tuple(sum(c) for c in zip(*t))
        if total in modes and any(s != (0, 0, 0) and s not in modes for s in sums):
            outside.append(t)
    out_res = ordered_map(lambda t: jacobi_residual_normalized(*t, tainted, "simple"), outside, workers)
    report["checks"]["jacobi_outside_box_informational"] = {
        "max_residual": float(np.max(out_res)) if out_res else 0.0,
        "cases": len(out_res),
        "tolerance": None,
        "passed": True,  # informational only; truncation breaks the pairing here
        "informational": True,
    }

    ratios = []
    for t in triples[: max(1, len(triples) // 4)]:
        m = tuple(int(a + b + c) for a, b, c in zip(*t))
        if m == (0, 0, 0) or m not in modes:
            continue
        base = df.with_mode(m, df.value_at(m) + 0.1 * wavevector(m, modes.aniso))
        more = df.with_mode(m, df.value_at(m) + 1.0 * wavevector(m, modes.aniso))
        r1 = jacobi_residual(*t, base, "simple")
        r10 = jacobi_residual(*t, more, "simple")
        if r1 > 0:
            ratios.append(r10 / r1)
    add(
        "jacobi_tainted_scaling",
        [abs(r - 10.0) / 10.0 for r in ratios],
        0.01,
        extra={"ratios_min": min(ratios, default=0.0), "ratios_max": max(ratios, default=0.0)},
    )

    # Casimir identities
    pair_modes = [
        (tuple(_random_mode(rng, modes)), tuple(_random_mode(rng, modes))) for _ in range(cases)
    ]
    add(
        "casimir_identity",
        ordered_map(lambda p: casimir_identity_residual(*p, tainted), pair_modes, workers),
        identity_tol,
        pair_modes,
    )
    g = rng.normal(size=(len(modes), 3)) + 1j * rng.normal(size=(len(modes), 3))
    add("divergence_casimir_rows", [divergence_casimir_check(tainted, g)], identity_tol)
    add(
        "reduced_identities",
        ordered_map(lambda p: reduced_identity_residual(*p, frames), pair_modes, workers),
        identity_tol,
        pair_modes,
    )

    # explicit reduced tables vs conjugated construction
    def axis_mode(sign_axis: int):
        # a lattice mode on the reference axis, which lies along a coordinate axis
        c = int(rng.integers(1, modes.N + 1)) * sign_axis
        return tuple(c * int(d == np.argmax(np.abs(frames.n))) for d in range(3))

    samples = {"generic": [], "j_axis": [], "k_axis": [], "sum_axis": []}
    while len(samples["generic"]) < cases // 4:
        aj, ak = (tuple(_random_mode(rng, modes)) for _ in range(2))
        q = tuple(a + b for a, b in zip(aj, ak))
        if q == (0, 0, 0):
            continue
        samples["generic"].append((aj, ak))
    for name in ("j_axis", "k_axis"):
        while len(samples[name]) < cases // 8:
            on = axis_mode(int(rng.choice([-1, 1])))
            other = tuple(_random_mode(rng, modes))
            if tuple(a + b for a, b in zip(on, other)) != (0, 0, 0):
                samples[name].append((on, other) if name == "j_axis" else (other, on))
    while len(samples["sum_axis"]) < cases // 8:
        q = axis_mode(int(rng.choice([-1, 1])))
        ak = tuple(_random_mode(rng, modes))
        aj = tuple(a - b for a, b in zip(q, ak))
        if aj in modes and aj != (0, 0, 0):
            samples["sum_axis"].append((aj, ak))
    for name, pairs in samples.items():
        # draw coefficients up front so worker count cannot reorder the rng
        cases_w = [(aj, ak, _random_w(rng)[:2]) for aj, ak in pairs]
        res = ordered_map(lambda c: cross_check_tilde(c[0], c[1], c[2], frames), cases_w, workers)
        add(f"cross_check_tilde_{name}", res, identity_tol, cases_w)

    report["passed"] = all(entry["passed"] for entry in report["checks"].values())
    return report
