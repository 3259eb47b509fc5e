import json
import math
import tracemalloc

import numpy as np
import pytest

from euler3d import (
    FrameSet,
    VorticityState,
    assemble_global,
    grad_energy,
    grad_helicity,
    random_divfree_state,
    wavevector,
)
from euler3d.lattice import AnisotropyMatrix, ModeSet, TruncationSpec, build_lattice
from euler3d import structures, verify
from euler3d.verify import (
    casimir_identity_residual,
    check_antisymmetry,
    cross_check_tilde,
    difference_residual,
    divergence_casimir_check,
    jacobi_residual,
    jacobi_residual_normalized,
    kernel_contains,
    kernel_residuals,
    poisson_rank,
    reduced_identity_residual,
    run_identity_suite,
)


@pytest.fixture
def tainted1(modes1, df_state1):
    bump = 0.3 * (modes1.wavevectors[modes1.half_positions] * (1 + 1j))
    return VorticityState(modes1, df_state1.values + bump)


def lattice_pairs(rng, modes, count):
    return [
        (tuple(modes.indices[rng.integers(len(modes))]), tuple(modes.indices[rng.integers(len(modes))]))
        for _ in range(count)
    ]


def test_antisymmetry_zero_w(rng):
    j, k = rng.normal(size=3), rng.normal(size=3)
    assert check_antisymmetry(j, k, np.zeros(3, complex)) == 0.0


def test_antisymmetry_and_kernels_sweep(modes2, rng):
    for which in ("simple", "projected"):
        worst = 0.0
        for _ in range(200):
            j = modes2.wavevectors[rng.integers(len(modes2))]
            k = modes2.wavevectors[rng.integers(len(modes2))]
            w = rng.normal(size=3) + 1j * rng.normal(size=3)
            worst = max(worst, check_antisymmetry(j, k, w, which), *kernel_residuals(j, k, w, which))
        assert worst <= 1e-13


def test_difference_residual_random(modes2, rng):
    worst = max(
        difference_residual(
            modes2.wavevectors[rng.integers(len(modes2))],
            modes2.wavevectors[rng.integers(len(modes2))],
            rng.normal(size=3) + 1j * rng.normal(size=3),
        )
        for _ in range(200)
    )
    assert worst <= 1e-13


def test_jacobi_on_subspace_and_projected(modes1, df_state1, tainted1, rng):
    for _ in range(30):
        tri = verify._random_inside_triple(rng, modes1)
        assert jacobi_residual_normalized(*tri, df_state1, "simple") <= 1e-12
        assert jacobi_residual_normalized(*tri, tainted1, "projected") <= 1e-12


def test_jacobi_tainted_is_positive_and_linear(modes1, df_state1, rng):
    """Off the subspace the simple-structure Jacobi sum fails, with residual
    proportional to the divergence of the coefficient at i+j+k."""
    found = 0
    for _ in range(40):
        tri = verify._random_inside_triple(rng, modes1)
        m = tuple(int(a + b + c) for a, b, c in zip(*tri))
        if m == (0, 0, 0) or m not in modes1:
            continue
        mv = wavevector(m, modes1.aniso)
        s1 = df_state1.with_mode(m, df_state1.value_at(m) + 0.1 * mv)
        s10 = df_state1.with_mode(m, df_state1.value_at(m) + 1.0 * mv)
        r1, r10 = jacobi_residual(*tri, s1, "simple"), jacobi_residual(*tri, s10, "simple")
        div = 0.1 * float(mv @ mv)
        scale = verify.jacobi_scale(*tri, s1, "simple")
        if scale == 0.0:
            continue
        found += 1
        assert r1 > 1e-6 * div  # bounded below: genuinely nonzero off-subspace
        assert r10 / r1 == pytest.approx(10.0, rel=1e-6)
    assert found >= 10


def test_jacobi_with_outside_box_sums(modes1, df_state1):
    # triples whose intermediate sums leave the box are measured, not asserted
    tri = ((1, 1, 1), (1, 1, 0), (-1, 0, 0))  # i+j = (2,2,1) leaves N=1
    r = jacobi_residual_normalized(*tri, df_state1, "simple")
    assert np.isfinite(r)


def test_casimir_identity(modes2):
    rng = np.random.default_rng(5)
    df = random_divfree_state(modes2, seed=2, amplitude=1.0)
    bump = 0.2 * (modes2.wavevectors[modes2.half_positions] * (1 - 0.5j))
    arb = VorticityState(modes2, df.values + bump)
    worst = max(
        casimir_identity_residual(aj, ak, arb) for aj, ak in lattice_pairs(rng, modes2, 150)
    )
    assert worst <= 1e-12
    assert casimir_identity_residual((1, 0, 0), (0, 1, 0), VorticityState(modes2)) == 0.0


def test_helicity_gradient_in_kernel_globally(modes1, df_state1):
    # the pairwise identity makes the helicity gradient a global kernel vector
    tensor = assemble_global(df_state1, modes1, "projected")
    gh = grad_helicity(df_state1).reshape(-1)
    assert kernel_contains(tensor, gh, 1e-12)


def test_divergence_casimir_rows(modes1, df_state1, tainted1, rng):
    g = rng.normal(size=(len(modes1), 3)) + 1j * rng.normal(size=(len(modes1), 3))
    assert divergence_casimir_check(tainted1, g) <= 1e-13
    # with g = grad_energy this is the invariance of each j . omega_j
    assert divergence_casimir_check(df_state1, grad_energy(df_state1)) <= 1e-13
    assert divergence_casimir_check(VorticityState(modes1), g) == 0.0


def dense_divergence_casimir_check(state, g):
    """The check on the dense 3M x 3M projected matrix, all rows at once."""
    modes = state.modes
    M = len(modes)
    T = assemble_global(state, modes, "projected").matrix.reshape(M, 3, M, 3)
    rows = np.einsum("jd,jdkb->jkb", modes.wavevectors, T)
    num = np.abs(np.einsum("jkb,kb->j", rows, g))
    scale = np.einsum("jkb,kb->j", np.abs(T).sum(axis=1), np.abs(g))
    scale = np.maximum(scale * np.linalg.norm(modes.wavevectors, axis=1), 1.0)
    return float(np.max(num / scale))


SPARSE_MODES = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 1), (2, 1, 1)]


@pytest.mark.parametrize("box", [(1.0, 1.0, 1.0), (1.0, 0.3, 1.0), (0.7, 1.3, 0.1)])
def test_divergence_casimir_check_equals_dense_oracle(box):
    # the streamed rows carry the bits of the dense matrix's, chunk by chunk
    aniso = AnisotropyMatrix(*box)
    sparse = ModeSet.from_indices(SPARSE_MODES + [tuple(-c for c in a) for a in SPARSE_MODES], aniso)
    rng = np.random.default_rng(7)
    for modes in [build_lattice(TruncationSpec(N), aniso) for N in (1, 2, 3)] + [sparse]:
        df = random_divfree_state(modes, seed=3, amplitude=1.0)
        shape = (modes.half_size, 3)
        general = VorticityState(modes, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        g = rng.normal(size=(len(modes), 3)) + 1j * rng.normal(size=(len(modes), 3))
        for state, cov in ((df, g), (general, g), (df, grad_energy(df))):
            got = divergence_casimir_check(state, cov)
            want = dense_divergence_casimir_check(state, cov)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (len(modes), got, want)


def test_divergence_casimir_check_peak_memory_is_near_one_chunk():
    # the dense rows of one chunk of 16 block rows are 16 * 9 M complex
    # numbers, and the dense matrix is 21 of them; the check reads the chunk
    # a slice at a time and holds its factors, its rows j^T T and its sums of
    # |T|, about 1.7 of them at this N
    modes = build_lattice(TruncationSpec(3), AnisotropyMatrix(1.0, 0.3, 1.0))
    state = random_divfree_state(modes, seed=11, amplitude=1.0)
    g = np.ones((len(modes), 3), dtype=complex)
    tracemalloc.start()
    try:
        divergence_casimir_check(state, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * structures._ROW_CHUNK * 9 * len(modes) * 16


def test_reduced_identities(modes2, frames2, rng):
    worst = max(
        reduced_identity_residual(aj, ak, frames2) for aj, ak in lattice_pairs(rng, modes2, 150)
    )
    assert worst <= 1e-12


def test_reduced_identities_imply_reduced_casimir(modes1, frames1, df_state1):
    # sum_k Jtilde(j,k) grad htilde(k) = 0: reduced helicity gradient in the kernel
    from euler3d.state import to_reduced

    red = to_reduced(df_state1, frames1)
    tensor = assemble_global(red, modes1, "reduced", frames1)
    wt = red.full_values()
    grad = np.empty((len(modes1), 2), dtype=complex)
    wneg = wt[modes1.neg_index]
    grad[:, 0] = 2j * wneg[:, 1] / modes1.norms
    grad[:, 1] = 2j * wneg[:, 0] / modes1.norms
    assert kernel_contains(tensor, grad.reshape(-1), 1e-12)


def test_cross_check_tilde(modes2, frames2, rng):
    worst = 0.0
    for aj, ak in lattice_pairs(rng, modes2, 100):
        wt = rng.normal(size=2) + 1j * rng.normal(size=2)
        worst = max(worst, cross_check_tilde(aj, ak, wt, frames2))
    assert worst <= 1e-12
    assert cross_check_tilde((0, 1, 0), (1, 0, 0), np.zeros(2), frames2) == 0.0


def test_poisson_rank_degenerate_cases(modes1):
    r = poisson_rank(VorticityState(modes1), modes1, "projected")
    assert r.rank == 0 and r.corank == 3 * len(modes1)
    pair = ModeSet.from_indices([(1, 0, 0), (-1, 0, 0)], AnisotropyMatrix())
    s = VorticityState(pair).with_mode((1, 0, 0), [0, 1.0, 1.0j])
    assert poisson_rank(s, pair, "simple").rank == 0


def test_poisson_rank_generic_baseline(modes1):
    # frozen from the svd oracle: generic rank 50 of 78 at N=1
    s = random_divfree_state(modes1, seed=11, amplitude=1.0)
    r = poisson_rank(s, modes1, "projected")
    assert (r.rank, r.corank) == (50, 28)
    # clean spectral gap at the cut
    assert r.singular_values[r.rank - 1] > 1e8 * r.singular_values[r.rank]


def test_kernel_contains_negatives(modes1, df_state1):
    tensor = assemble_global(df_state1, modes1, "projected")
    ge = grad_energy(df_state1).reshape(-1)
    assert not kernel_contains(tensor, ge, 1e-10)  # generic state: not a kernel vector
    with pytest.raises(ValueError):
        kernel_contains(tensor, ge[:-1], 1e-10)


def test_run_identity_suite_passes(modes1, frames1):
    report = run_identity_suite(modes1, frames1, seed=3, cases=120)
    assert report["passed"]
    assert "check_antisymmetry_simple" in report["checks"]
    for entry in report["checks"].values():
        if entry.get("informational"):
            continue  # measured without a pass/fail claim
        assert entry["max_residual"] <= entry["tolerance"]
    # truncation-broken triples are reported but carry no tolerance
    assert report["checks"]["jacobi_outside_box_informational"]["tolerance"] is None


def test_run_identity_suite_worker_invariance(modes1, frames1):
    import json

    a = run_identity_suite(modes1, frames1, seed=3, cases=60, workers=1)
    b = run_identity_suite(modes1, frames1, seed=3, cases=60)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    # the suite has no thread pool; workers stays as a keyword that must be 1
    with pytest.raises(ValueError):
        run_identity_suite(modes1, frames1, seed=3, cases=60, workers=4)


def sign_flipped_simple_block(j, k, w):
    """simple_block with the sign of its (j . w) cross_matrix(k) term flipped."""
    from euler3d.frames import cross_matrix

    j = np.asarray(j, dtype=float)
    k = np.asarray(k, dtype=float)
    w = np.asarray(w)
    return w[..., :, None] * np.cross(k, j)[..., None, :] - np.vecdot(j, w)[..., None, None] * cross_matrix(k)


def test_run_identity_suite_catches_sign_error(modes1, frames1, monkeypatch):
    from euler3d import structures as st

    true_block = st.simple_block
    monkeypatch.setattr(st, "simple_block", sign_flipped_simple_block)
    report = run_identity_suite(modes1, frames1, seed=3, cases=60)
    monkeypatch.setattr(st, "simple_block", true_block)
    assert not report["passed"]
    assert not report["checks"]["check_antisymmetry_simple"]["passed"]


def test_run_identity_suite_calls_each_block_per_batch(modes1, frames1, monkeypatch):
    # every check is one batched call: the block count does not grow with cases
    from euler3d import structures as st

    calls = []
    real = st.simple_block
    monkeypatch.setattr(st, "simple_block", lambda *args: calls.append(1) or real(*args))
    counts = []
    for cases in (60, 600):
        calls.clear()
        run_identity_suite(modes1, frames1, seed=3, cases=cases)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_run_identity_suite_on_a_sparse_mode_set():
    # no triple of these modes has its pairwise sums in the set, and no pair
    # has j + k on the x axis: the draws give up and those checks report no cases
    import signal

    sparse = ModeSet.from_indices([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)], AnisotropyMatrix())

    def stop(signum, frame):
        raise TimeoutError("the identity suite kept drawing")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(20)
    try:
        report = run_identity_suite(sparse, FrameSet(sparse), seed=3, cases=40)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    checks = report["checks"]
    empty = ("jacobi_simple_subspace", "jacobi_projected_full", "jacobi_tainted_scaling", "cross_check_tilde_sum_axis")
    for name in empty:
        assert checks[name]["cases"] == 0 and checks[name]["max_residual"] == 0.0
    assert checks["casimir_identity"]["cases"] == 40
    assert report["passed"]


@pytest.mark.parametrize("n", [(-1.0, 0, 0), (0, 1.0, 0), (0, 0, -1.0)], ids=["-x", "+y", "-z"])
def test_run_identity_suite_samples_reference_axis(modes1, n, monkeypatch):
    # the j_axis, k_axis and sum_axis cross-checks put j, k or j + k on the
    # reference axis; a partner drawn on the axis too puts all three there
    frames = FrameSet(modes1, np.array(n))
    seen = []
    real = verify.cross_check_tilde
    monkeypatch.setattr(verify, "cross_check_tilde", lambda aj, ak, w, fr: seen.append((aj, ak)) or real(aj, ak, w, fr))
    cases = 80
    assert run_identity_suite(modes1, frames, seed=3, cases=cases)["passed"]
    aj, ak = (np.concatenate(batches)[cases // 4 :] for batches in zip(*seen))  # after the generic samples
    off_axis = np.delete(np.arange(3), np.flatnonzero(n))
    on_axis = np.array([~v[:, off_axis].any(axis=1) for v in (aj, ak, aj + ak)])
    named = np.repeat(np.eye(3, dtype=bool), cases // 8, axis=1)  # j, then k, then j + k
    assert on_axis.shape == named.shape and on_axis[named].all()
    assert set(on_axis.sum(axis=0)) <= {1, 3}


# -- the bulk sampler against one try at a time -----------------------------------


def one_try_at_a_time(rng, draw, accept, count, tries, shape):
    """The sampler's oracle: one try per draw and per acceptance test."""
    out = []
    while len(out) < count and tries > 0:
        tries -= 1
        x = draw(1).reshape(1, *shape)
        if accept(x)[0]:
            out.append(x[0])
    return np.array(out, dtype=np.int64).reshape(-1, *shape)


def one_mode_at_a_time(rng, modes, count):
    return modes.indices[np.array([rng.integers(len(modes)) for _ in range(count)], dtype=np.intp)]


@pytest.mark.parametrize("M", [2, 3, 26, 124, 342])  # 2, N = 3, and the mode counts at N = 1..3
def test_bulk_integers_equal_scalar_draws(M):
    # the sampler rests on this: a size=n draw gives the n scalar draws in
    # order and leaves the generator in the same state, buffered half included
    for n in (1, 2, 7, 8):
        for prefix in ("none", "int32", "normal"):
            a, b = np.random.default_rng(9), np.random.default_rng(9)
            for g in (a, b):
                if prefix == "int32":
                    g.integers(2**31)
                    assert g.bit_generator.state["has_uint32"]  # a buffered 32-bit half
                elif prefix == "normal":
                    g.normal()
            bulk = a.integers(M, size=n)
            singles = [b.integers(M) for _ in range(n)]
            assert bulk.tolist() == singles
            assert a.bit_generator.state == b.bit_generator.state
            assert a.normal() == b.normal() and a.integers(M) == b.integers(M)
    for N in (1, 2, 3):
        a, b = np.random.default_rng(N), np.random.default_rng(N)
        assert a.integers(1, N + 1, size=5).tolist() == [b.integers(1, N + 1) for _ in range(5)]
        assert a.bit_generator.state == b.bit_generator.state
    a, b = np.random.default_rng(4), np.random.default_rng(4)
    assert [a.choice([-1, 1]) for _ in range(64)] == [(-1, 1)[b.integers(2)] for _ in range(64)]
    assert a.bit_generator.state == b.bit_generator.state


def one_wt_at_a_time(rng, count):
    """The cross-check coefficients' oracle: the first two components of one ``_random_w`` per pair."""
    return np.array([verify._random_w(rng)[:2] for _ in range(count)]).reshape(-1, 2)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 50])
def test_bulk_normals_equal_pairs_of_scalar_draws(n):
    # the cross-check coefficients rest on this: one (n, 2, 3) normal draw
    # gives the values of n pairs of size-3 draws and the same end state
    for prefix in ("none", "int32", "normal"):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        for g in (a, b):
            if prefix == "int32":
                g.integers(2**31)
            elif prefix == "normal":
                g.normal()
        bulk = a.normal(size=(n, 2, 3))
        pairs = [(b.normal(size=3), b.normal(size=3)) for _ in range(n)]
        assert bulk.tobytes() == np.array(pairs).reshape(n, 2, 3).tobytes()
        assert a.bit_generator.state == b.bit_generator.state
        assert a.normal() == b.normal() and a.integers(7) == b.integers(7)
    a, b = np.random.default_rng(6), np.random.default_rng(6)
    assert verify._random_wt(a, n).tobytes() == one_wt_at_a_time(b, n).tobytes()
    assert a.bit_generator.state == b.bit_generator.state


def suite_json(modes, frames, seed, cases) -> str:
    return json.dumps(run_identity_suite(modes, frames, seed=seed, cases=cases), sort_keys=True)


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("box", [(1.0, 1.0, 1.0), (1.0, 0.3, 1.0), (0.7, 1.3, 0.1)], ids=["iso", "box", "flat"])
def test_run_identity_suite_bulk_draws_equal_one_at_a_time(N, box, monkeypatch):
    modes = build_lattice(TruncationSpec(N), AnisotropyMatrix(*box))
    for n in ((1.0, 0, 0), (0, 0, -2.0)):
        frames = FrameSet(modes, np.array(n))
        fast = [suite_json(modes, frames, 7, cases) for cases in (13, 200)]
        with monkeypatch.context() as m:
            m.setattr(verify, "_sample", one_try_at_a_time)
            m.setattr(verify, "_random_modes", one_mode_at_a_time)
            m.setattr(verify, "_random_wt", one_wt_at_a_time)
            assert fast == [suite_json(modes, frames, 7, cases) for cases in (13, 200)]


def test_run_identity_suite_bulk_draws_equal_one_at_a_time_when_draws_give_up(monkeypatch):
    sparse = ModeSet.from_indices([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)], AnisotropyMatrix())
    fast = suite_json(sparse, FrameSet(sparse), 3, 40)
    monkeypatch.setattr(verify, "_sample", one_try_at_a_time)
    monkeypatch.setattr(verify, "_random_modes", one_mode_at_a_time)
    monkeypatch.setattr(verify, "_random_wt", one_wt_at_a_time)
    assert fast == suite_json(sparse, FrameSet(sparse), 3, 40)


def sample_both(seed, count, tries, accept, M=10) -> list:
    """Run the bulk sampler and its oracle on equal generators, assert equal results and end
    states, and return the bulk sampler's acceptance masks, one per batch."""
    runs = []
    for sample in (verify._sample, one_try_at_a_time):
        rng, masks = np.random.default_rng(seed), []
        draw = lambda n: rng.integers(M, size=(n, 2))  # noqa: E731
        x = sample(rng, draw, lambda x: masks.append(accept(x)) or masks[-1], count, tries, (2,))
        runs.append((x, rng.bit_generator.state, masks))
    (x, state, masks), (x1, state1, _) = runs
    assert x.shape == x1.shape and x.tobytes() == x1.tobytes()
    assert state == state1
    return masks


def test_sample_rewinds_a_batch_that_holds_exactly_the_shortfall():
    # the batch that ends the sampling has as many hits as were missing, and
    # rejected tries after the last one: those tries must be taken back
    exact = 0
    for seed in range(40):
        masks = sample_both(seed, 6, math.inf, lambda x: x[:, 0] < 5)
        shortfall = 6 - sum(int(m.sum()) for m in masks[:-1])
        exact += int(masks[-1].sum()) == shortfall and not masks[-1][-1]
    assert exact > 0


def test_sample_stops_after_its_tries():
    short = 0
    for seed in range(20):
        masks = sample_both(seed, 5, 7, lambda x: x[:, 0] == 0, M=20)
        assert sum(len(m) for m in masks) <= 7
        short += sum(int(m.sum()) for m in masks) < 5
    assert short > 0


def test_sample_draws_at_most_512_tries_a_batch():
    # a rare acceptance needs thousands of tries: they come in batches of at
    # most 2**9, with the bits of one try at a time
    masks = sample_both(3, 4, 6000, lambda x: (x[:, 0] == 0) & (x[:, 1] == 0), M=40)
    assert len(masks) > 3 and max(len(m) for m in masks) == 512


def test_sample_of_no_cases_draws_nothing():
    assert sample_both(1, 0, 100, lambda x: x[:, 0] < 5) == []


# -- batches against single-case calls ------------------------------------------


def same_bits(batch, singles) -> bool:
    return np.asarray(batch).tobytes() == np.array(singles).tobytes()


def single_calls(check, *batches, **kwargs) -> list:
    return [check(*(b[i] for b in batches), **kwargs) for i in range(len(batches[0]))]


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("box", [(1.0, 1.0, 1.0), (1.0, 0.3, 1.0)], ids=["iso", "box"])
def test_checks_batch_equals_single_calls(N, box):
    from euler3d import TruncationSpec, build_lattice

    modes = build_lattice(TruncationSpec(N), AnisotropyMatrix(*box))
    frames = FrameSet(modes)
    rng = np.random.default_rng(N)
    M, idx, K = len(modes), modes.indices, modes.wavevectors
    pj, pk = rng.integers(M, size=(2, 40))
    pk[:4] = modes.neg_index[pj[:4]]  # j + k = 0
    J, Kk = K[pj], K[pk]
    W = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
    for which in ("simple", "projected"):
        assert same_bits(check_antisymmetry(J, Kk, W, which), single_calls(check_antisymmetry, J, Kk, W, which=which))
        singles = single_calls(kernel_residuals, J, Kk, W, which=which)
        right, left = kernel_residuals(J, Kk, W, which)
        assert same_bits(right, [r for r, _ in singles]) and same_bits(left, [l for _, l in singles])
    assert same_bits(difference_residual(J, Kk, W), single_calls(difference_residual, J, Kk, W))

    df = random_divfree_state(modes, seed=2, amplitude=1.0)
    tainted = VorticityState(modes, df.values + 0.3 * (K[modes.half_positions] * (1 + 1j)))
    # random triples: sums inside and outside the box alike
    T = tuple(idx[rng.integers(M, size=(3, 30))])
    for state in (df, tainted):
        for which in ("simple", "projected"):
            for check in (jacobi_residual, verify.jacobi_scale, jacobi_residual_normalized):
                assert same_bits(check(*T, state, which), single_calls(check, *T, state=state, which=which))
    aj, ak = idx[pj], idx[pk]
    casimir = single_calls(casimir_identity_residual, aj, ak, state=tainted)
    assert same_bits(casimir_identity_residual(aj, ak, tainted), casimir)
    reduced = single_calls(reduced_identity_residual, aj, ak, frames=frames)
    assert same_bits(reduced_identity_residual(aj, ak, frames), reduced)
    tilde = single_calls(cross_check_tilde, aj, ak, W[:, :2], frames=frames)
    assert same_bits(cross_check_tilde(aj, ak, W[:, :2], frames), tilde)


def test_reduced_checks_batch_equals_single_calls(modes_box2, frames_box2_axis):
    # every collinear pair (where the reduced routes meet the axis) and random pairs
    idx = modes_box2.indices
    collinear = [(a, b) for a in idx for b in idx[~np.cross(idx, a).any(axis=1)]]
    rng = np.random.default_rng(4)
    pairs = np.concatenate([np.array(collinear), idx[rng.integers(len(idx), size=(200, 2))]])
    aj, ak = pairs[:, 0], pairs[:, 1]
    wt = rng.normal(size=(len(pairs), 2)) + 1j * rng.normal(size=(len(pairs), 2))
    fr = frames_box2_axis
    assert same_bits(reduced_identity_residual(aj, ak, fr), single_calls(reduced_identity_residual, aj, ak, frames=fr))
    assert same_bits(cross_check_tilde(aj, ak, wt, fr), single_calls(cross_check_tilde, aj, ak, wt, frames=fr))


def test_casimir_identity_residual_equals_its_np_cross_form(modes_box2, monkeypatch):
    rng = np.random.default_rng(5)
    raw = random_divfree_state(modes_box2, seed=3, amplitude=1.0)
    tainted = VorticityState(modes_box2, raw.values + 0.25 * modes_box2.wavevectors[modes_box2.half_positions])
    aj, ak = modes_box2.indices[rng.integers(len(modes_box2), size=(2, 300))]
    ak[:10] = -aj[:10]  # j + k = 0
    got = casimir_identity_residual(aj, ak, tainted)
    monkeypatch.setattr(verify, "cross", np.cross)
    assert got.tobytes() == casimir_identity_residual(aj, ak, tainted).tobytes()


def test_fro_of_real_input_equals_the_split_sum():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(40, 3, 3))
    x[0] = -0.0
    x[1, 0, 0], x[2, 1, 1], x[3, 2, 2] = np.inf, -np.inf, np.nan
    for arr, ndim in ((x, 2), (x, 3), (x[:, 0], 1), (x[:0], 2), (rng.integers(-4, 5, size=(7, 3)), 1)):
        flat = arr.reshape(arr.shape[: arr.ndim - ndim] + (math.prod(arr.shape[arr.ndim - ndim :]),))
        want = np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))
        got = verify._fro(arr, ndim)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
