import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euler3d import (
    AnisotropyMatrix,
    FrameSet,
    ShearFlowSpec,
    TruncationSpec,
    advection_block,
    assemble_global,
    build_lattice,
    cross_matrix,
    projected_block,
    random_divfree_state,
    reduced_block,
    reduced_coefficients,
    rotated_block,
    shear_state,
    simple_block,
)
from euler3d import structures
from euler3d.equilibria import gradient_span_test
from euler3d.frames import SIGNATURE_2D, cross
from euler3d.lattice import ModeSet
from euler3d.state import VorticityState, to_reduced
from euler3d.structures import ROUTE_AXIS, ROUTE_GENERIC, ROUTE_ZERO, ReducedTables
from euler3d.verify import poisson_rank

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])

cplx3 = st.tuples(*[st.floats(min_value=-3, max_value=3, allow_nan=False)] * 6).map(
    lambda v: np.array(v[:3]) + 1j * np.array(v[3:])
)
vec3 = st.tuples(*[st.floats(min_value=-3, max_value=3, allow_nan=False)] * 3).map(np.array)


def test_advection_block_hand_value():
    got = advection_block(EX, EY, np.array([1.0, -1.0, 0.0]))
    expected = np.array([[0, 0, 0], [0, 0, 1], [-1, 0, 0]], dtype=complex)
    assert np.allclose(got, expected)


def test_advection_linear_in_w():
    assert np.array_equal(advection_block(EX, EY, np.zeros(3)), np.zeros((3, 3)))


def test_advection_parallel_pair(rng):
    k = rng.normal(size=3)
    w = rng.normal(size=3) + 1j * rng.normal(size=3)
    got = advection_block(k, k, w)
    assert np.allclose(got, -(k @ w) * cross_matrix(k))


def test_simple_block_hand_value():
    w = np.array([1.0, -1.0, 0.0])
    got = simple_block(EX, EY, w)
    expected = np.array([[0, 0, 0], [0, 0, 1], [-1, 0, 0]], dtype=complex)
    assert np.allclose(got, expected)
    # equal to the advection block because (j+k).w = 0 here
    assert np.allclose(got, advection_block(EX, EY, w))


@settings(max_examples=60, deadline=None)
@given(j=vec3, k=vec3, w=cplx3)
def test_simple_block_lemma_properties(j, k, w):
    B = simple_block(j, k, w)
    scale = max(1.0, np.linalg.norm(B))
    assert np.linalg.norm(B + simple_block(k, j, w).T) <= 1e-13 * scale
    assert np.linalg.norm(B @ k) <= 1e-13 * scale * max(1.0, np.linalg.norm(k))
    assert np.linalg.norm(j @ B) <= 1e-13 * scale * max(1.0, np.linalg.norm(j))


@settings(max_examples=60, deadline=None)
@given(j=vec3, k=vec3, w=cplx3)
def test_difference_identity(j, k, w):
    # exact in exact arithmetic; float routes differ only in dot-product rounding
    lhs = simple_block(j, k, w) - advection_block(j, k, w)
    rhs = np.dot(j + k, w) * cross_matrix(k)
    scale = max(1.0, np.linalg.norm(rhs))
    assert np.linalg.norm(lhs - rhs) <= 1e-13 * scale


def test_projected_block_cases(rng):
    j, k = rng.normal(size=3), rng.normal(size=3)
    q = j + k
    w = rng.normal(size=3) + 1j * rng.normal(size=3)
    wdf = w - q * (q @ w) / (q @ q)
    assert np.allclose(projected_block(j, k, wdf), simple_block(j, k, wdf), atol=1e-13)
    assert np.allclose(projected_block(j, k, q.astype(complex)), 0.0, atol=1e-13)
    # linearity split: projected = simple - simple(grad part)
    grad = q * (q @ w) / (q @ q)
    assert np.allclose(
        projected_block(j, k, w),
        simple_block(j, k, w) - simple_block(j, k, grad),
        atol=1e-12,
    )


def test_projected_block_zero_pair():
    j = np.array([1.0, 2.0, 0.0])
    w = np.array([1.0, 1.0, 1.0], dtype=complex)
    assert np.array_equal(projected_block(j, -j, w), np.zeros((3, 3)))


def test_rotated_block_subspace_rows(frames1, rng):
    for _ in range(10):
        j, k = rng.normal(size=3), rng.normal(size=3)
        wcheck = np.concatenate([[0.0], rng.normal(size=2) + 1j * rng.normal(size=2)])
        B = rotated_block(j, k, wcheck, frames1)
        scale = max(1.0, np.linalg.norm(B))
        assert np.max(np.abs(B[0, :])) <= 1e-13 * scale
        assert np.max(np.abs(B[:, 0])) <= 1e-13 * scale


def test_rotated_block_zero_coefficient(frames1, rng):
    j, k = rng.normal(size=3), rng.normal(size=3)
    assert np.array_equal(rotated_block(j, k, np.zeros(3), frames1), np.zeros((3, 3)))


def test_rotated_block_axis_dispatch(frames1):
    # j on the reference axis uses the identity / signature frames
    B = rotated_block(np.array([2.0, 0, 0]), EY, np.array([0, 1.0, 0]), frames1)
    assert B.shape == (3, 3)


@pytest.mark.parametrize("N", [1, 2])
@pytest.mark.parametrize("box", [(1.0, 1.0, 1.0), (1.0, 0.3, 1.0)], ids=["iso", "box"])
def test_blocks_batch_equals_single_calls(N, box, rng):
    from euler3d.errors import InvalidModeError

    modes = build_lattice(TruncationSpec(N), AnisotropyMatrix(*box))
    frames = FrameSet(modes)
    K = modes.wavevectors
    j, k = K[rng.integers(len(K), size=(2, 60))]
    k[:5] = -j[:5]  # j + k = 0
    w = rng.normal(size=(60, 3)) + 1j * rng.normal(size=(60, 3))
    cases = [(advection_block, w, ()), (simple_block, w, ()), (projected_block, w, ()),
             (rotated_block, w, (frames,)), (reduced_block, w[:, :2], (frames,))]
    for block, coefficient, extra in cases:
        batch = block(j, k, coefficient, *extra)
        singles = np.stack([block(j[i], k[i], coefficient[i], *extra) for i in range(len(j))])
        assert batch.shape == singles.shape and batch.tobytes() == singles.tobytes(), block.__name__
    for block, extra in ((projected_block, ()), (rotated_block, (frames,))):
        assert not block(j[:5], k[:5], w[:5], *extra).any()
    with pytest.raises(InvalidModeError):
        rotated_block(np.stack([EX, np.zeros(3)]), np.stack([EY, EY]), w[:2], frames)


def test_reduced_block_axis_example(frames1):
    """k parallel to the axis; value frozen from the conjugation oracle.

    Hand check: R_k = I, omega_{j+k} = R_{j+k}^T (0,1,0) = (0,0,-1),
    J = outer(w, k x j) has only the zz entry (-1), and R_j J picks it into
    the yz slot:  [[0, 1], [0, 0]].
    """
    j = np.array([0.0, 1.0, 0.0])
    k = np.array([1.0, 0.0, 0.0])
    got = reduced_block(j, k, np.array([1.0, 0.0]), frames1)
    oracle = rotated_block(j, k, np.array([0.0, 1.0, 0.0]), frames1)[1:, 1:]
    assert np.allclose(oracle, np.array([[0.0, 1.0], [0.0, 0.0]]), atol=1e-14)
    assert np.allclose(got, oracle, atol=1e-13)


def test_reduced_block_zero_coefficient(frames1, rng):
    j, k = rng.normal(size=3), rng.normal(size=3)
    assert np.array_equal(reduced_block(j, k, np.zeros(2), frames1), np.zeros((2, 2)))


def test_reduced_generic_zz_coefficient_vanishes(frames1, rng):
    # the y-coefficient matrix has an identically zero zz entry
    for _ in range(20):
        j, k = rng.normal(size=3), rng.normal(size=3)
        Ty, Tz, route = reduced_coefficients(j, k, frames1)
        assert route == ROUTE_GENERIC
        assert Ty[1, 1] == 0.0


def test_reduced_routes(frames1):
    _, _, route = reduced_coefficients(np.array([2.0, 0, 0]), np.array([0.0, 1, 1]), frames1)
    assert route == ROUTE_AXIS
    _, _, route = reduced_coefficients(np.array([2.0, 0, 0]), np.array([1.0, 0, 0]), frames1)
    assert route == ROUTE_ZERO
    _, _, route = reduced_coefficients(np.array([0.0, 1, 0]), np.array([0.0, 0, 1]), frames1)
    assert route == ROUTE_GENERIC


def test_reduced_fully_axis_pairs_vanish(frames1, rng):
    # j, k, j+k all on the reference line: the divergence-free coefficient is
    # annihilated, so the block is zero whichever sign pattern occurs
    for j1, k1 in [(1.0, 2.0), (1.0, -3.0), (-1.0, -1.0), (-2.0, 1.0)]:
        j = np.array([j1, 0.0, 0.0])
        k = np.array([k1, 0.0, 0.0])
        Ty, Tz, route = reduced_coefficients(j, k, frames1)
        assert route == ROUTE_ZERO
        assert not Ty.any() and not Tz.any()
        wt = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert np.allclose(reduced_block(j, k, wt, frames1), 0.0, atol=1e-14)


def test_reduced_matches_conjugation_everywhere(frames2, rng):
    # dual-route check across random lattice pairs, all dispatch branches
    modes = frames2.modes
    for _ in range(150):
        pj, pk = rng.integers(0, len(modes), size=2)
        j, k = modes.wavevectors[pj], modes.wavevectors[pk]
        wt = rng.normal(size=2) + 1j * rng.normal(size=2)
        explicit = reduced_block(j, k, wt, frames2)
        oracle = rotated_block(j, k, np.concatenate([[0], wt]), frames2)[1:, 1:]
        scale = max(1.0, np.linalg.norm(oracle))
        assert np.linalg.norm(explicit - oracle) <= 1e-12 * scale


def test_reduced_restricted_antisymmetry(frames2, rng):
    modes = frames2.modes
    for _ in range(60):
        pj, pk = rng.integers(0, len(modes), size=2)
        j, k = modes.wavevectors[pj], modes.wavevectors[pk]
        Ty1, Tz1, _ = reduced_coefficients(j, k, frames2)
        Ty2, Tz2, _ = reduced_coefficients(k, j, frames2)
        assert np.allclose(Ty1 + Ty2.T, 0.0, atol=1e-12 * max(1, np.abs(Ty1).max()))
        assert np.allclose(Tz1 + Tz2.T, 0.0, atol=1e-12 * max(1, np.abs(Tz1).max()))


def test_reduced_tables_equal_single_pair_calls(frames_box2_axis):
    # the batched table build against one reduced_coefficients call per pair
    tabs = ReducedTables(frames_box2_axis)
    K = frames_box2_axis.modes.wavevectors
    pj, pk = np.nonzero(frames_box2_axis.modes.pair_table() >= 0)
    _, _, routes = reduced_coefficients(K[pj], K[pk], frames_box2_axis)
    for n in range(len(pj)):
        Ty, Tz, route = reduced_coefficients(K[pj[n]], K[pk[n]], frames_box2_axis)
        assert isinstance(route, str) and route == routes[n]
        assert Ty.tobytes() == tabs.Ty[pj[n], pk[n]].tobytes()
        assert Tz.tobytes() == tabs.Tz[pj[n], pk[n]].tobytes()
    # pairs whose sum leaves the lattice hold zeros
    off = frames_box2_axis.modes.pair_table() < 0
    assert not tabs.Ty[off].any() and not tabs.Tz[off].any()


def test_reduced_routes_match_conjugation_on_box(frames_box2_axis, rng):
    # a sample of every route of the batched call against rotated_block
    K = frames_box2_axis.modes.wavevectors
    pj, pk = np.nonzero(frames_box2_axis.modes.pair_table() >= 0)
    Ty, Tz, routes = reduced_coefficients(K[pj], K[pk], frames_box2_axis)
    assert Ty.shape == Tz.shape == (len(pj), 2, 2)
    assert set(routes) == {ROUTE_GENERIC, ROUTE_AXIS, ROUTE_ZERO}
    for route in (ROUTE_GENERIC, ROUTE_AXIS, ROUTE_ZERO):
        members = np.flatnonzero(routes == route)
        for n in rng.choice(members, size=min(40, len(members)), replace=False):
            for T, e in ((Ty[n], [0.0, 1.0, 0.0]), (Tz[n], [0.0, 0.0, 1.0])):
                want = rotated_block(K[pj[n]], K[pk[n]], np.array(e), frames_box2_axis)[1:, 1:].real
                assert np.max(np.abs(T - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_reduced_coefficients_batch_shapes(frames1):
    # a generic and an axis pair, an all-on-axis pair and the j + k = 0 pair, in a (2, 2) batch
    j = np.array([[[0.0, 1, 0], [2.0, 0, 0]], [[2.0, 0, 0], [1.0, 2, 0]]])
    k = np.array([[[0.0, 0, 1], [0.0, 1, 1]], [[1.0, 0, 0], [-1.0, -2, 0]]])
    Ty, Tz, routes = reduced_coefficients(j, k, frames1)
    assert Ty.shape == Tz.shape == (2, 2, 2, 2)
    assert routes.tolist() == [[ROUTE_GENERIC, ROUTE_AXIS], [ROUTE_ZERO, ROUTE_ZERO]]
    for a in range(2):
        for b in range(2):
            one = reduced_coefficients(j[a, b], k[a, b], frames1)
            assert np.array_equal(one[0], Ty[a, b]) and np.array_equal(one[1], Tz[a, b])
            assert one[2] == routes[a, b]


def test_assemble_single_pair_lattice():
    pair = ModeSet.from_indices([(1, 0, 0), (-1, 0, 0)], AnisotropyMatrix())
    s = VorticityState(pair).with_mode((1, 0, 0), [0, 1.0, 0.5j])
    tensor = assemble_global(s, pair, "simple")
    assert np.array_equal(tensor.matrix, np.zeros((6, 6)))


def test_assemble_zero_state(modes1):
    tensor = assemble_global(VorticityState(modes1), modes1, "projected")
    assert not tensor.matrix.any()


def test_assemble_antisymmetry(modes1, frames1, df_state1):
    for which in ("simple", "projected", "reduced"):
        tensor = assemble_global(df_state1, modes1, which, frames1)
        A = tensor.matrix
        assert np.linalg.norm(A + A.T) <= 1e-13 * np.linalg.norm(A)


def test_assemble_matches_blocks(modes1, df_state1):
    tensor = assemble_global(df_state1, modes1, "simple")
    W = df_state1.full_values()
    conv = modes1.pair_table()
    rng = np.random.default_rng(3)
    for _ in range(40):
        pj, pk = rng.integers(0, len(modes1), size=2)
        w = W[conv[pj, pk]] if conv[pj, pk] >= 0 else np.zeros(3, complex)
        expect = simple_block(modes1.wavevectors[pj], modes1.wavevectors[pk], w)
        assert np.allclose(tensor.block(pj, pk), expect, atol=1e-14)


def test_global_tensor_export(tmp_path, modes1, df_state1):
    tensor = assemble_global(df_state1, modes1, "projected")
    bin_path, json_path = tensor.save(str(tmp_path / "tensor"))
    header = json.loads(Path(json_path).read_text())
    assert header["dim"] == 3 * len(modes1)
    assert header["dtype"] == "complex128" and header["byte_order"] == "little"
    assert header["modes"] == modes1.indices.tolist()
    raw = np.frombuffer(Path(bin_path).read_bytes(), dtype="<c16").reshape(header["dim"], header["dim"])
    assert np.array_equal(raw, tensor.matrix)


@pytest.mark.parametrize("N", [1, 2])
def test_export_streams_the_matrix_bytes(tmp_path, N):
    modes = build_lattice(TruncationSpec(N), AnisotropyMatrix(1.0, 0.3, 1.0))
    state = random_divfree_state(modes, seed=N, amplitude=1.0)
    for which in ("simple", "projected", "reduced"):
        tensor = assemble_global(state, modes, which)
        bin_path, _ = tensor.save(str(tmp_path / which))
        assert "matrix" not in tensor.__dict__
        assert Path(bin_path).read_bytes() == tensor.matrix.astype("<c16").tobytes(), which


def test_export_peak_memory_is_near_one_chunk(tmp_path):
    # the dense rows of one chunk of 16 block rows are 16 * 9 M complex
    # numbers; the matrix is 21 of them
    modes = build_lattice(TruncationSpec(3), AnisotropyMatrix(1.0, 0.3, 1.0))
    tensor = assemble_global(random_divfree_state(modes, seed=11, amplitude=1.0), modes, "projected")
    tracemalloc.start()
    try:
        tensor.save(str(tmp_path / "tensor"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * structures._ROW_CHUNK * 9 * len(modes) * 16


def test_assemble_rejects_unknown(modes1, df_state1):
    with pytest.raises(ValueError):
        assemble_global(df_state1, modes1, "direct")


def _general_state(modes, seed):
    """A state that is not divergence-free."""
    rng = np.random.default_rng(seed)
    shape = (modes.half_size, 3)
    return VorticityState(modes, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def _values_at_sums(modes, values):
    """(M, M, ...) array of ``values`` at mode j + k, zero where j + k is not a mode."""
    padded = np.concatenate([values, np.zeros_like(values[:1])])
    return padded[modes.pair_table()]


def _all_row_factors(state, modes, which, frames=None, per_pair=False):
    """The factors of every block row, built at once: (Wq, s) for simple and
    projected, the (M, M, 2, 2) blocks for reduced.

    Projected values are projected at each sum's own wavevector K[j + k];
    ``per_pair`` projects along K_j + K_k instead, as the tensor once did,
    which differs in the last bit where a box scale is not exact."""
    if which == "reduced":
        tabs = structures.reduced_tables(frames)
        wt = _values_at_sums(modes, to_reduced(state, frames).full_values())
        return np.add(tabs.Ty * wt[:, :, 0, None, None], tabs.Tz * wt[:, :, 1, None, None], order="C")
    K = modes.wavevectors
    Wq = _values_at_sums(modes, state.full_values())
    if which == "projected":
        table = modes.pair_table()
        Q = K[:, None, :] + K[None, :, :] if per_pair else K[table]
        q2 = np.einsum("jkd,jkd->jk", Q, Q)
        live = (table >= 0)[:, :, None]
        Wq = np.where(live, Wq - Q * (np.einsum("jkd,jkd->jk", Q, Wq) / np.where(q2 > 0, q2, 1.0))[:, :, None], 0)
    return Wq, np.einsum("jd,jkd->jk", K, Wq)


def _all_row_matrix(modes, which, factors):
    M = len(modes)
    if which == "reduced":
        return factors.transpose(0, 2, 1, 3).reshape(2 * M, 2 * M)
    Wq, s = factors
    K = modes.wavevectors
    # the old expression, term1 + s CK over (j, k, a, b)
    term1 = np.einsum("jka,jkb->jkab", Wq, cross(K[None, :, :], K[:, None, :]))
    blocks = term1 + s[:, :, None, None] * cross_matrix(K)[None, :, :, :]
    return blocks.transpose(0, 2, 1, 3).reshape(3 * M, 3 * M)


def _all_row_apply(modes, which, factors, g):
    M = len(modes)
    if which == "reduced":
        return np.einsum("jkab,kb->ja", factors, g.reshape(M, 2)).reshape(-1)
    Wq, s = factors
    K = modes.wavevectors
    kxg = cross(K, g.reshape(M, 3))
    return (s @ kxg - np.matmul((K @ kxg.T)[:, None, :], Wq)[:, 0]).reshape(-1)


def _all_row_real_form(modes, which, factors):
    """The real form from every row's factors at once, by the formulas of
    ``GlobalTensor.real_form``."""
    M = len(modes)
    H = M // 2
    if which == "reduced":
        rows = factors[H:].transpose(0, 2, 1, 3)
    else:
        Wq, s = factors
        K = modes.wavevectors
        P = FrameSet(modes).R[:, 1:]
        kxP = cross(K[:, None, :], P).reshape(2 * M, 3).T
        PX = (K[H:] @ kxP).reshape(H, 1, M, 2)
        PW = np.matmul(Wq[H:], P[H:].transpose(0, 2, 1)).transpose(0, 2, 1)[..., None]
        rows = (P[H:].reshape(2 * H, 3) @ kxP).reshape(H, 2, M, 2) * s[H:, None, :, None] - PW * PX
    A, B = rows[:, :, H:], rows[:, :, H - 1 :: -1]
    sign = np.diag(SIGNATURE_2D)
    real = np.empty((2, H, 2, 2, H, 2))
    real[0, :, :, 0], real[0, :, :, 1] = A.real + B.real * sign, A.imag - B.imag * sign
    real[1, :, :, 0], real[1, :, :, 1] = A.imag + B.imag * sign, -A.real + B.real * sign
    return real.reshape(2 * M, 2 * M)


def test_assemble_global_equals_block_expression(modes1, modes_box2):
    for modes in (modes1, modes_box2):
        for state in (random_divfree_state(modes, seed=4, amplitude=1.0), _general_state(modes, 4)):
            for which in ("simple", "projected"):
                expect = _all_row_matrix(modes, which, _all_row_factors(state, modes, which))
                got = assemble_global(state, modes, which).matrix
                assert got.dtype == expect.dtype and got.shape == expect.shape
                assert got.tobytes() == expect.tobytes()


RANK_BOXES = [(1.0, 1.0, 1.0), (1.0, 0.3, 1.0), (0.7, 1.3, 0.1)]
SPARSE_MODES = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 1), (2, 1, 1)]


def _rank_cases(modes):
    """(state, which) for the three structures at a divergence-free state, a
    general state and, where the lattice holds (0, 0, 1), a shear state."""
    general = _general_state(modes, 8)
    states = [random_divfree_state(modes, seed=8, amplitude=1.0), general]
    if (0, 0, 1) in modes:
        states.append(shear_state(ShearFlowSpec((0, 0, 1), (1.0, 0.0, 0.0)), modes))
    for state in states:
        for which in ("simple", "projected", "reduced"):
            if which == "reduced" and state is general:
                continue  # reduced coordinates exist on the divergence-free subspace only
            yield state, which


def _rank_tensors(modes, frames):
    for state, which in _rank_cases(modes):
        yield assemble_global(state, modes, which, frames)


def _lattices(Ns=(1, 2)):
    for aniso in RANK_BOXES:
        for N in Ns:
            yield build_lattice(TruncationSpec(N), AnisotropyMatrix(*aniso))
        sparse = SPARSE_MODES + [tuple(-c for c in a) for a in SPARSE_MODES]
        yield ModeSet.from_indices(sparse, AnisotropyMatrix(*aniso))


@pytest.mark.parametrize("chunk", [structures._ROW_CHUNK, 7])
def test_chunked_readers_equal_all_row_factors(chunk, monkeypatch):
    # the factors of every row at once are the oracle: the dense matrix to
    # the bit, the real form and T g within roundoff.  The reduced tensor is
    # the rotated simple one, which sums in another order than the reduced
    # tables, so its matrix and real form agree to roundoff only.  The
    # projected matrix also agrees to roundoff with the factors projected
    # pair by pair, the old path.
    monkeypatch.setattr(structures, "_ROW_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    halves = set()
    for modes in _lattices(Ns=(1, 2, 3)):
        halves.add(modes.half_size)
        frames = FrameSet(modes)
        for state, which in _rank_cases(modes):
            tensor = assemble_global(state, modes, which, frames)
            factors = _all_row_factors(state, modes, which, frames)
            matrix = _all_row_matrix(modes, which, factors)
            if which == "reduced":
                rel = 1e-14
                assert np.max(np.abs(tensor.matrix - matrix)) <= rel * np.max(np.abs(matrix)), modes.half_size
            else:
                rel = 1e-15
                assert tensor.matrix.tobytes() == matrix.tobytes(), (modes.half_size, which)
            if which == "projected":
                old = _all_row_matrix(modes, which, _all_row_factors(state, modes, which, per_pair=True))
                assert np.max(np.abs(tensor.matrix - old)) <= rel * np.max(np.abs(old)), modes.half_size
            want = _all_row_real_form(modes, which, factors)
            assert np.max(np.abs(tensor.real_form() - want)) <= rel * np.max(np.abs(want))
            g = rng.normal(size=tensor.dim) + 1j * rng.normal(size=tensor.dim)
            want = _all_row_apply(modes, which, factors, g)
            assert np.max(np.abs(tensor.apply(g) - want)) <= 1e-15 * np.max(np.abs(matrix) @ np.abs(g))
    # a mode set inside one chunk, and one that ends partway through a chunk
    assert min(halves) < chunk
    assert any(h > chunk and h % chunk for h in halves)


def _dense_rows_oracle(tensor, rows):
    """The slice writer's oracle: one einsum into the transposed layout of
    the simple rows, then nine adds of s [k]_x, then the reduced rotation."""
    M, b = len(tensor.modes), tensor.block_size
    K = tensor.modes.wavevectors
    Wq, s = tensor._factors(rows)
    simple = np.empty((len(s), 3, M, 3), dtype=complex)
    np.einsum("jka,jkb->jkab", Wq, cross(K[None, :, :], K[rows, None, :]), out=simple.transpose(0, 2, 1, 3))
    CK = cross_matrix(K)
    for a in range(3):
        for c in range(3):
            simple[:, a, :, c] += s * CK[None, :, a, c]
    if b == 3:
        return simple
    P = tensor.frames.R[:, 1:]
    return np.einsum("jakc,kdc->jakd", np.einsum("jab,jbkc->jakc", P[rows], simple), P)


def test_slice_writer_equals_the_dense_rows_oracle():
    # the dense rows carry the oracle's bits, signed zeros included
    for modes in _lattices(Ns=(1, 2, 3)):
        frames = FrameSet(modes)
        for state, which in _rank_cases(modes):
            tensor = assemble_global(state, modes, which, frames)
            for rows in structures._row_chunks(0, len(modes)):
                want = _dense_rows_oracle(tensor, rows)
                assert tensor._dense_rows(rows).tobytes() == want.tobytes(), (modes.half_size, which)


def test_rank_peak_memory_is_near_the_real_form():
    # the factors are built a chunk of rows at a time: traced allocations of
    # a generic rank stay near the real form's 32 M^2 bytes (all-row factors
    # beside it read 6x, and the reduced tables 10x)
    modes = build_lattice(TruncationSpec(3), AnisotropyMatrix(1.0, 0.3, 1.0))
    state = random_divfree_state(modes, seed=11, amplitude=1.0)
    for which in ("projected", "reduced"):
        tracemalloc.start()
        try:
            poisson_rank(state, modes, which)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (2 * len(modes)) ** 2 * 8, which


AXIS_REFERENCES = [(1.0, 0, 0), (-1.0, 0, 0), (0, 1.0, 0), (0, -1.0, 0), (0, 0, 1.0), (0, 0, -1.0)]


def test_singular_values_match_complex_svd():
    # every axis reference, which moves the reduced tensor; simple and
    # projected come from the 2M-dim transverse form plus M exact zeros
    tol = 2.0**-46
    for n in AXIS_REFERENCES:
        for modes in _lattices():
            for tensor in _rank_tensors(modes, FrameSet(modes, np.array(n))):
                oracle = np.linalg.svd(tensor.matrix, compute_uv=False)
                sv = tensor.singular_values()
                assert sv.shape == oracle.shape == (tensor.dim,)
                if tensor.which != "reduced":
                    assert np.all(sv[2 * len(modes) :] == 0.0)
                assert np.all(np.abs(sv - oracle) <= 1e-13 * oracle[0])
                cut = tol * oracle[0] * tensor.dim
                assert np.sum(sv > tol * sv[0] * tensor.dim) == np.sum(oracle > cut)


def _real_coordinates(modes, block_size, sign):
    """Unitary V with w = V r, r the (Re, Im) of each canonical mode times sqrt(2)."""
    M, b = len(modes), block_size
    H = M // 2
    V = np.zeros((M, b, 2, H, b), dtype=complex)
    for slot, p in enumerate(modes.half_positions):
        q = modes.neg_index[p]
        for c in range(b):
            V[p, c, 0, slot, c] = 1.0
            V[q, c, 0, slot, c] = sign[c]
            V[p, c, 1, slot, c] = 1.0j
            V[q, c, 1, slot, c] = -1.0j * sign[c]
    return V.reshape(M * b, M * b) / np.sqrt(2.0)


def test_real_form_of_tensor_is_real(modes1, frames1, modes_box2, frames_box2):
    for modes, frames in ((modes1, frames1), (modes_box2, frames_box2)):
        state = random_divfree_state(modes, seed=9, amplitude=1.0)
        for which in ("simple", "projected", "reduced"):
            b = 2 if which == "reduced" else 3
            sign = np.diag(SIGNATURE_2D) if which == "reduced" else np.ones(3)
            V = _real_coordinates(modes, b, sign)
            assert np.allclose(V.conj().T @ V, np.eye(len(V)), rtol=0, atol=1e-15)
            # the coordinates pair up as w_{-j} = s conj(w_j)
            values = to_reduced(state, frames).full_values() if which == "reduced" else state.full_values()
            r = V.conj().T @ values.reshape(-1)
            assert np.max(np.abs(r.imag)) <= 1e-15 * np.max(np.abs(r))
            tensor = assemble_global(state, modes, which, frames)
            real_form = V.conj().T @ tensor.matrix @ V.conj()
            # zero up to the roundoff of the four-term sums in the products
            scale = np.max(np.abs(tensor.matrix))
            assert np.max(np.abs(real_form.imag)) <= 1e-15 * scale
            assert np.max(np.abs(real_form + real_form.T)) <= 1e-15 * scale
            sv = np.linalg.svd(real_form.real, compute_uv=False)
            assert np.all(np.abs(tensor.singular_values() - sv) <= 1e-13 * sv[0])


def test_spectral_norm_from_singular_values(modes1, df_state1, modes_box2):
    state2 = random_divfree_state(modes_box2, seed=2, amplitude=1.0)
    for state, modes in ((df_state1, modes1), (state2, modes_box2)):
        tensor = assemble_global(state, modes, "projected")
        oracle = np.linalg.norm(tensor.matrix, 2)
        assert abs(tensor.singular_values()[0] - oracle) <= 1e-13 * oracle


SHEAR_SHAPES = {
    "p100": ShearFlowSpec((1, 0, 0), (0.0, 0.0, 1.0)),
    "p120": ShearFlowSpec((1, 2, 0), (0.0, 0.0, 1.0)),
    "p100_h12": ShearFlowSpec((1, 0, 0), (0.0, 0.6, 0.8), {1: 1.0, 2: 1.0}),
}
SHEAR_BOXES = {"iso": (1.0, 1.0, 1.0), "aniso": (1.0, 0.3, 1.0)}


def _shear_states(modes):
    """The shear shapes that fit in the lattice."""
    fit = lambda spec: all(tuple(n * c for c in spec.p) in modes for n in spec.harmonics)
    return {name: shear_state(spec, modes) for name, spec in SHEAR_SHAPES.items() if fit(spec)}


@pytest.mark.parametrize("box", list(SHEAR_BOXES), ids=list(SHEAR_BOXES))
@pytest.mark.parametrize("N", [1, 2, 3])
def test_block_split_matches_complex_svd(N, box):
    # shear tensors split into blocks; each block's SVD, merged, against the complex SVD of the dense matrix
    tol = 2.0**-46
    modes = build_lattice(TruncationSpec(N), AnisotropyMatrix(*SHEAR_BOXES[box]))
    frames = FrameSet(modes)
    generic = random_divfree_state(modes, seed=5, amplitude=1.0)
    for state in _shear_states(modes).values():
        for which in ("simple", "projected", "reduced"):
            tensor = assemble_global(state, modes, which, frames)
            assert sum(len(g) for g in tensor.support_blocks()) > 1
            oracle = np.linalg.svd(tensor.matrix, compute_uv=False)
            sv = tensor.singular_values()
            assert sv.shape == oracle.shape
            assert np.all(np.abs(sv - oracle) <= 1e-13 * oracle[0])
            assert np.sum(sv > tol * sv[0] * tensor.dim) == np.sum(oracle > tol * oracle[0] * tensor.dim)
            (one,) = assemble_global(generic, modes, which, frames).support_blocks()
            assert one.shape == (1, len(modes) // 2)


def _coupled_blocks_oracle(real):
    """The blocks of the pattern 'any of the 16 entries is nonzero', by
    size, its components found by a search, one slot at a time."""
    H = len(real) // 4
    coupled = (real.reshape(2, H, 2, 2, H, 2) != 0).any(axis=(0, 2, 3, 5))
    coupled |= coupled.T
    label = np.full(H, -1)
    for seed in range(H):
        if label[seed] < 0:
            label[seed], todo = seed, [seed]
            while todo:
                for k in np.flatnonzero(coupled[todo.pop()] & (label < 0)):
                    label[k] = seed
                    todo.append(k)
    blocks = {}
    for first in np.unique(label):
        slots = np.flatnonzero(label == first)
        blocks.setdefault(len(slots), []).append(slots)
    return [np.array(blocks[n]) for n in sorted(blocks)]


@pytest.mark.parametrize("box", list(SHEAR_BOXES), ids=list(SHEAR_BOXES))
@pytest.mark.parametrize("N", [1, 2, 3])
def test_coupled_blocks_equal_the_nonzero_pattern_oracle(N, box):
    # the support blocks equal the blocks of the exact-zero pattern, up to
    # joining slots whose entries all vanish (on an axis shear's axis): each
    # oracle block lies in one support block, and a support block that holds
    # several oracle blocks holds at most one with a nonzero entry
    modes = build_lattice(TruncationSpec(N), AnisotropyMatrix(*SHEAR_BOXES[box]))
    H = modes.half_size
    frames = FrameSet(modes)
    states = [random_divfree_state(modes, seed=5, amplitude=1.0), *_shear_states(modes).values()]
    joined = 0
    for state in states:
        for which in ("simple", "projected", "reduced"):
            tensor = assemble_global(state, modes, which, frames)
            real = tensor.real_form()
            got = [slots for group in tensor.support_blocks() for slots in group]
            assert all(np.array_equal(slots, np.sort(slots)) for slots in got)
            assert np.array_equal(np.sort(np.concatenate(got)), np.arange(H))
            label = np.empty(H, dtype=int)
            for i, slots in enumerate(got):
                label[slots] = i
            zero = ~(real.reshape(2, H, 2, 2 * H * 2) != 0).any(axis=(0, 2, 3))
            inside = {}
            for group in _coupled_blocks_oracle(real):
                for slots in group:
                    (i,) = np.unique(label[slots])
                    inside.setdefault(i, []).append(slots)
            for i, parts in inside.items():
                assert np.array_equal(np.sort(np.concatenate(parts)), got[i])
                if len(parts) > 1:
                    joined += 1
                    assert sum(not zero[slots].all() for slots in parts) <= 1, (which, i)
    assert (joined > 0) == (N > 1)  # the axis shears' on-axis slots p, 2p, ...


def test_axis_shear_rank_peak_memory_is_far_below_the_real_form():
    # the support blocks of the N=3 axis shear are small, and only they are
    # built: traced allocations stay below 1/8 of the real form's 32 M^2 bytes
    modes = build_lattice(TruncationSpec(3), AnisotropyMatrix(1.0, 0.3, 1.0))
    state = shear_state(SHEAR_SHAPES["p100"], modes)
    frames = FrameSet(modes)
    for which in ("simple", "projected", "reduced"):
        tensor = assemble_global(state, modes, which, frames)
        tracemalloc.start()
        try:
            tensor.singular_values()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 * len(modes)) ** 2 * 8 / 8, which


# (rank, corank) at N=2 of the full structures, then of the reduced one
PINNED_SHEAR_RANKS = {
    "p100": ((176, 196), (176, 72)),
    "p120": ((160, 212), (160, 88)),
    "p100_h12": ((240, 132), (240, 8)),
}


@pytest.mark.parametrize("box", list(SHEAR_BOXES), ids=list(SHEAR_BOXES))
def test_shear_ranks_at_n2_are_pinned(box):
    modes = build_lattice(TruncationSpec(2), AnisotropyMatrix(*SHEAR_BOXES[box]))
    frames = FrameSet(modes)
    for name, state in _shear_states(modes).items():
        full, reduced = PINNED_SHEAR_RANKS[name]
        for which, expect in (("simple", full), ("projected", full), ("reduced", reduced)):
            r = poisson_rank(state, modes, which, frames=frames)
            assert (r.rank, r.corank) == expect, (name, which)


def test_rank_path_builds_no_dense_matrix(modes1, monkeypatch):
    made = []
    assemble = structures.assemble_global

    def recording(*args, **kwargs):
        made.append(assemble(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(structures, "assemble_global", recording)
    eq = shear_state(SHEAR_SHAPES["p100"], modes1)
    for which in ("simple", "projected", "reduced"):
        poisson_rank(eq, modes1, which)
        poisson_rank(random_divfree_state(modes1, seed=3, amplitude=1.0), modes1, which)
    made.append(assemble(eq, modes1, "projected"))
    assert gradient_span_test(eq, made[-1])["grad_energy_in_kernel"]
    assert len(made) == 7
    assert all("matrix" not in tensor.__dict__ for tensor in made)


def test_rank_reads_the_frames_it_was_given(modes1, monkeypatch):
    # simple and projected write their real form in the frames given to
    # assemble_global, and make the default ones once per tensor otherwise
    made = []
    frameset = structures.FrameSet

    def recording(*args, **kwargs):
        made.append(frameset(*args, **kwargs))
        return made[-1]

    frames = FrameSet(modes1, np.array([0.0, -1.0, 0.0]))
    monkeypatch.setattr(structures, "FrameSet", recording)
    state = random_divfree_state(modes1, seed=2, amplitude=1.0)
    for which in ("simple", "projected"):
        tensor = assemble_global(state, modes1, which, frames)
        tensor.singular_values()
        assert not made and np.shares_memory(tensor._transverse, frames.R)
        tensor = assemble_global(state, modes1, which)
        tensor.singular_values()
        tensor.singular_values()
        assert len(made) == 1 and tensor.frames is None
        made.clear()
        with pytest.raises(ValueError):
            assemble_global(state, modes1, which, FrameSet(build_lattice(TruncationSpec(1))))


@pytest.mark.parametrize("N", [1, 2, 3])
def test_factor_product_equals_dense_product(N):
    modes = build_lattice(TruncationSpec(N), AnisotropyMatrix(1.0, 0.3, 1.0))
    frames = FrameSet(modes)
    rng = np.random.default_rng(N)
    states = [random_divfree_state(modes, seed=N, amplitude=1.0), shear_state(SHEAR_SHAPES["p100"], modes)]
    for state in states:
        for which in ("simple", "projected", "reduced"):
            tensor = assemble_global(state, modes, which, frames)
            g = rng.normal(size=tensor.dim) + 1j * rng.normal(size=tensor.dim)
            got = tensor.apply(g)
            want = tensor.matrix @ g
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(tensor.matrix) @ np.abs(g))
