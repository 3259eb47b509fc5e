import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euler3d import (
    AnisotropyMatrix,
    advection_block,
    assemble_global,
    cross_matrix,
    projected_block,
    reduced_block,
    reduced_coefficients,
    rotated_block,
    simple_block,
)
from euler3d.lattice import ModeSet
from euler3d.state import VorticityState
from euler3d.structures import ROUTE_AXIS, ROUTE_GENERIC, ROUTE_ZERO, ReducedTables

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
    header = json.loads(open(json_path).read())
    assert header["dim"] == 3 * len(modes1)
    assert header["dtype"] == "complex128" and header["byte_order"] == "little"
    assert header["modes"] == modes1.indices.tolist()
    raw = np.frombuffer(open(bin_path, "rb").read(), dtype="<c16").reshape(header["dim"], header["dim"])
    assert np.array_equal(raw, tensor.matrix)


def test_assemble_rejects_unknown(modes1, df_state1):
    with pytest.raises(ValueError):
        assemble_global(df_state1, modes1, "direct")
