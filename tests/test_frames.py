import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euler3d import (
    SIGNATURE,
    AnisotropyMatrix,
    FrameSet,
    InvalidModeError,
    TruncationSpec,
    build_lattice,
    cross_matrix,
    leray_projector,
    rotation_frame,
)
from euler3d.frames import cross, leray_project

vec3 = st.tuples(*[st.floats(min_value=-5, max_value=5, allow_nan=False)] * 3).filter(
    lambda v: max(abs(c) for c in v) > 1e-3
)


def test_cross_matrix_example():
    expected = np.array([[0, -3, 2], [3, 0, -1], [-2, 1, 0]], dtype=float)
    assert np.array_equal(cross_matrix((1, 2, 3)), expected)


def test_cross_matrix_right_hand_rule():
    ez = cross_matrix([1, 0, 0]) @ np.array([0, 1, 0])
    assert np.array_equal(ez, [0, 0, 1])


@settings(max_examples=50, deadline=None)
@given(a=vec3, b=vec3)
def test_cross_matrix_is_cross_product(a, b):
    a, b = np.array(a), np.array(b)
    assert np.allclose(cross_matrix(a) @ b, np.cross(a, b), atol=1e-12)
    assert np.allclose(cross_matrix(a) @ a, 0.0, atol=1e-12)
    assert np.array_equal(cross_matrix(a), -cross_matrix(a).T)


def stacked_cross_matrix(a):
    """cross_matrix as a nested array of component arrays, moved to the last two axes: the oracle."""
    ax, ay, az = np.moveaxis(np.asarray(a), -1, 0)
    zero = 0 * ax
    return np.moveaxis(np.array([[zero, -az, ay], [az, zero, -ax], [-ay, ax, zero]]), (0, 1), (-2, -1))


@pytest.mark.parametrize("shape", [(3,), (7, 3), (2, 5, 3)])
@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float64, np.complex128])
def test_cross_matrix_equals_the_stacked_construction(rng, shape, dtype):
    a = rng.integers(-3, 4, size=shape).astype(dtype)
    if a.dtype.kind in "fc":
        # negative and signed-zero components, so the diagonal's -0.0 is compared
        a = a * rng.normal(size=shape)
        a.reshape(-1)[::4] = -0.0
        if a.dtype.kind == "c":
            a = a + 1j * rng.normal(size=shape)
            a.reshape(-1)[1::5] = complex(-0.0, -0.0)
    want = stacked_cross_matrix(a)
    got = cross_matrix(a)
    assert got.dtype == want.dtype == dtype and got.shape == want.shape == shape + (3,)
    assert got.tobytes() == want.tobytes()


def test_cross_bit_identical_to_numpy(rng):
    a, b = rng.normal(size=(2, 200, 3))
    assert cross(a, b).tobytes() == np.cross(a, b).tobytes()
    assert cross(a[0], b[0]).tobytes() == np.cross(a[0], b[0]).tobytes()
    # broadcasting one vector against a stack
    assert cross(a[:, None], b[None, :5]).tobytes() == np.cross(a[:, None], b[None, :5]).tobytes()


def test_leray_axis():
    assert np.allclose(leray_projector([1, 0, 0]), np.diag([0.0, 1.0, 1.0]))


def test_leray_hand_value():
    # I - j j^T / |j|^2 at j = (1,1,0), evaluated by hand
    expected = np.array([[0.5, -0.5, 0.0], [-0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(leray_projector([1, 1, 0]), expected)


def test_leray_properties(rng):
    for _ in range(20):
        j = rng.normal(size=3)
        P = leray_projector(j)
        assert np.allclose(P, P.T)
        assert np.allclose(P @ P, P, atol=1e-14)
        assert np.allclose(P @ j, 0.0, atol=1e-13)
        w = rng.normal(size=3) + 1j * rng.normal(size=3)
        w -= j * (j @ w) / (j @ j)
        assert np.allclose(P @ w, w, atol=1e-13)


def test_leray_project_is_the_projector_applied(rng):
    # elementwise over a stack, to roundoff of the matrix form
    j = rng.normal(size=(4, 5, 3))
    w = rng.normal(size=(4, 5, 3)) + 1j * rng.normal(size=(4, 5, 3))
    want = np.matmul(leray_projector(j), w[..., None])[..., 0]
    assert np.allclose(leray_project(j, w), want, rtol=0, atol=1e-14)
    assert leray_project(j[1, 2], w[1, 2]).tobytes() == leray_project(j, w)[1, 2].tobytes()


def test_leray_rejects_zero():
    with pytest.raises(InvalidModeError):
        leray_projector([0, 0, 0])


def test_leray_equals_double_cross(rng):
    for _ in range(10):
        j = rng.normal(size=3)
        C = cross_matrix(j)
        assert np.allclose(leray_projector(j), -C @ C / (j @ j), atol=1e-14)


def test_rotation_hand_value():
    fr = rotation_frame([0, 1, 0])
    expected = np.array([[0, 1, 0], [0, 0, -1], [-1, 0, 0]], dtype=float)
    assert np.allclose(fr.R, expected)
    assert fr.special == "generic"


def test_rotation_special_cases():
    plus = rotation_frame([3, 0, 0])
    assert plus.special == "plus_n"
    assert np.array_equal(plus.R, np.eye(3))
    minus = rotation_frame([-2, 0, 0])
    assert minus.special == "minus_n"
    assert np.array_equal(minus.R, SIGNATURE)


def test_rotation_rejects_zero():
    with pytest.raises(InvalidModeError):
        rotation_frame([0, 0, 0])
    with pytest.raises(InvalidModeError):
        rotation_frame([1, 0, 0], n=[0, 0, 0])


@settings(max_examples=50, deadline=None)
@given(j=vec3, n=vec3)
def test_rotation_orthonormal(j, n):
    j, n = np.array(j), np.array(n)
    if np.linalg.norm(np.cross(j, n)) < 1e-6:
        return
    fr = rotation_frame(j, n)
    assert np.allclose(fr.R @ fr.R.T, np.eye(3), atol=1e-13)
    assert abs(np.linalg.det(fr.R) - 1.0) < 1e-13
    assert np.allclose(fr.R[0], j / np.linalg.norm(j), atol=1e-13)
    assert np.allclose(fr.R @ j, [np.linalg.norm(j), 0, 0], atol=1e-12)


def test_opposite_frames_differ_by_signature(modes2, frames2):
    # includes the axis-parallel special cases
    for pos in range(len(modes2)):
        Rm = frames2.R[modes2.neg_index[pos]]
        R = frames2.R[pos]
        assert np.allclose(Rm @ R.T, SIGNATURE, atol=1e-13)


def test_frames_send_wavevector_to_x_axis(modes2, frames2):
    # R_j j = (|j|, 0, 0) for every mode, special cases included
    sent = np.einsum("mab,mb->ma", frames2.R, modes2.wavevectors)
    assert np.allclose(sent[:, 0], frames2.norm, atol=1e-13)
    assert np.allclose(sent[:, 1:], 0.0, atol=1e-13)


def test_cross_matrix_equivariance(rng):
    # cross_matrix(R a) = R cross_matrix(a) R^T for rotations R
    for _ in range(20):
        R = rotation_frame(rng.normal(size=3), rng.normal(size=3)).R
        a = rng.normal(size=3)
        lhs = cross_matrix(R @ a)
        rhs = R @ cross_matrix(a) @ R.T
        assert np.allclose(lhs, rhs, atol=1e-13)


def test_parallel_fallback_other_references():
    # frames on the parallel line keep row1 = jhat and the opposite-mode
    # pairing for any reference, and reduce to identity/signature for +x
    for n in ([0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 3.0, 4.0]):
        n = np.array(n)
        plus = rotation_frame(2.0 * n, n=n)
        minus = rotation_frame(-0.5 * n, n=n)
        assert plus.special == "plus_n" and minus.special == "minus_n"
        assert np.allclose(plus.R[0], n / np.linalg.norm(n))
        assert np.allclose(plus.R @ plus.R.T, np.eye(3), atol=1e-14)
        assert abs(np.linalg.det(plus.R) - 1.0) < 1e-13
        assert np.allclose(minus.R @ plus.R.T, SIGNATURE, atol=1e-14)


def test_reduced_machinery_with_other_references(modes1):
    # to_reduced/from_reduced and the reduced energy stay exact for a
    # reference off the +x axis
    from euler3d import energy, energy_reduced, from_reduced, random_divfree_state, to_reduced

    for n in ([0.0, 1.0, 0.0], [0.3, -1.1, 0.55]):
        fr = FrameSet(modes1, np.array(n))
        s = random_divfree_state(modes1, seed=3, amplitude=1.0)
        red = to_reduced(s, fr)
        assert abs(energy_reduced(red) - energy(s)) <= 1e-13 * abs(energy(s))
        back = from_reduced(red, fr)
        assert np.max(np.abs(back.values - s.values)) <= 1e-13


def test_frameset_flags(modes2, frames2):
    for pos, a in enumerate(modes2.indices.tolist()):
        on_axis = a[1] == 0 and a[2] == 0
        if not on_axis:
            assert frames2.special[pos] == 0
        else:
            assert frames2.special[pos] == (1 if a[0] > 0 else -1)
    # norms match the frame definition
    wv = modes2.wavevectors
    assert np.allclose(frames2.norm, np.linalg.norm(wv, axis=1))
    assert np.allclose(frames2.norm2, np.linalg.norm(np.cross(wv, frames2.n), axis=1))


AXIS_REFERENCES = [(1.0, 0, 0), (-1.0, 0, 0), (0, 1.0, 0), (0, -1.0, 0), (0, 0, 1.0), (0, 0, -1.0)]
aniso3 = st.tuples(*[st.floats(min_value=0.1, max_value=3.0)] * 3)


def test_frameset_equals_per_mode_frames(modes_box2, frames_box2):
    # the batched construction against one rotation_frame call per mode
    tag = {"generic": 0, "plus_n": 1, "minus_n": -1}
    frames = [rotation_frame(j, frames_box2.n) for j in modes_box2.wavevectors]
    assert np.array_equal(frames_box2.R, np.array([fr.R for fr in frames]))
    assert np.array_equal(frames_box2.norm2, np.array([fr.norm2 for fr in frames]))
    assert np.array_equal(frames_box2.special, np.array([tag[fr.special] for fr in frames]))
    assert (frames_box2.special != 0).sum() == 4  # (+-1, 0, 0) and (+-2, 0, 0)


@settings(max_examples=30, deadline=None)
@given(aniso=aniso3, n=st.sampled_from(AXIS_REFERENCES))
def test_axis_reference_frames_any_box(aniso, n):
    modes = build_lattice(TruncationSpec(1), AnisotropyMatrix(*aniso))
    fr = FrameSet(modes, np.array(n))
    R, K = fr.R, modes.wavevectors
    assert np.allclose(np.einsum("mab,mcb->mac", R, R), np.eye(3), atol=1e-13)
    assert np.allclose(np.linalg.det(R), 1.0, atol=1e-13)
    sent = np.einsum("mab,mb->ma", R, K)
    assert np.allclose(sent[:, 0], fr.norm, rtol=1e-13, atol=0)
    assert np.max(np.abs(sent[:, 1:])) <= 1e-13 * np.max(fr.norm)
    # exactly the modes on the reference axis are flagged, with their sign
    axis = int(np.flatnonzero(n)[0])
    on_axis = ~np.delete(modes.indices, axis, axis=1).any(axis=1)
    assert np.array_equal(fr.special != 0, on_axis)
    assert np.array_equal(fr.special[on_axis], np.sign(modes.indices[on_axis, axis] * n[axis]))
