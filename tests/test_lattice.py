import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euler3d import (
    AnisotropyMatrix,
    InvalidModeError,
    OutOfLatticeError,
    TruncationSpec,
    build_lattice,
    in_lattice,
    wavevector,
)
from euler3d.lattice import ModeSet


def test_box_counts_n1(modes1):
    assert len(modes1) == 26  # 3^3 - 1
    assert modes1.half_size == 13


def test_wavevector_scaling():
    assert np.array_equal(wavevector((1, 0, 0), AnisotropyMatrix(2, 1, 1)), [2, 0, 0])
    assert np.array_equal(wavevector((0, 1, 0), AnisotropyMatrix()), [0, 1, 0])
    assert np.array_equal(wavevector((1, 1, 0), AnisotropyMatrix(1, 2, 3)), [1, 2, 0])
    assert np.array_equal(wavevector((-1, 0, 2), AnisotropyMatrix()), [-1, 0, 2])


def test_wavevector_rejects_zero():
    with pytest.raises(InvalidModeError):
        wavevector((0, 0, 0), AnisotropyMatrix())


def test_wavevector_is_odd(modes2):
    wv = modes2.wavevectors
    assert np.array_equal(wv[modes2.neg_index], -wv)


def test_in_lattice():
    assert in_lattice((1, 1, 1), TruncationSpec(1))
    assert not in_lattice((0, 0, 0), TruncationSpec(3))
    assert not in_lattice((2, 0, 0), TruncationSpec(1))


def test_anisotropy_validation():
    with pytest.raises(ValueError):
        AnisotropyMatrix(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        TruncationSpec(0)


def test_ordering_is_lexicographic(modes1):
    idx = [tuple(a) for a in modes1.indices.tolist()]
    assert idx == sorted(idx)
    assert idx[0] == (-1, -1, -1)


def test_half_lattice_pairing(modes2):
    can = np.arange(len(modes2)) >= modes2.half_size
    # exactly one of each pair, flagged by first nonzero component
    assert can.sum() == len(modes2) // 2
    assert not np.any(can & can[modes2.neg_index])
    for a, flag in zip(modes2.indices.tolist(), can):
        first = next(c for c in a if c != 0)
        assert flag == (first > 0)


@settings(max_examples=25, deadline=None)
@given(
    N=st.integers(min_value=1, max_value=3),
    nus=st.tuples(*[st.floats(min_value=0.25, max_value=4.0, allow_nan=False)] * 3),
)
def test_lattice_invariants(N, nus):
    modes = build_lattice(TruncationSpec(N), AnisotropyMatrix(*nus))
    assert len(modes) == (2 * N + 1) ** 3 - 1
    assert modes.half_size * 2 == len(modes)
    # closed under negation with consistent partner indices
    assert np.array_equal(modes.neg_index[modes.neg_index], np.arange(len(modes)))
    assert np.array_equal(modes.indices[modes.neg_index], -modes.indices)


def test_json_round_trip(modes1):
    text = modes1.to_json()
    back = ModeSet.from_json(text)
    assert back.N == modes1.N
    assert np.array_equal(back.indices, modes1.indices)
    assert back.to_json() == text


SPARSE = [(1, 0, 0), (-1, 0, 0), (0, 2, 1), (0, -2, -1), (1, 2, 1), (-1, -2, -1), (2, 0, 0), (-2, 0, 0)]


def test_pair_table(modes1, modes2):
    for modes in (modes1, modes2, ModeSet.from_indices(SPARSE, AnisotropyMatrix())):
        table = modes.pair_table()
        idx = [tuple(a) for a in modes.indices.tolist()]
        position = {a: i for i, a in enumerate(idx)}
        expect = [[position.get(tuple(x + y for x, y in zip(a, b)), -1) for b in idx] for a in idx]
        assert np.array_equal(table, expect)
        assert (table >= 0).any() and (table < 0).any()


@pytest.mark.parametrize("aniso", [(1.0, 1.0, 1.0), (1.0, 0.3, 1.0), (0.7, 1.3, 0.1)])
def test_pair_positions_equal_positions_of_sums(aniso):
    # offset arithmetic against the bounds-tested gather, on full boxes and
    # sparse sets, for every row and for row chunks
    box = AnisotropyMatrix(*aniso)
    sets = [build_lattice(TruncationSpec(N), box) for N in (1, 2, 3)]
    sets += [ModeSet.from_indices(SPARSE, box), ModeSet.from_indices([(1, 0, 0), (-1, 0, 0)], box)]
    for modes in sets:
        idx = modes.indices
        want = modes.positions(idx[:, None, :] + idx[None, :, :])
        got = modes.pair_positions()
        assert got.dtype == want.dtype and np.array_equal(got, want)
        for rows in (slice(0, 1), slice(len(modes) // 2, len(modes)), slice(3, 10)):
            assert np.array_equal(modes.pair_positions(rows), want[rows])


def test_pair_positions_of_index_batches_equal_the_table():
    # index arrays with a leading batch axis: each batch's rows against its own columns
    modes = build_lattice(TruncationSpec(2), AnisotropyMatrix(1.0, 0.3, 1.0))
    table = modes.pair_positions()
    rng = np.random.default_rng(4)
    rows, cols = rng.integers(len(modes), size=(5, 3)), rng.integers(len(modes), size=(5, 7))
    got = modes.pair_positions(rows, cols)
    assert got.shape == (5, 3, 7)
    assert np.array_equal(got, table[rows[:, :, None], cols[:, None, :]])
    assert np.array_equal(modes.pair_positions(slice(2, 6), slice(1, 4)), table[2:6, 1:4])


def three_index_positions(modes, a):
    """ModeSet.positions as one three-index read of the position grid: the oracle."""
    a = np.asarray(a)
    r = modes._reach
    inside = ((a >= -r) & (a <= r)).all(axis=-1)
    a = np.where(inside[..., None], a, 0).astype(np.int64) + r
    return np.where(inside, modes._grid[a[..., 0], a[..., 1], a[..., 2]], -1)


def test_position_grid_bounds(modes1):
    sparse = ModeSet.from_indices(SPARSE, AnisotropyMatrix())
    for modes in (modes1, sparse):
        reach = 2 * int(np.max(np.abs(modes.indices)))
        # the zero mode, a pair sum outside the box, a point just past the
        # grid, and one far outside it
        outside = ((0, 0, 0), (reach, 0, 0), (0, -reach - 1, 0), (10**6, 0, -(10**6)), (10**30, 0, 0))
        for a in outside:
            assert a not in modes
            with pytest.raises(OutOfLatticeError):
                modes.position_of(a)
        for pos, a in enumerate(modes.indices.tolist()):
            assert a in modes and modes.position_of(a) == pos
        # batched: elementwise over (..., 3), -1 for every point that is not a mode
        assert np.array_equal(modes.positions(outside[:4]), [-1] * 4)
        assert np.array_equal(modes.positions(modes.indices), np.arange(len(modes)))
        mixed = np.stack([modes.indices, np.zeros_like(modes.indices), 3 * reach * modes.indices], axis=1)
        want = np.stack([np.arange(len(modes)), *[np.full(len(modes), -1)] * 2], axis=1)
        assert np.array_equal(modes.positions(mixed), want)
        # the flat-offset take against the three-index read: in-grid, off-grid
        # and beyond-int64 batches, of shapes (n, 3) and (a, b, 3)
        rng = np.random.default_rng(reach)
        in_grid = rng.integers(-reach, reach + 1, size=(300, 3))
        off_grid = rng.integers(-3 * reach, 3 * reach + 1, size=(4, 50, 3))
        extremes = np.array([[np.iinfo(np.int64).min, 0, 0], [0, np.iinfo(np.int64).max, 1], [reach, reach, -reach]])
        huge = np.array([(10**30, 0, 0), (1, 0, 0), (0, -(10**19), 0), tuple(modes.indices[0])], dtype=object)
        for batch in (in_grid, off_grid, extremes, huge, huge.reshape(2, 2, 3)):
            got, want = modes.positions(batch), three_index_positions(modes, batch)
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
        # a point with a non-integer component is no mode, also next to one;
        # integral floats, -0.0 among them, read as their integers
        a = modes.indices[0]
        for point in ((a[0] + 0.5, a[1], a[2]), (a[0] + 0.5, a[1] + 0.2, a[2]), (a[0], a[1], a[2] - 1e-9),
                      (np.nan, a[1], a[2]), np.array([a[0] + 0.5, a[1], a[2]], dtype=object)):
            assert point not in modes and modes.positions(point) == -1
            with pytest.raises(OutOfLatticeError):
                modes.position_of(point)
        assert modes.position_of(tuple(float(c) for c in a)) == 0
        assert modes.position_of(np.array([-0.0 if c == 0 else c for c in a], dtype=float)) == 0
        assert modes.position_of(np.array(a, dtype=object)) == 0
        floats = modes.indices.astype(float)
        assert np.array_equal(modes.positions(floats), np.arange(len(modes)))
        assert np.array_equal(modes.positions(floats + 0.25), np.full(len(modes), -1))


def test_from_indices_validation():
    aniso = AnisotropyMatrix()
    with pytest.raises(ValueError):
        ModeSet.from_indices([(1, 0, 0)], aniso)  # not closed under negation
    with pytest.raises(ValueError):
        ModeSet(np.array([(1, 0, 0), (-1, 0, 0), (0, 1, 0)]), aniso, 1)
    with pytest.raises(InvalidModeError):
        ModeSet(np.array([(1, 0, 0), (0, 0, 0), (-1, 0, 0)]), aniso, 1)
    with pytest.raises(InvalidModeError):
        ModeSet.from_indices([(0, 0, 0)], aniso)
    pair = ModeSet.from_indices([(1, 0, 0), (-1, 0, 0)], aniso)
    assert len(pair) == 2 and pair.half_size == 1
