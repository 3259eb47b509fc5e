import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from euler3d import (
    AnisotropyMatrix,
    BlowUpError,
    FrameSet,
    ModeSet,
    TruncationSpec,
    VorticityState,
    build_lattice,
    from_reduced,
    integrate,
    random_divfree_state,
    rk4_step,
    to_reduced,
    vector_field_full,
    vector_field_reduced,
)
from euler3d import dynamics
from euler3d.dynamics import half_field_evaluator, integrate_reduced, write_diagnostics_csv
from euler3d.frames import cross, cross_matrix, leray_projector
from euler3d.observables import energy, grad_energy, grad_helicity, helicity
from euler3d.state import ReducedState
from euler3d.structures import (
    STRUCTURES,
    advection_block,
    assemble_global,
    projected_block,
    reduced_tables,
    simple_block,
)


def naive_field(state, modes, which):
    block = {"simple": simple_block, "direct": advection_block, "projected": projected_block}[which]
    W = state.full_values()
    conv = modes.pair_table()
    out = np.zeros((len(modes), 3), dtype=complex)
    for pj in range(len(modes)):
        for pk in range(len(modes)):
            w = W[conv[pj, pk]] if conv[pj, pk] >= 0 else np.zeros(3, complex)
            out[pj] += block(modes.wavevectors[pj], modes.wavevectors[pk], w) @ (
                W[modes.neg_index[pk]] / modes.norms[pk] ** 2
            )
    return out


@pytest.mark.parametrize("which", ["direct", "simple", "projected"])
def test_fast_field_matches_block_sum(modes1, df_state1, which):
    fast = vector_field_full(df_state1, modes1, which)
    slow = naive_field(df_state1, modes1, which)
    assert np.max(np.abs(fast - slow)) <= 1e-13 * max(1.0, np.max(np.abs(slow)))


def gather_order_field(W, modes, which):
    """The field by the earlier gather order, kept as the byte-level oracle:
    zero-row padding of the transposed products and 2-D fancy indexing."""
    K = modes.wavevectors
    rows = np.arange(len(K))
    conv = modes.pair_table()
    kdiff = conv[modes.neg_index]
    inv_norm2 = 1.0 / modes.norms**2

    def zero_padded(values):
        return np.concatenate([values, np.zeros_like(values[:1])])

    g = W[modes.neg_index] * inv_norm2[:, None]
    c2 = np.cross(K, g)
    Wsum = W
    if which == "projected":
        div = np.einsum("md,md->m", K, W) * inv_norm2
        Wsum = W - K * div[:, None]
    s1 = K @ np.cross(g, K).T
    field = zero_padded(s1.T)[kdiff, rows[:, None]] @ Wsum
    P = zero_padded(Wsum @ K.T)
    if which == "direct":
        field -= P[conv, rows] @ c2
    else:
        field += P[conv, rows[:, None]] @ c2
    return field


BOXES = [(1.0, 1.0, 1.0), (1.0, 0.3, 1.0), (0.7, 1.3, 0.1)]
AXES = [(1.0, 0, 0), (-1.0, 0, 0), (0, 1.0, 0), (0, -1.0, 0), (0, 0, 1.0), (0, 0, -1.0)]


def field_cases():
    """(modes, state) over N=1..3 and three boxes, a divergence-free and a
    general state each."""
    for N in (1, 2, 3):
        for box in BOXES:
            modes = build_lattice(TruncationSpec(N), AnisotropyMatrix(*box))
            rng = np.random.default_rng(N)
            raw = rng.normal(size=(modes.half_size, 3)) + 1j * rng.normal(size=(modes.half_size, 3))
            yield modes, random_divfree_state(modes, seed=5, amplitude=2.0)
            yield modes, VorticityState(modes, raw)


def assert_runs_agree(got, want, rel=1e-13):
    """Two ``integrate`` results within ``rel``: the final state, relative to
    its largest entry, and the energy, helicity and amp_max of each record;
    the record times exactly, and both runs' divergence at roundoff."""
    (final, recs), (want_final, want_recs) = got, want
    scale = np.max(np.abs(want_final.values))
    assert np.max(np.abs(final.values - want_final.values)) <= rel * scale
    assert len(recs) == len(want_recs)
    for r, w in zip(recs, want_recs):
        assert r.t == w.t
        for a, b in ((r.energy, w.energy), (r.helicity, w.helicity), (r.amp_max, w.amp_max)):
            assert abs(a - b) <= rel * abs(b)
        assert r.div_max <= rel * r.amp_max and w.div_max <= rel * w.amp_max


def test_integrate_equals_gather_order_oracle(modes2, monkeypatch):
    # criterion 07's lattice: the trajectory follows the oracle's to roundoff
    state = random_divfree_state(modes2, seed=4102, amplitude=2.0)
    got = integrate(state, 1e-3, 200, which="projected", observe_every=10)
    oracle = lambda V: gather_order_field(VorticityState(modes2, V).full_values(), modes2, "projected")[modes2.half_size :]
    monkeypatch.setattr(dynamics, "half_field_evaluator", lambda *args: oracle)
    assert_runs_agree(got, integrate(state, 1e-3, 200, which="projected", observe_every=10))


def sparse_mode_sets():
    """Two mode sets off the box: a +-closed random subset of the N=4 box,
    and the N=2 box with modes out to B=5 along the x axis only."""
    box4 = build_lattice(TruncationSpec(4), AnisotropyMatrix(1.0, 0.3, 1.0)).indices
    half = box4[len(box4) // 2 :]
    keep = half[np.random.default_rng(11).random(len(half)) < 0.4]
    yield ModeSet.from_indices(np.concatenate([keep, -keep]), AnisotropyMatrix(1.0, 0.3, 1.0))
    axis = [(s * n, 0, 0) for n in (3, 4, 5) for s in (1, -1)]
    box2 = build_lattice(TruncationSpec(2), AnisotropyMatrix(0.7, 1.3, 0.1)).indices
    yield ModeSet.from_indices(np.concatenate([box2, axis]), AnisotropyMatrix(0.7, 1.3, 0.1))


def fft_cases():
    """(modes, state) at N=3..5 on three boxes and on the sparse sets, a
    divergence-free and a general state each."""
    mode_sets = [build_lattice(TruncationSpec(N), AnisotropyMatrix(*box)) for N in (3, 4, 5) for box in BOXES]
    for modes in mode_sets + list(sparse_mode_sets()):
        rng = np.random.default_rng(len(modes))
        raw = rng.normal(size=(modes.half_size, 3)) + 1j * rng.normal(size=(modes.half_size, 3))
        yield modes, random_divfree_state(modes, seed=5, amplitude=2.0)
        yield modes, VorticityState(modes, raw)


@pytest.mark.parametrize("which", ["direct", "simple", "projected"])
def test_full_field_equals_gather_order_oracle(which):
    # the FFT engine against the gather over the pair table, at N=1..2
    check_field_against_gather_oracle(field_cases(), which)


def test_fft_field_matches_dense_engine():
    # the gather-order oracle is the dense engine's field (it matched it bit
    # for bit); here at N=3..5 on three boxes and on the sparse sets
    cases = list(fft_cases())
    for which in ("direct", "simple", "projected"):
        check_field_against_gather_oracle(cases, which)


def check_field_against_gather_oracle(cases, which):
    for modes, state in cases:
        W = state.full_values()
        op = dynamics.FieldOperator(modes)
        f, want = op.full_field(state.values, which), gather_order_field(W, modes, which)[modes.half_size :]
        scale = np.max(np.abs(want))
        assert np.max(np.abs(f - want)) <= 1e-13 * scale, (len(modes), which)
        # the canonical rows of the all-row field and of the evaluator, bit for bit
        assert vector_field_full(state, modes, which)[modes.half_positions].tobytes() == f.tobytes()
        assert half_field_evaluator(modes, which)(state.values).tobytes() == f.tobytes()
        if which == "projected":
            # energy and helicity are conserved by the field, to roundoff
            full = VorticityState(modes, f).full_values()
            for grad in (grad_energy(state), grad_helicity(state)):
                assert abs(np.sum(grad * full)) <= 1e-13 * np.sum(np.abs(grad) * np.abs(full))


def test_fft_evaluator_carries_nothing_between_calls(modes2, frames2):
    modes = build_lattice(TruncationSpec(3), AnisotropyMatrix())
    a = random_divfree_state(modes, seed=1, amplitude=2.0)
    b = random_divfree_state(modes, seed=2, amplitude=0.5)
    for which in ("direct", "simple", "projected"):
        ev = half_field_evaluator(modes, which)
        first = ev(a.values).tobytes()
        ev(b.values)
        assert ev(a.values).tobytes() == first
        assert half_field_evaluator(modes, which)(a.values).tobytes() == first
    # the shared spectrum is zero off the scattered modes after every
    # sequence of calls, in full coordinates and through the reduced lift
    for m, frames in ((modes, FrameSet(modes)), (modes2, frames2)):
        op = dynamics.FieldOperator(m)
        a, b = (random_divfree_state(m, seed=s, amplitude=x) for s, x in ((1, 2.0), (2, 0.5)))
        fields = [
            lambda s: op.full_field(s.values, "direct"),
            lambda s: op.full_field(s.values, "projected"),
            lambda s: op.reduced_field(to_reduced(s, frames).values, frames),
        ]
        # each field alone, then all mixed: direct writes the 7th component,
        # the others skip it
        sequences = [[(f, s) for s in (a, b, a)] for f in fields]
        sequences.append([(f, b) for f in fields[::-1] + fields])
        for sequence in sequences:
            for field, s in sequence:
                field(s)
            spectrum = op._buffers[0].reshape(-1).copy()
            spectrum[op.scatter] = 0.0
            assert not spectrum.any()


def allocating_full_field(op, V, which):
    """``FieldOperator.full_field`` in its allocating form, the engine's
    byte-level oracle: a fresh spectrum, a fresh array from every pass and a
    contiguous copy between passes, the products with temporaries, and the
    last cross product through ``frames.cross``."""
    L, Z = op.grid, op.modes.max_index + 1
    spectrum, products = np.zeros((7, L, Z, L), dtype=complex), np.empty((6, L, L, L))
    W = V[op.slot]
    np.negative(W.imag, out=W.imag, where=op.conj[:, None])
    rows, flat = dynamics._MAPPED[which], spectrum.reshape(-1)
    flat[op.scatter[rows]] = np.einsum("rdm,dm->rm", op.transfer[rows], W.T)
    if which != "projected":
        flat[op.scatter[:3]] = W.T
    n = 7 if which == "direct" else 6
    a = np.fft.ifft(spectrum[:n], axis=-1, norm="forward")
    a = np.fft.ifft(np.ascontiguousarray(a.transpose(0, 2, 3, 1)), axis=-1, norm="forward")
    phys = np.fft.irfft(np.ascontiguousarray(a.transpose(0, 2, 3, 1)), n=L, axis=-1, norm="forward")
    u, w = phys[:3], phys[3:6]
    for c in range(3):
        i, k = (c + 1) % 3, (c + 2) % 3
        np.multiply(u[i], w[k], out=products[c])
        products[c] -= u[k] * w[i]
    m = 3
    if which == "direct":
        np.multiply(u, phys[6], out=products[3:6])
        m = 6
    a = np.fft.rfft(products[:m], axis=-1, norm="forward")[..., :Z]
    a = np.fft.fft(np.ascontiguousarray(a.transpose(0, 3, 1, 2)), axis=-1, norm="forward")
    a = np.fft.fft(np.ascontiguousarray(a.transpose(0, 1, 3, 2)), axis=-1, norm="forward")
    Y = a.reshape(m, -1)[:, op.read]
    np.multiply(Y.imag, op.sign, out=Y.imag)
    field = np.multiply(cross(op.K, Y[:3].T), 1j, out=np.empty((Y.shape[1], 3), dtype=complex))
    if which == "direct":
        field += Y[3:].T
    return field


def allocating_reduced_field(op, vt, frames):
    """``reduced_field`` as it was, through ``allocating_full_field``: the real
    transverse frame rows, a strided view of R, cast inside each einsum."""
    P = frames.R[op.modes.half_size :, 1:]
    field = allocating_full_field(op, np.einsum("mab,ma->mb", P, vt), "simple")
    return np.einsum("jab,jb->ja", P, field)


def engine_cases():
    """(modes, state, frames) at N=1..4 and 8 on three boxes, a divergence-free
    and a general state, under two reference vectors."""
    for N in (1, 2, 3, 4, 8):
        for box in BOXES:
            modes = build_lattice(TruncationSpec(N), AnisotropyMatrix(*box))
            rng = np.random.default_rng(N)
            raw = rng.normal(size=(modes.half_size, 3)) + 1j * rng.normal(size=(modes.half_size, 3))
            frames = [FrameSet(modes, np.array(n)) for n in N_VECTORS]
            yield modes, random_divfree_state(modes, seed=5, amplitude=2.0), frames
            yield modes, VorticityState(modes, raw), frames


def engine_and_oracle(op, state, frames, which):
    """The engine's rows and the allocating oracle's, for one structure."""
    if which == "reduced":
        if state.divergence_residual() > 1e-10 * state.amp_max:
            return []  # reduced coordinates exist on divergence-free states only
        pairs = []
        for fr in frames:
            vt = to_reduced(state, fr).values
            pairs.append((op.reduced_field(vt, fr), allocating_reduced_field(op, vt, fr)))
        return pairs
    return [(op.full_field(state.values, which), allocating_full_field(op, state.values, which))]


@pytest.mark.parametrize("which", STRUCTURES)
def test_field_engine_equals_allocating_oracle(which):
    for modes, state, frames in engine_cases():
        op = dynamics.FieldOperator(modes)
        for _ in range(2):  # the first call makes the buffers, the second reuses them
            for got, want in engine_and_oracle(op, state, frames, which):
                assert got.tobytes() == want.tobytes(), (len(modes), which)


def test_shared_buffers_carry_nothing_across_structures_and_mode_sets():
    # one process, the operators of two ModeSets, all four structures in
    # turn: each call equals the allocating oracle bit for bit
    cases = []
    for N, box in ((2, BOXES[1]), (3, BOXES[2])):
        modes = build_lattice(TruncationSpec(N), AnisotropyMatrix(*box))
        frames = [FrameSet(modes, np.array(n)) for n in N_VECTORS]
        states = [random_divfree_state(modes, seed=s, amplitude=x) for s, x in ((1, 2.0), (2, 0.5))]
        cases.append((dynamics._operator(modes), states, frames))
    order = ["reduced", "direct", "simple", "projected", "direct", "reduced", "projected", "simple"]
    for step, which in enumerate(order * 2):
        op, states, frames = cases[step % 2]
        for got, want in engine_and_oracle(op, states[step // 2 % 2], frames, which):
            assert got.tobytes() == want.tobytes(), (step, which)


@pytest.mark.parametrize("which", STRUCTURES)
def test_second_field_call_allocates_no_grid(which):
    # at N=8 (L=25) a call's own arrays are O(M) rows: the traced peak of a
    # second call stays below the spectrum's bytes, one complex pass over
    # all seven fields, which is no more than either work buffer holds
    modes = build_lattice(TruncationSpec(8), AnisotropyMatrix(1.0, 0.3, 1.0))
    frames = FrameSet(modes)
    state = random_divfree_state(modes, seed=1, amplitude=1.0)
    values = to_reduced(state, frames).values if which == "reduced" else state.values
    field = half_field_evaluator(modes, which, frames)
    field(values)
    limit = modes._field_operator._buffers[0].nbytes
    tracemalloc.start()
    try:
        field(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit, (peak, limit)


@pytest.mark.parametrize("which", STRUCTURES)
def test_returned_rows_share_no_kept_buffer(modes_box2, frames_box2, which):
    state = random_divfree_state(modes_box2, seed=1, amplitude=1.0)
    values = to_reduced(state, frames_box2).values if which == "reduced" else state.values
    rows = half_field_evaluator(modes_box2, which, frames_box2)(values)
    spectrum, work, _ = modes_box2._field_operator._buffers  # every stage view is into one of these
    assert not any(np.shares_memory(rows, buf) for buf in (spectrum, *work))


def test_scattered_rows_equal_the_seven_row_form():
    # the engine maps only the rows it scatters; they keep the bits of the
    # earlier form, which mapped omega to all seven fields (u, the Leray
    # projection, -i K . omega) and then set rows 3-5 to omega wherever the
    # structure is not projected
    for modes, state in list(field_cases()) + list(fft_cases()):
        op = dynamics.FieldOperator(modes)
        up = modes.indices[:, 2] >= 0
        K, W = modes.wavevectors[up], state.full_values()[up]
        velocity = 1j * cross_matrix(K) / (modes.norms[up] ** 2)[:, None, None]
        transfer = np.concatenate([velocity, leray_projector(K), -1j * K[:, None, :]], axis=1)
        values = np.einsum("rdm,dm->rm", np.ascontiguousarray(transfer.transpose(1, 2, 0)), W.T)
        for which in ("direct", "simple", "projected"):
            want = values.copy()
            if which != "projected":
                want[3:6] = W.T
            n = 7 if which == "direct" else 6
            op.full_field(state.values, which)
            spectrum = op._buffers[0].reshape(7, -1)
            got = spectrum[:n, op.scatter[0] % spectrum.shape[1]]
            assert got.tobytes() == want[:n].tobytes(), (len(modes), which)


def test_scatter_reads_the_stored_rows():
    # the rows the engine gathers from the stored half-lattice are the full
    # values at the modes with a_z >= 0, bit for bit
    cases = list(field_cases()) + list(fft_cases())
    for modes, state in cases:
        op = dynamics._operator(modes)
        W = state.values[op.slot]
        np.negative(W.imag, out=W.imag, where=op.conj[:, None])
        assert W.tobytes() == state.full_values()[modes.indices[:, 2] >= 0].tobytes(), len(modes)


def test_all_row_fields_are_paired_bit_for_bit():
    for modes, state in field_cases():
        for which in ("direct", "simple", "projected"):
            f = vector_field_full(state, modes, which)
            assert f[modes.neg_index].tobytes() == np.conj(f).tobytes(), (len(modes), which)
        if state.divergence_residual() > 1e-10 * state.amp_max:
            continue  # reduced coordinates exist on divergence-free states only
        for n in AXES:
            frames = FrameSet(modes, np.array(n))
            f = vector_field_reduced(to_reduced(state, frames), modes, frames)
            assert f[modes.neg_index].tobytes() == (np.conj(f) * ReducedState.twist).tobytes(), (len(modes), n)


@pytest.mark.parametrize("N, grid", [(1, 4), (2, 8), (3, 10), (4, 15), (5, 16)])
def test_operator_grid_is_alias_free_and_tables_are_linear(N, grid):
    # the smallest 5-smooth size >= 3B + 1 (3N + 1 = 4, 7, 10, 13, 16)
    modes = build_lattice(TruncationSpec(N), AnisotropyMatrix(1.0, 0.3, 1.0))
    op = dynamics.FieldOperator(modes)
    assert op.grid == grid
    # no (H, M) gather table: the largest is the (7, 3) transfer maps of the
    # modes with m_z >= 0
    tables = [v for v in vars(op).values() if isinstance(v, np.ndarray)]
    assert max(v.size for v in tables) <= 21 * len(modes)


@pytest.mark.parametrize("which", ["direct", "simple", "projected", "reduced"])
def test_evaluator_equals_canonical_rows_of_full_field(which):
    for modes, state in field_cases():
        frames = None
        if which == "reduced":
            if state.divergence_residual() > 1e-10 * state.amp_max:
                continue  # reduced coordinates exist on divergence-free states only
            frames = FrameSet(modes)
            state = to_reduced(state, frames)
            full = vector_field_reduced(state, modes, frames)
        else:
            full = vector_field_full(state, modes, which)
        half = full[modes.half_positions]
        assert half_field_evaluator(modes, which, frames)(state.values).tobytes() == half.tobytes()


def coefficient_order_reduced_field(wt, frames, start=0):
    """Rows start..M-1 of the reduced field from the ReducedTables coefficients,
    kept as the oracle of the lifted field: a zero row concatenated to wt,
    2-D fancy indexing at j + k, and one coefficient matrix per (a, b)."""
    modes = frames.modes
    tabs = reduced_tables(frames)
    u = wt[modes.neg_index] * ReducedState.twist * (1.0 / modes.norms**2)[:, None]
    wq = np.concatenate([wt, np.zeros_like(wt[:1])])[modes.pair_table()[start:]]
    out = np.zeros((len(wq), 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            coef = tabs.Ty[start:, :, a, b] * wq[:, :, 0] + tabs.Tz[start:, :, a, b] * wq[:, :, 1]
            out[:, a] += coef @ u[:, b]
    return out


def assert_reduced_field_near_oracle(modes, state, axes, rel=1e-13):
    """The lifted reduced field within ``rel`` of the table oracle, relative to
    the oracle's largest entry, under each axis reference in ``axes``."""
    for n in axes:
        frames = FrameSet(modes, np.array(n))
        red = to_reduced(state, frames)
        want = coefficient_order_reduced_field(red.full_values(), frames)
        got = vector_field_reduced(red, modes, frames)
        assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want)), (len(modes), n)


def test_reduced_field_equals_coefficient_order_oracle():
    for modes, state in field_cases():
        if state.divergence_residual() > 1e-10 * state.amp_max:
            continue  # reduced coordinates exist on divergence-free states only
        assert_reduced_field_near_oracle(modes, state, AXES)


@pytest.mark.parametrize("N, boxes, axes", [(4, BOXES, AXES), (5, BOXES[1:2], AXES[2:4])], ids=["4", "5"])
def test_reduced_field_near_table_oracle_fft_engine(N, boxes, axes):
    # field_cases() ends at N=3
    for box in boxes:
        modes = build_lattice(TruncationSpec(N), AnisotropyMatrix(*box))
        assert_reduced_field_near_oracle(modes, random_divfree_state(modes, seed=5, amplitude=2.0), axes)


def test_reduced_trajectory_equals_coefficient_order_oracle(modes_box2, frames_box2, monkeypatch):
    state = random_divfree_state(modes_box2, seed=4101, amplitude=2.0)
    got = integrate(state, 1e-3, 200, which="reduced", frames=frames_box2, observe_every=10)
    oracle = lambda vt: coefficient_order_reduced_field(
        ReducedState(modes_box2, vt).full_values(), frames_box2, modes_box2.half_size
    )
    monkeypatch.setattr(dynamics, "half_field_evaluator", lambda *args: oracle)
    assert_runs_agree(got, integrate(state, 1e-3, 200, which="reduced", frames=frames_box2, observe_every=10))


@pytest.mark.parametrize("which", ["direct", "projected", "reduced"])
def test_evaluator_buffers_carry_nothing_between_calls(modes2, frames2, which):
    a = random_divfree_state(modes2, seed=1, amplitude=2.0)
    b = random_divfree_state(modes2, seed=2, amplitude=0.5)
    if which == "reduced":
        a, b = to_reduced(a, frames2), to_reduced(b, frames2)
    ev = half_field_evaluator(modes2, which, frames2)
    first = ev(a.values).tobytes()
    ev(b.values)
    assert ev(a.values).tobytes() == first


def test_reduced_evaluator_builds_no_tables():
    # the reduced field runs on the full-coordinate engine: no coefficient
    # table of its own, made or called
    modes = build_lattice(TruncationSpec(1), AnisotropyMatrix())
    frames = FrameSet(modes)
    tables = lambda: {k: v.nbytes for k, v in vars(modes._field_operator).items() if isinstance(v, np.ndarray)}
    half_field_evaluator(modes, "projected", frames)
    before = tables()
    ev = half_field_evaluator(modes, "reduced", frames)
    ev(to_reduced(random_divfree_state(modes, seed=1, amplitude=1.0), frames).values)
    assert frames._tilde_tables is None and tables() == before
    # nor does the reduced tensor: it is the simple one at the lifted state
    tensor = assemble_global(random_divfree_state(modes, seed=1, amplitude=1.0), modes, "reduced", frames)
    tensor.singular_values()
    tensor.apply(np.ones(tensor.dim, dtype=complex))
    tensor.matrix
    assert frames._tilde_tables is None


def test_evaluators_of_one_modeset_are_independent(modes2):
    a = random_divfree_state(modes2, seed=3, amplitude=1.0)
    b = random_divfree_state(modes2, seed=4, amplitude=1.0)
    alone_a = half_field_evaluator(modes2, "projected")(a.values).tobytes()
    alone_b = half_field_evaluator(modes2, "simple")(b.values).tobytes()
    alone_d = half_field_evaluator(modes2, "direct")(b.values).tobytes()
    ev_a, ev_b = half_field_evaluator(modes2, "projected"), half_field_evaluator(modes2, "simple")
    ev_d = half_field_evaluator(modes2, "direct")
    # two FrameSets on one ModeSet: each evaluator reads its own cached
    # tables, and matches the all-row field, which caches none
    fz, fx = FrameSet(modes2, np.array([0.0, 0.0, 1.0])), FrameSet(modes2, np.array([1.0, 0.0, 0.0]))
    ra, rb = to_reduced(a, fz), to_reduced(b, fx)
    alone_ra = vector_field_reduced(ra, modes2, fz)[modes2.half_positions].tobytes()
    alone_rb = vector_field_reduced(rb, modes2, fx)[modes2.half_positions].tobytes()
    ev_ra, ev_rb = half_field_evaluator(modes2, "reduced", fz), half_field_evaluator(modes2, "reduced", fx)
    for _ in range(2):
        assert ev_a(a.values).tobytes() == alone_a
        assert ev_b(b.values).tobytes() == alone_b
        assert ev_d(b.values).tobytes() == alone_d
        assert ev_ra(ra.values).tobytes() == alone_ra
        assert ev_rb(rb.values).tobytes() == alone_rb


@pytest.mark.parametrize("box, N", [((1.0, 0.3, 1.0), 2), ((1.0, 1.0, 1.0), 1)])
def test_frames_of_another_modeset_are_refused(modes2, frames2, box, N):
    # same N on another box once gave wrong answers silently; another N, a
    # bare broadcast error
    other = FrameSet(build_lattice(TruncationSpec(N), AnisotropyMatrix(*box)))
    state = random_divfree_state(modes2, seed=1, amplitude=1.0)
    red = to_reduced(state, frames2)
    calls = [
        lambda: to_reduced(state, other),
        lambda: from_reduced(red, other),
        lambda: half_field_evaluator(modes2, "reduced", other),
        lambda: vector_field_reduced(red, modes2, other),
        lambda: assemble_global(state, modes2, "reduced", other),
        lambda: integrate(state, 1e-3, 5, which="reduced", frames=other),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="frames and modes disagree"):
            call()


def test_single_pair_state_is_stationary(modes1):
    s = VorticityState(modes1).with_mode((1, 0, 0), [0.0, 0.3, 0.7j])
    for which in ("direct", "simple", "projected"):
        assert np.max(np.abs(vector_field_full(s, modes1, which))) <= 1e-15


def test_direct_equals_simple_on_subspace(modes2, df_state2):
    fd = vector_field_full(df_state2, modes2, "direct")
    fs = vector_field_full(df_state2, modes2, "simple")
    assert np.max(np.abs(fd - fs)) <= 1e-13 * max(1.0, np.max(np.abs(fs)))


def test_field_preserves_divergence(modes2, df_state2):
    f = vector_field_full(df_state2, modes2, "simple")
    assert np.max(np.abs(np.einsum("md,md->m", modes2.wavevectors, f))) <= 1e-13


def test_field_reality(modes2, df_state2):
    f = vector_field_full(df_state2, modes2, "projected")
    assert np.max(np.abs(f[modes2.neg_index] - np.conj(f))) <= 1e-14 * max(1.0, np.max(np.abs(f)))


@settings(max_examples=20, deadline=None)
@given(seed=hst.integers(min_value=0, max_value=2**31), which=hst.sampled_from(["direct", "simple", "projected"]))
def test_field_reality_any_state(modes1, seed, which):
    # the pairing holds for arbitrary coefficients, divergence-free or not
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(modes1.half_size, 3)) + 1j * rng.normal(size=(modes1.half_size, 3))
    s = VorticityState(modes1, raw)
    f = vector_field_full(s, modes1, which)
    assert np.max(np.abs(f[modes1.neg_index] - np.conj(f))) <= 1e-13 * max(1.0, np.max(np.abs(f)))


def test_reduced_field_commutes_with_lift(modes2, frames2, df_state2):
    red = to_reduced(df_state2, frames2)
    f_red = vector_field_reduced(red, modes2, frames2)
    f_full = vector_field_full(df_state2, modes2, "simple")
    checked = np.einsum("mab,mb->ma", frames2.R, f_full)
    scale = max(1.0, np.max(np.abs(f_full)))
    assert np.max(np.abs(checked[:, 0])) <= 1e-11 * scale
    assert np.max(np.abs(f_red - checked[:, 1:])) <= 1e-11 * scale


@settings(max_examples=25, deadline=None)
@given(
    aniso=hst.tuples(*[hst.floats(min_value=0.1, max_value=3.0)] * 3),
    n=hst.sampled_from(AXES),
)
def test_reduced_field_commutes_with_lift_any_box_and_axis(aniso, n):
    modes = build_lattice(TruncationSpec(1), AnisotropyMatrix(*aniso))
    frames = FrameSet(modes, np.array(n))
    state = random_divfree_state(modes, seed=11, amplitude=1.0)
    f_red = vector_field_reduced(to_reduced(state, frames), modes, frames)
    f_full = vector_field_full(state, modes, "simple")
    checked = np.einsum("mab,mb->ma", frames.R, f_full)
    scale = max(1.0, np.max(np.abs(f_full)))
    assert np.max(np.abs(checked[:, 0])) <= 1e-11 * scale
    assert np.max(np.abs(f_red - checked[:, 1:])) <= 1e-11 * scale


def test_reduced_field_reality(modes2, frames2, df_state2):
    f = vector_field_reduced(to_reduced(df_state2, frames2), modes2, frames2)
    twisted = np.conj(f) * np.array([-1.0, 1.0])
    assert np.max(np.abs(f[modes2.neg_index] - twisted)) <= 1e-13 * max(1.0, np.max(np.abs(f)))


def test_reduced_zero_and_shear(modes1, frames1):
    from euler3d.state import ReducedState

    zero = ReducedState(modes1)
    assert not vector_field_reduced(zero, modes1, frames1).any()
    shear = VorticityState(modes1).with_mode((1, 0, 0), [0.0, 0.0, 1.0])
    f = vector_field_reduced(to_reduced(shear, frames1), modes1, frames1)
    assert np.max(np.abs(f)) <= 1e-15


def test_rk4_fixed_point(modes1, frames1):
    s = VorticityState(modes1).with_mode((1, 0, 0), [0.0, 0.0, 1.0])
    ev = half_field_evaluator(modes1, "projected", frames1)
    stepped = rk4_step(s, 1e-2, ev)
    assert np.max(np.abs(stepped.values - s.values)) <= 1e-16


def test_rk4_rejects_zero_dt(modes1, df_state1):
    ev = half_field_evaluator(modes1, "simple")
    with pytest.raises(ValueError):
        rk4_step(df_state1, 0.0, ev)


def test_rk4_reversal_scaling(modes1, df_state1):
    # forward dt then backward -dt returns within the O(dt^5) local error;
    # the odd-power terms cancel in the round trip, so the measured decay is
    # one order better (ratio ~2^6 per halving)
    ev = half_field_evaluator(modes1, "projected")

    def reversal_error(dt):
        fwd = rk4_step(df_state1, dt, ev)
        back = rk4_step(fwd, -dt, ev)
        return np.max(np.abs(back.values - df_state1.values))

    e1, e2 = reversal_error(2e-2), reversal_error(1e-2)
    assert e1 <= 32.0 * (2e-2) ** 5  # inside the fifth-order envelope
    assert e1 / e2 == pytest.approx(64.0, rel=0.35)


def test_rk4_single_step_order(modes1, df_state1):
    # one dt step vs one dt/2 step, each against a fine reference: ~2^5
    ev = half_field_evaluator(modes1, "projected")

    def one_step_error(dt):
        coarse = rk4_step(df_state1, dt, ev)
        fine = df_state1
        for _ in range(100):
            fine = rk4_step(fine, dt / 100.0, ev)
        return np.max(np.abs(coarse.values - fine.values))

    e1, e2 = one_step_error(2e-2), one_step_error(1e-2)
    assert e1 / e2 == pytest.approx(32.0, rel=0.35)


@pytest.mark.parametrize("seed", range(6))
def test_rk4_local_error_order_n2(modes2, seed):
    # one step of dt and of dt/2, each against 16 substeps: the local error
    # is O(dt^5), so halving dt divides it by ~2^5
    s = random_divfree_state(modes2, seed=seed, amplitude=2.0)
    ev = half_field_evaluator(modes2, "projected")

    def one_step_error(dt):
        coarse = rk4_step(s, dt, ev)
        fine = s
        for _ in range(16):
            fine = rk4_step(fine, dt / 16.0, ev)
        return np.max(np.abs(coarse.values - fine.values))

    assert one_step_error(1e-2) / one_step_error(5e-3) == pytest.approx(32.0, rel=0.35)


def state_stage_rk4_step(state, dt, evaluator):
    """The earlier RK4 step, kept as the byte-level oracle of ``rk4_step``:
    each stage wrapped in a state of the input's type, and ``evaluator``
    called on states."""
    lift = lambda values: type(state)(state.modes, values)
    y0 = state.values
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = evaluator(state)
        k2 = evaluator(lift(y0 + 0.5 * dt * k1))
        k3 = evaluator(lift(y0 + 0.5 * dt * k2))
        k4 = evaluator(lift(y0 + dt * k3))
        y1 = y0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(y1).all():
        raise BlowUpError(0, "non-finite values in integration stage")
    return lift(y1)


def state_stage_integrate(state, dt, steps, which, frames, observe_every):
    """``integrate`` by the earlier loop, kept as its byte-level oracle:
    state-stage steps, and a full state rebuilt for each record and for each
    step's snapshot.  Returns (final state, records, [(step, t, snapshot
    bytes)]), or on blow-up (failing step, last good state, t, records)."""
    if which == "reduced":
        current, as_full = to_reduced(state, frames), lambda s: from_reduced(s, frames)
    else:
        current, as_full = state, lambda s: s
    ev = half_field_evaluator(state.modes, which, frames)
    records, seen = [dynamics._diagnostics(as_full(current), 0.0)], []
    for i in range(steps):
        prev = current
        try:
            current = state_stage_rk4_step(current, dt, lambda s: ev(s.values))
            if (i + 1) % observe_every == 0 or i == steps - 1:
                records.append(dynamics._diagnostics(as_full(current), (i + 1) * dt))
        except BlowUpError:
            return i, as_full(prev), i * dt, records
        seen.append((i + 1, (i + 1) * dt, as_full(current).values.tobytes()))
    return as_full(current), records, seen


N_VECTORS = [(1.0, 0.0, 0.0), (0.3, -0.2, 0.9)]


def stepping_cases():
    """(modes, frames, state) at N=1..3 on three boxes: a divergence-free
    state under two reference vectors."""
    for N in (1, 2, 3):
        for box in BOXES:
            modes = build_lattice(TruncationSpec(N), AnisotropyMatrix(*box))
            state = random_divfree_state(modes, seed=N, amplitude=2.0)
            for n in N_VECTORS:
                yield modes, FrameSet(modes, np.array(n)), state


@pytest.mark.parametrize("which", STRUCTURES)
def test_rk4_step_equals_the_state_stage_oracle(which):
    for modes, frames, state in stepping_cases():
        if which == "reduced":
            state = to_reduced(state, frames)
        ev = half_field_evaluator(modes, which, frames)
        for dt in (1e-3, -2e-2):
            got, want = rk4_step(state, dt, ev), state_stage_rk4_step(state, dt, lambda s: ev(s.values))
            assert type(got) is type(want) and got.values.tobytes() == want.values.tobytes(), (len(modes), dt)
            assert not got.values.flags.writeable


@pytest.mark.parametrize("which", STRUCTURES)
def test_integrate_equals_the_state_stage_oracle(which):
    for modes, frames, state in stepping_cases():
        seen = []
        on_step = lambda step, t, s: seen.append((step, t, s.values.tobytes()))
        final, records = integrate(state, 1e-3, 7, which=which, frames=frames, observe_every=3, on_step=on_step)
        want_final, want_records, want_seen = state_stage_integrate(state, 1e-3, 7, which, frames, 3)
        assert final.values.tobytes() == want_final.values.tobytes(), len(modes)
        assert records == want_records and seen == want_seen


@pytest.mark.parametrize("which", STRUCTURES)
def test_blow_up_equals_the_state_stage_oracle(modes1, frames1, which):
    # the same failing step, time, records and last good state
    state = random_divfree_state(modes1, seed=1, amplitude=100.0)
    with pytest.raises(BlowUpError) as info:
        integrate(state, 10.0, 50, which=which, frames=frames1)
    step, last, t, records = state_stage_integrate(state, 10.0, 50, which, frames1, 1)
    err = info.value
    assert err.step == step > 0 and err.t == t and err.records == records
    assert err.last_state.values.tobytes() == last.values.tobytes()


def criterion_07_drifts(modes, T):
    """Criterion 07's two integrations, stopped at T: {dt: (|dE|/E, |dh|)}
    from its seed-42 state at dt 1e-3 and 5e-4 (|dh| over max(1, |h0|))."""
    s0 = random_divfree_state(modes, seed=42, amplitude=2.0)
    E0, h0 = energy(s0), helicity(s0)
    drift = {}
    for dt in (1e-3, 5e-4):
        steps = round(T / dt)
        _, recs = integrate(s0, dt, steps, which="projected", observe_every=steps // 10)
        drift[dt] = (abs(recs[-1].energy - E0) / abs(E0), abs(recs[-1].helicity - h0) / max(1.0, abs(h0)))
    return drift


def test_helicity_drift_halving_at_t2(modes2):
    # criterion 07's state and step sizes, read at T=2, where roundoff has
    # not yet reached the drift: fourth order gives ~16 per halving
    drift = criterion_07_drifts(modes2, 2.0)
    assert 8.0 <= drift[1e-3][1] / drift[5e-4][1] <= 32.0


def test_integrate_records_and_divergence(modes1, df_state1):
    final, recs = integrate(df_state1, 1e-3, 50, which="projected", observe_every=10)
    assert len(recs) == 6  # initial + 5 observations
    assert recs[0].t == 0.0 and recs[-1].t == pytest.approx(0.05)
    assert all(r.div_max <= 1e-10 * r.amp_max for r in recs)
    drift = abs(recs[-1].energy - recs[0].energy) / recs[0].energy
    assert drift <= 1e-10


def test_integrate_reduced_structure(modes1, frames1, df_state1):
    final, recs = integrate(df_state1, 1e-3, 20, which="reduced", frames=frames1, observe_every=5)
    ref, _ = integrate(df_state1, 1e-3, 20, which="simple", observe_every=5)
    assert np.max(np.abs(final.values - ref.values)) <= 1e-10


def test_full_vs_reduced_trajectories(modes1, frames1, df_state1):
    red0 = to_reduced(df_state1, frames1)
    fin_full, _ = integrate(df_state1, 1e-3, 100, which="simple", observe_every=100)
    fin_red, _ = integrate_reduced(red0, 1e-3, 100, frames1)
    diff = np.max(np.abs(to_reduced(fin_full, frames1).values - fin_red.values))
    assert diff <= 1e-11 * max(1.0, fin_red.amp_max)


def test_reduced_integration_follows_projected_at_n4():
    # criterion 06's comparison and bound at N=4
    modes = build_lattice(TruncationSpec(4), AnisotropyMatrix(1.0, 0.3, 1.0))
    frames = FrameSet(modes)
    s0 = random_divfree_state(modes, seed=6, amplitude=1.0)
    fin_full, _ = integrate(s0, 1e-3, 1000, which="projected", frames=frames, observe_every=1000)
    fin_red, _ = integrate_reduced(to_reduced(s0, frames), 1e-3, 1000, frames)
    diff = np.max(np.abs(to_reduced(fin_full, frames).values - fin_red.values))
    assert diff <= 1e-8 * fin_red.amp_max


def test_integrate_reduced_is_the_reduced_step_loop(modes1, frames1, df_state1):
    final, recs = integrate(df_state1, 1e-3, 20, which="reduced", frames=frames1, observe_every=20)
    fin_red, red_recs = integrate_reduced(to_reduced(df_state1, frames1), 1e-3, 20, frames1)
    assert from_reduced(fin_red, frames1).values.tobytes() == final.values.tobytes()
    assert red_recs == recs
    wild = to_reduced(random_divfree_state(modes1, seed=1, amplitude=100.0), frames1)
    with pytest.raises(BlowUpError) as info:
        integrate_reduced(wild, 10.0, 50, frames1)
    assert np.all(np.isfinite(info.value.last_state.values.view(float)))


@pytest.mark.parametrize("N", [1, 2, 3])
def test_evaluator_rows_are_c_ordered(N):
    modes = build_lattice(TruncationSpec(N), AnisotropyMatrix(1.0, 0.3, 1.0))
    state = random_divfree_state(modes, seed=N, amplitude=1.0)
    for which in ("direct", "simple", "projected"):
        assert half_field_evaluator(modes, which)(state.values).flags.c_contiguous, which
        assert vector_field_full(state, modes, which).flags.c_contiguous, which
    assert half_field_evaluator(modes, "reduced")(to_reduced(state, FrameSet(modes)).values).flags.c_contiguous


def test_integration_runs_at_n11():
    # from N=11 on a stage sum of Fortran-ordered rows came out
    # Fortran-ordered, and the blow-up test's float view refused it
    modes = build_lattice(TruncationSpec(11))
    state = random_divfree_state(modes, seed=3, amplitude=1.0)
    for which in ("direct", "simple", "projected"):
        step = rk4_step(state, 1e-3, half_field_evaluator(modes, which))
        assert step.values.flags.c_contiguous and np.isfinite(step.values).all()
        final, records = integrate(state, 1e-3, 1, which=which)
        assert np.array_equal(final.values, step.values) and len(records) == 2


def test_blow_up_reports_step(modes1):
    s = random_divfree_state(modes1, seed=1, amplitude=100.0)
    with pytest.raises(BlowUpError) as info:
        integrate(s, 10.0, 50, which="simple")
    assert info.value.step >= 0
    assert hasattr(info.value, "last_state") and hasattr(info.value, "records")
    assert np.all(np.isfinite(info.value.last_state.values.view(float)))


def test_blow_up_on_overflowing_diagnostics(modes1, df_state1, monkeypatch):
    # a finite state whose quadratic diagnostics overflow is a blow-up
    monkeypatch.setattr(dynamics, "half_field_evaluator", lambda *args: lambda V: np.full_like(V, 1e200))
    with pytest.raises(BlowUpError) as info:
        integrate(df_state1, 1e-3, 5, which="simple")
    assert info.value.step == 0 and len(info.value.records) == 1
    assert info.value.last_state is df_state1


def test_integrate_propagates_other_errors(modes1, df_state1, monkeypatch):
    def evaluator(values):
        raise ValueError("programming error")

    monkeypatch.setattr(dynamics, "half_field_evaluator", lambda *args: evaluator)
    with pytest.raises(ValueError, match="programming error"):
        integrate(df_state1, 1e-3, 5, which="simple")


def test_diagnostics_csv_round_trip(tmp_path, modes1, df_state1):
    _, recs = integrate(df_state1, 1e-3, 10, which="projected", observe_every=5)
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(recs, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,E,h,div_max,amp_max"
    values = [float(x) for x in lines[1].split(",")]
    assert values[0] == recs[0].t and values[1] == recs[0].energy

