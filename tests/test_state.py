import json

import io
import json
import tracemalloc

import numpy as np
import pytest

from euler3d import (
    AnisotropyMatrix,
    FrameSet,
    NotDivergenceFreeError,
    OutOfLatticeError,
    TruncationSpec,
    VorticityState,
    build_lattice,
    from_reduced,
    random_divfree_state,
    to_reduced,
)
from euler3d import state as state_mod
from euler3d.state import DiagnosticsRecord, ReducedState, snapshot_json, state_from_snapshot, write_snapshot


def test_set_mode_conjugation(modes1):
    s = VorticityState(modes1)
    s = s.with_mode((1, 0, 0), [0, 1, -1j])
    assert np.array_equal(s.value_at((1, 0, 0)), [0, 1, -1j])
    assert np.array_equal(s.value_at((-1, 0, 0)), [0, 1, 1j])


def test_set_at_noncanonical_stores_conjugate(modes1):
    s = VorticityState(modes1)
    s = s.with_mode((-1, 0, 0), [0, 1, 1j])
    assert np.array_equal(s.value_at((1, 0, 0)), [0, 1, -1j])


def test_reduced_set_at_noncanonical_stores_twisted_conjugate(modes1):
    from euler3d.state import ReducedState

    red = ReducedState(modes1).with_mode((-1, 0, 0), [1, 1j])
    assert type(red) is ReducedState
    assert np.array_equal(red.value_at((1, 0, 0)), [-1, -1j])
    assert np.array_equal(red.value_at((-1, 0, 0)), [1, 1j])


def test_set_mode_rejects_zero_and_outside(modes1):
    s = VorticityState(modes1)
    with pytest.raises(OutOfLatticeError):
        s.with_mode((0, 0, 0), [1, 0, 0])
    with pytest.raises(OutOfLatticeError):
        s.with_mode((2, 0, 0), [1, 0, 0])


def test_states_are_value_semantic(modes1):
    s = VorticityState(modes1)
    s2 = s.with_mode((1, 0, 0), [1, 0, 0])
    assert s.amp_max == 0.0 and s2.amp_max == 1.0
    with pytest.raises(ValueError):
        s2.values[0] = 99.0  # storage is read-only


def test_amp_max_is_taken_once(modes2, frames2):
    # the values are read-only, so the first read is kept and a second
    # returns the same float object; a recomputation would make a new one
    s = random_divfree_state(modes2, seed=5, amplitude=2.0)
    for state in (s, to_reduced(s, frames2)):
        first = state.amp_max
        assert first == float(np.max(np.abs(state.values))) > 0.0
        assert state.amp_max is first and vars(state)["amp_max"] is first


def test_random_divfree(modes2):
    s = random_divfree_state(modes2, seed=5, amplitude=2.0)
    assert s.divergence_residual() <= 1e-14 * s.amp_max
    again = random_divfree_state(modes2, seed=5, amplitude=2.0)
    assert np.array_equal(s.values, again.values)
    other = random_divfree_state(modes2, seed=6, amplitude=2.0)
    assert not np.array_equal(s.values, other.values)


def test_random_divfree_rejects_bad_amplitude(modes1):
    with pytest.raises(ValueError):
        random_divfree_state(modes1, seed=0, amplitude=0.0)


def test_reality_is_structural(modes1, df_state1):
    W = df_state1.full_values()
    assert np.allclose(W[modes1.neg_index], np.conj(W))


def test_to_reduced_identity_frame(modes1, frames1):
    s = VorticityState(modes1).with_mode((1, 0, 0), [0, 1, -1j])
    red = to_reduced(s, frames1)
    assert np.allclose(red.value_at((1, 0, 0)), [1, -1j])


def test_to_reduced_signature_frame(modes1, frames1):
    # at j = -e_x the frame is diag(-1,-1,1): (0,1,i) -> checked (0,-1,i)
    s = VorticityState(modes1).with_mode((-1, 0, 0), [0, 1, 1j])
    red = to_reduced(s, frames1)
    assert np.allclose(red.value_at((-1, 0, 0)), [-1, 1j])


def test_to_reduced_rejects_divergent(modes1, frames1):
    s = VorticityState(modes1).with_mode((1, 0, 0), [0.1, 0, 0])
    with pytest.raises(NotDivergenceFreeError):
        to_reduced(s, frames1)


def test_reduced_round_trip(modes2, frames2, df_state2):
    red = to_reduced(df_state2, frames2)
    back = from_reduced(red, frames2)
    assert np.max(np.abs(back.values - df_state2.values)) <= 1e-13 * df_state2.amp_max
    # from_reduced output is exactly divergence-free up to rounding
    assert back.divergence_residual() <= 1e-14 * back.amp_max
    red2 = to_reduced(back, frames2)
    assert np.max(np.abs(red2.values - red.values)) <= 1e-13 * df_state2.amp_max


def test_reduced_reality(modes2, frames2, df_state2):
    wt = to_reduced(df_state2, frames2).full_values()
    twisted = np.conj(wt) * np.array([-1.0, 1.0])
    assert np.allclose(wt[modes2.neg_index], twisted, atol=1e-14)


def signed_zero_rows(values):
    """A copy of ``values`` with zero, -0.0 and -0.0-0.0j entries spread over it."""
    v = values.copy()
    v[::3] = 0
    v[1::5] = -0.0
    v[2::7] = complex(-0.0, -0.0)
    return v


def test_lifts_equal_the_three_row_form():
    # the lifts read the frames' cached complex transverse rows; they keep
    # the bits of the form that gathered R at the canonical modes on every
    # call and cast it, through all three rows, signed zeros included
    for N in (1, 2, 3):
        for box in [(1.0, 1.0, 1.0), (1.0, 0.3, 1.0), (0.7, 1.3, 0.1)]:
            modes = build_lattice(TruncationSpec(N), AnisotropyMatrix(*box))
            state = random_divfree_state(modes, seed=N, amplitude=2.0)
            for n in [(1.0, 0, 0), (0, -1.0, 0), (0.3, -0.2, 0.9)]:
                frames = FrameSet(modes, np.array(n))
                R = frames.R[modes.half_positions]
                for values in (state.values, signed_zero_rows(state.values)):
                    want = np.einsum("hab,hb->ha", R, values)[:, 1:]
                    got = to_reduced(VorticityState(modes, values), frames).values
                    assert got.tobytes() == np.ascontiguousarray(want).tobytes(), (N, box, n)
                red = to_reduced(state, frames)
                for values in (red.values, signed_zero_rows(red.values)):
                    checked = np.zeros((modes.half_size, 3), dtype=complex)
                    checked[:, 1:] = values
                    want = np.einsum("hab,ha->hb", R, checked)
                    got = from_reduced(ReducedState(modes, values), frames).values
                    assert got.tobytes() == want.tobytes(), (N, box, n)


def test_frames_cache_complex_transverse_rows(modes_box2):
    # made on the first lift, once, read-only; a run that never lifts holds none
    frames = FrameSet(modes_box2)
    assert "transverse" not in vars(frames)
    P = frames.transverse
    assert P is frames.transverse
    assert P.dtype == complex and P.flags.c_contiguous and not P.flags.writeable
    assert np.array_equal(P, frames.R[modes_box2.half_positions, 1:])


def gathered_full_values(state):
    """The full values by a gather of the stored row of each position and a
    select of its opposite where the position is not canonical."""
    modes = state.modes
    H, pos = modes.half_size, np.arange(len(state.modes))
    canonical = pos >= H
    full = state.values[np.where(canonical, pos - H, H - 1 - pos)]
    return np.where(canonical[:, None], full, state._opposite(full))


SPECIAL_VALUES = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex(np.inf, -0.0),
                  complex(-np.inf, 0.0), complex(0.0, np.inf), complex(np.nan, 1.0), complex(1.0, np.nan)]


def test_full_values_equal_the_gather_and_select_form():
    # reversal keeps every bit of the gather: signed zeros, infinities and
    # NaNs, under the plain conjugate and the reduced twist
    for N in (1, 2, 3):
        modes = build_lattice(TruncationSpec(N), AnisotropyMatrix(1.0, 0.3, 1.0))
        values = signed_zero_rows(random_divfree_state(modes, seed=N, amplitude=2.0).values)
        values.reshape(-1)[: len(SPECIAL_VALUES)] = SPECIAL_VALUES
        for state in (VorticityState(modes, values), ReducedState(modes, values[:, 1:])):
            with np.errstate(invalid="ignore"):  # the twist turns inf + 0j into inf + nanj
                got, want = state.full_values(), gathered_full_values(state)
            assert got.tobytes() == want.tobytes(), (N, type(state).__name__)


#: traced bytes allowed beyond the arrays a full_values call must hold
FULL_VALUES_SLACK_BYTES = 4096


def test_full_values_allocates_its_result_and_the_partner_rows():
    # the result and one (H, c) array of partner rows; the gather and
    # select form traces about three results
    modes = build_lattice(TruncationSpec(8))
    values = random_divfree_state(modes, seed=1, amplitude=1.0).values
    for state in (VorticityState(modes, values), ReducedState(modes, values[:, 1:])):
        state.full_values()
        tracemalloc.start()
        try:
            full = state.full_values()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= full.nbytes + state.values.nbytes + FULL_VALUES_SLACK_BYTES, (type(state).__name__, peak)


def test_from_reduced_example(modes1, frames1):
    from euler3d.state import ReducedState

    red = ReducedState(modes1)
    vals = red.values.copy()
    vals[modes1.position_of((1, 0, 0)) - modes1.half_size] = [1, -1j]
    red = ReducedState(modes1, vals)
    full = from_reduced(red, frames1)
    assert np.allclose(full.value_at((1, 0, 0)), [0, 1, -1j])


def test_divergence_residual_examples(modes1):
    zero = VorticityState(modes1)
    assert zero.divergence_residual() == 0.0
    j = np.array([1.0, 1.0, 0.0])
    s = zero.with_mode((1, 1, 0), j)  # omega = j at one mode
    assert np.isclose(s.divergence_residual(), j @ j)


def one_dict_snapshot(state, t):
    """The snapshot text as one ``json.dumps`` of a dict holding every mode:
    the form the chunked writer must reproduce byte for byte."""
    modes = state.modes
    entries = [
        {
            "a": [int(c) for c in modes.indices[pos]],
            "re": [float(x) for x in state.values[slot].real],
            "im": [float(x) for x in state.values[slot].imag],
        }
        for slot, pos in enumerate(modes.half_positions)
    ]
    return json.dumps({"t": float(t), "N": modes.N, "aniso": modes.aniso.diagonal().tolist(), "modes": entries})


@pytest.mark.parametrize("chunk", [1, 7, 1024])
def test_snapshot_text_equals_the_one_dict_form(monkeypatch, chunk):
    # chunks of one, of seven (a last chunk that is short) and the default
    monkeypatch.setattr(state_mod, "_SNAPSHOT_CHUNK", chunk)
    for N in (1, 2, 3):
        for box in [(1.0, 1.0, 1.0), (0.7, 1.3, 0.1)]:
            modes = build_lattice(TruncationSpec(N), AnisotropyMatrix(*box))
            state = random_divfree_state(modes, seed=N, amplitude=2.0)
            for values in (state.values, signed_zero_rows(state.values)):
                s = VorticityState(modes, values)
                for t in (0.0, -0.0, 0.25, 1e300):
                    text = snapshot_json(s, t)
                    assert text == one_dict_snapshot(s, t), (N, box, t)
                    fh = io.StringIO()
                    write_snapshot(fh, s, t)
                    assert fh.getvalue() == text


def test_snapshot_round_trip(modes1, df_state1):
    text = snapshot_json(df_state1, t=0.25)
    back, t = state_from_snapshot(modes1, text)
    assert t == 0.25
    assert np.array_equal(back.values, df_state1.values)
    # repr-based decimal encoding round-trips bit-exactly
    assert snapshot_json(back, t=t) == text
    payload = json.loads(text)
    assert set(payload) == {"t", "N", "aniso", "modes"}
    assert payload["N"] == modes1.N and payload["aniso"] == [1.0, 1.0, 1.0]
    assert len(payload["modes"]) == modes1.half_size


@pytest.mark.parametrize("field", ["t", "re", "im"])
def test_snapshot_number_past_the_float_range_raises_value_error(modes1, df_state1, field):
    payload = json.loads(snapshot_json(df_state1, t=0.25))
    if field == "t":
        payload["t"] = 10**400
    else:
        payload["modes"][3][field][1] = 10**400
    with pytest.raises(ValueError, match="finite"):
        state_from_snapshot(modes1, payload)


def test_diagnostics_record_finite():
    with pytest.raises(ValueError):
        DiagnosticsRecord(t=0.0, energy=float("nan"), helicity=0.0, div_max=0.0, amp_max=0.0)
