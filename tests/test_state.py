import json

import numpy as np
import pytest

from euler3d import (
    NotDivergenceFreeError,
    OutOfLatticeError,
    VorticityState,
    from_reduced,
    random_divfree_state,
    to_reduced,
)
from euler3d.state import DiagnosticsRecord, snapshot_json, state_from_snapshot


def test_set_mode_conjugation(modes1):
    s = VorticityState(modes1)
    s = s.with_mode((1, 0, 0), [0, 1, -1j])
    assert np.array_equal(s.value_at((1, 0, 0)), [0, 1, -1j])
    assert np.array_equal(s.value_at((-1, 0, 0)), [0, 1, 1j])


def test_set_at_noncanonical_stores_conjugate(modes1):
    s = VorticityState(modes1)
    s = s.with_mode((-1, 0, 0), [0, 1, 1j])
    assert np.array_equal(s.value_at((1, 0, 0)), [0, 1, -1j])


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


def test_from_reduced_example(modes1, frames1):
    from euler3d.state import ReducedState

    red = ReducedState(modes1)
    vals = red.values.copy()
    vals[modes1.half_slot[modes1.position_of((1, 0, 0))]] = [1, -1j]
    red = ReducedState(modes1, vals)
    full = from_reduced(red, frames1)
    assert np.allclose(full.value_at((1, 0, 0)), [0, 1, -1j])


def test_divergence_residual_examples(modes1):
    zero = VorticityState(modes1)
    assert zero.divergence_residual() == 0.0
    j = np.array([1.0, 1.0, 0.0])
    s = zero.with_mode((1, 1, 0), j)  # omega = j at one mode
    assert np.isclose(s.divergence_residual(), j @ j)


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


def test_diagnostics_record_finite():
    with pytest.raises(ValueError):
        DiagnosticsRecord(t=0.0, energy=float("nan"), helicity=0.0, div_max=0.0, amp_max=0.0)
