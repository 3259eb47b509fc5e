import numpy as np
import pytest

from euler3d import (
    VorticityState,
    energy,
    energy_reduced,
    finite_difference_gradient,
    grad_energy,
    grad_helicity,
    helicity,
    helicity_reduced,
    to_reduced,
    velocity_modes,
)


@pytest.fixture
def beltrami(modes1):
    # one conjugate pair carrying both energy and helicity
    return VorticityState(modes1).with_mode((1, 0, 0), [0.0, 1.0, -1.0j])


def test_energy_examples(modes1, beltrami):
    unit = VorticityState(modes1).with_mode((1, 0, 0), [0.0, 1.0, 0.0])
    assert np.isclose(energy(unit), 1.0)
    assert np.isclose(energy(beltrami), 2.0)
    assert energy(VorticityState(modes1)) == 0.0


def test_energy_reduced_matches(modes1, frames1, beltrami, df_state1):
    assert np.isclose(energy_reduced(to_reduced(beltrami, frames1)), 2.0)
    assert energy_reduced(to_reduced(VorticityState(modes1), frames1)) == 0.0
    rel = abs(energy_reduced(to_reduced(df_state1, frames1)) - energy(df_state1))
    assert rel <= 1e-13 * abs(energy(df_state1))


def test_helicity_examples(modes1, beltrami):
    assert np.isclose(helicity(beltrami), -4.0)
    real_state = VorticityState(modes1).with_mode((0, 1, 0), [1.0, 0.0, 2.0])
    assert helicity(real_state) == 0.0
    assert helicity(VorticityState(modes1)) == 0.0


def test_helicity_reduced(modes1, frames1, beltrami, df_state1):
    assert np.isclose(helicity_reduced(to_reduced(beltrami, frames1)), -4.0)
    # real reduced components carry no helicity
    from euler3d.state import ReducedState

    red = ReducedState(modes1, np.full((modes1.half_size, 2), 0.5 + 0j))
    assert helicity_reduced(red) == 0.0
    # both formulas agree on random states
    h_full = helicity(df_state1)
    h_red = helicity_reduced(to_reduced(df_state1, frames1))
    assert abs(h_full - h_red) <= 1e-12 * max(1.0, abs(h_full))


def test_grad_energy_example(modes1, beltrami):
    g = grad_energy(beltrami)
    pos = modes1.position_of((1, 0, 0))
    assert np.allclose(g[pos], [0.0, 1.0, 1.0j])
    assert not grad_energy(VorticityState(modes1)).any()


def test_grad_helicity_vanishing_component(modes1):
    # omega_{-k} parallel to k kills the cross product
    s = VorticityState(modes1).with_mode((0, 0, 1), [0.0, 0.0, 1.0])
    g = grad_helicity(s)
    assert np.allclose(g[modes1.position_of((0, 0, 1))], 0.0)


def test_gradients_match_finite_differences(modes1, df_state1):
    gE = grad_energy(df_state1)
    gh = grad_helicity(df_state1)
    for a in [(1, 0, 0), (0, 1, -1), (1, 1, 1)]:
        pos = modes1.position_of(a)
        for comp in range(3):
            fd_e = finite_difference_gradient(energy, df_state1, a, comp, step=1e-5)
            assert abs(fd_e - gE[pos, comp]) <= 1e-7 * max(1.0, abs(gE[pos, comp]))
            fd_h = finite_difference_gradient(helicity, df_state1, a, comp, step=1e-5)
            assert abs(fd_h - gh[pos, comp]) <= 1e-7 * max(1.0, abs(gh[pos, comp]))


def test_gradient_reality(modes1, df_state1):
    for g in (grad_energy(df_state1), grad_helicity(df_state1)):
        assert np.allclose(g[modes1.neg_index], np.conj(g), atol=1e-14)


def test_velocity_examples(modes1, beltrami, df_state2, modes2):
    s = VorticityState(modes1).with_mode((1, 0, 0), [0.0, 1.0, 0.0])
    v = velocity_modes(s)
    assert np.allclose(v[modes1.position_of((1, 0, 0))], [0.0, 0.0, 1.0j])

    # curl round trip i j x v_j = omega_j on divergence-free states
    v2 = velocity_modes(df_state2)
    W = df_state2.full_values()
    curl = 1j * np.cross(modes2.wavevectors, v2)
    assert np.max(np.abs(curl - W)) <= 1e-13 * df_state2.amp_max
    # velocity is divergence-free
    assert np.max(np.abs(np.einsum("md,md->m", modes2.wavevectors, v2))) <= 1e-13


def test_helicity_via_velocity(modes2, df_state2):
    v = velocity_modes(df_state2)
    W = df_state2.full_values()
    h_alt = np.sum(np.einsum("md,md->m", v, W[modes2.neg_index]))
    assert abs(h_alt.imag) <= 1e-12
    h = helicity(df_state2)
    assert abs(h_alt.real - h) <= 1e-13 * max(1.0, abs(h))


def test_energy_via_velocity(modes2, df_state2):
    # independent route: half the sum of v_j . v_{-j} over modes
    v = velocity_modes(df_state2)
    e_alt = 0.5 * np.sum(np.einsum("md,md->m", v, v[modes2.neg_index]))
    assert abs(e_alt.imag) <= 1e-12
    e = energy(df_state2)
    assert abs(e_alt.real - e) <= 1e-13 * max(1.0, abs(e))
