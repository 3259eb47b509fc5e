import numpy as np
import pytest

from euler3d import (
    AnisotropyMatrix,
    NotDivergenceFreeError,
    ShearFlowSpec,
    TruncationSpec,
    TruncationTooSmallError,
    VorticityState,
    assemble_global,
    build_lattice,
    corank_comparison,
    equilibrium_residual,
    gradient_span_test,
    random_divfree_state,
    shear_state,
)
from euler3d import observables
from euler3d.equilibria import span_residual_fraction
from euler3d.errors import NonFiniteError, NotAnEquilibriumError
from euler3d.dynamics import half_field_evaluator, rk4_step

SINGLE = ShearFlowSpec((1, 0, 0), (0.0, 0.0, 1.0), {1: 1.0})


def test_spec_validation(modes1):
    with pytest.raises(ValueError):
        ShearFlowSpec((2, 0, 0), (0.0, 0.0, 1.0))  # not coprime
    with pytest.raises(NotDivergenceFreeError):
        shear_state(ShearFlowSpec((1, 0, 0), (0.5, 0.0, 1.0)), modes1)  # G . p != 0
    with pytest.raises(ValueError):
        ShearFlowSpec((0, 0, 0), (0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        ShearFlowSpec((1, 0, 0), (0.0, 1.0, 0.0), {0: 1.0})
    spec = ShearFlowSpec((1, 0, 0), (0.0, 0.0, 1.0), {1: 1 + 2j})
    assert spec.coefficients[-1] == 1 - 2j  # mirrored automatically
    with pytest.raises(ValueError):
        ShearFlowSpec((1, 0, 0), (0.0, 0.0, 1.0), {1: 1 + 2j, -1: 1 + 2j})


def test_shear_state_single_harmonic(modes1):
    s = shear_state(SINGLE, modes1)
    assert np.array_equal(s.value_at((1, 0, 0)), [0, 0, 1])
    assert np.array_equal(s.value_at((-1, 0, 0)), [0, 0, 1])
    assert s.divergence_residual() == 0.0
    # exactly one populated pair
    assert np.count_nonzero(np.abs(s.values).sum(axis=1)) == 1


def test_shear_state_oblique(modes1):
    spec = ShearFlowSpec((1, 1, 0), (1.0, -1.0, 0.0), {1: 0.5})
    s = shear_state(spec, modes1)
    assert np.allclose(s.value_at((1, 1, 0)), [0.5, -0.5, 0.0])
    assert s.divergence_residual() == 0.0
    assert np.count_nonzero(np.abs(s.values).sum(axis=1)) == 1


def test_shear_state_needs_room(modes1):
    spec = ShearFlowSpec((1, 0, 0), (0.0, 0.0, 1.0), {2: 1.0})
    with pytest.raises(TruncationTooSmallError):
        shear_state(spec, modes1)


@pytest.mark.parametrize("which", ["direct", "simple", "projected", "reduced"])
def test_shear_is_equilibrium(modes2, frames2, which):
    spec = ShearFlowSpec((1, 0, 0), (0.0, 0.0, 1.0), {1: 1.0, 2: 0.25 + 0.1j})
    s = shear_state(spec, modes2)
    assert equilibrium_residual(s, which, frames2) <= 1e-14


def test_oblique_shear_is_equilibrium(modes2, frames2):
    spec = ShearFlowSpec((1, 1, 0), (1.0, -1.0, 0.5), {1: 0.7 - 0.2j, 2: 0.3})
    s = shear_state(spec, modes2)
    for which in ("direct", "simple", "projected", "reduced"):
        assert equilibrium_residual(s, which, frames2) <= 1e-14


def test_generic_state_is_not_equilibrium(modes1):
    s = random_divfree_state(modes1, seed=9, amplitude=1.0)
    assert equilibrium_residual(s, "projected") > 0.1


def test_shear_stays_fixed_under_integration(modes1, frames1):
    s = shear_state(SINGLE, modes1)
    ev = half_field_evaluator(modes1, "projected", frames1)
    current = s
    for _ in range(200):
        current = rk4_step(current, 1e-3, ev)
    assert np.max(np.abs(current.values - s.values)) <= 1e-14


def test_gradient_span(modes1, frames1):
    s = shear_state(SINGLE, modes1)
    tensor = assemble_global(s, modes1, "projected", frames1)
    report = gradient_span_test(s, tensor)
    assert report["grad_energy_in_kernel"]
    assert report["span_residual_fraction"] >= 0.5
    # gradients sit at right angles on the populated modes
    assert set(report["gradient_angles_deg"]) == {"(1, 0, 0)", "(-1, 0, 0)"}
    for ang in report["gradient_angles_deg"].values():
        assert ang == pytest.approx(90.0, abs=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("box", [(1.0, 1.0, 1.0), (1.0, 0.3, 1.0)])
def test_gradient_span_keeps_its_bits_past_the_square_overflow(box):
    # at 2^600 G the gradients' squares overflow; the span quantities are
    # taken on gradients scaled by a power of two, so they read as at G
    modes = build_lattice(TruncationSpec(1), AnisotropyMatrix(*box))
    reports = []
    for scale in (1.0, 2.0**600):
        s = shear_state(ShearFlowSpec((1, 0, 0), (0.0, -0.3 * scale, 2.5 * scale), {1: 1.0}), modes)
        reports.append(gradient_span_test(s, assemble_global(s, modes, "projected")))
    with np.errstate(over="ignore"):
        assert np.linalg.norm(observables.grad_energy(s)) == np.inf  # at 2^600 G
    assert reports[1] == reports[0]
    assert reports[0]["gradient_angles_deg"] and reports[0]["grad_energy_in_kernel"]


def test_equilibrium_residual_and_rank_refuse_overflow(modes1):
    # at G = 1e308 the real form overflows; the residual is taken on the state
    # scaled by a power of two, so it reads as at G = (0, 1, 1)
    s = shear_state(ShearFlowSpec((1, 0, 0), (0.0, 1e308, 1e308)), modes1)
    unit = shear_state(ShearFlowSpec((1, 0, 0), (0.0, 1.0, 1.0)), modes1)
    with pytest.raises(NonFiniteError, match="real form"):
        assemble_global(s, modes1, "projected").singular_values()
    # a state whose peak amplitude overflows has no residual, and a shear
    # whose amplitude G c_n overflows is refused when it is made
    inf_state = VorticityState(modes1, np.where(s.values == 1e308, np.inf, s.values))
    for which in ("direct", "simple", "projected", "reduced"):
        assert equilibrium_residual(s, which) == equilibrium_residual(unit, which)
        with pytest.raises(NonFiniteError, match="overflows"):
            equilibrium_residual(inf_state, which)
    with pytest.raises(NonFiniteError, match="G c_1 overflows"):
        shear_state(ShearFlowSpec((1, 0, 0), (0.0, 1e308, 1e308), {1: 2.0}), modes1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("box", [(1.0, 1.0, 1.0), (1.0, 0.3, 1.0)])
@pytest.mark.parametrize("structure", ["direct", "simple", "projected", "reduced"])
def test_equilibrium_residual_is_invariant_under_power_of_two_scaling(box, structure):
    # the oblique shear with two harmonics: its residual is not zero, and is
    # relative to the square of the peak amplitude, so 2^300 G and 2^-600 G
    # read as G; at peak amplitude 1 it is the field's own max-norm
    modes = build_lattice(TruncationSpec(2), AnisotropyMatrix(*box))
    G = np.array([box[1], -box[0], 0.5])  # transverse to the wavevector of p = (1, 1, 0)
    coefficients = {1: 1.0, 2: 0.4 - 0.1j}
    unit = shear_state(ShearFlowSpec((1, 1, 0), tuple(G), coefficients), modes)
    assert unit.amp_max == 1.0
    res = equilibrium_residual(unit, structure)
    if structure != "reduced":
        assert res == np.max(np.abs(half_field_evaluator(modes, structure)(unit.values)))
    for scale in (2.0**300, 2.0**-600):
        s = shear_state(ShearFlowSpec((1, 1, 0), tuple(scale * G), coefficients), modes)
        assert equilibrium_residual(s, structure) == res


@pytest.mark.parametrize("coefficient", [1.0, 0.5 - 0.25j])
def test_gradient_angles_do_not_depend_on_the_amplitude(modes1, coefficient):
    # at 2^-600 G the gradient norms are far below 1e-12; the angle modes are
    # picked relative to the largest norm, so the map reads as at G
    reports = []
    for scale in (1.0, 2.0**-600, 2.0**600):
        s = shear_state(ShearFlowSpec((1, 0, 0), (0.0, scale, scale), {1: coefficient}), modes1)
        reports.append(gradient_span_test(s, assemble_global(s, modes1, "projected")))
    assert set(reports[0]["gradient_angles_deg"]) == {"(1, 0, 0)", "(-1, 0, 0)"}
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_gradient_span_rejects_non_equilibrium(modes1, df_state1):
    tensor = assemble_global(df_state1, modes1, "projected")
    with pytest.raises(NotAnEquilibriumError, match="wants an equilibrium"):
        gradient_span_test(df_state1, tensor)


def test_corank_comparison_frozen_dims(modes1, frames1):
    report = corank_comparison(SINGLE, modes1, "projected", seeds=(0, 1, 2, 3, 4), frames=frames1)
    # frozen from the svd oracle (see regression note): 50 vs 28 of 78
    assert report["shear"] == {"rank": 28, "corank": 50}
    assert report["baseline_coranks"] == [28]
    assert report["kernel_excess"] == 22
    assert not report["degenerate"]
    assert all(b["corank"] == 28 for b in report["baseline"])


def test_corank_comparison_degenerate(modes1, frames1):
    zero_spec = ShearFlowSpec((1, 0, 0), (0.0, 0.0, 1.0), {1: 0.0})
    report = corank_comparison(zero_spec, modes1, "projected", seeds=(0,), frames=frames1)
    assert report["degenerate"]
    assert report["shear"]["rank"] == 0
    assert report["parity_forced"] == 0


@pytest.mark.parametrize("which", ["projected", "reduced"])
def test_parity_accounts_for_baseline_unexplained_n1(modes1, frames1, which):
    # dim - known is 2M - 1 for every structure: odd, and an antisymmetric real
    # form has even rank, so one kernel direction is forced by parity alone
    report = corank_comparison(SINGLE, modes1, which, seeds=(0, 1, 2), frames=frames1)
    assert not report["degenerate"]
    assert (report["dim"] - report["known_casimirs"]) % 2 == 1
    assert report["parity_forced"] == 1
    assert report["baseline_unexplained"] - report["parity_forced"] == 0


def test_shear_direction_is_checked_on_the_physical_wavevector(modes_box2, frames_box2):
    # on the (1, 0.3, 1) box, p = (1, 1, 0) has wavevector (1, 0.3, 0)
    with pytest.raises(NotDivergenceFreeError, match="aniso"):
        shear_state(ShearFlowSpec((1, 1, 0), (1.0, -1.0, 0.0)), modes_box2)
    s = shear_state(ShearFlowSpec((1, 1, 0), (0.3, -1.0, 0.5), {1: 1.0, 2: 0.4 - 0.1j}), modes_box2)
    assert s.divergence_residual() == 0.0
    for which in ("direct", "simple", "projected", "reduced"):
        assert equilibrium_residual(s, which, frames_box2) <= 1e-14


def test_gradient_span_rejects_reduced_tensor(modes1, frames1):
    s = shear_state(SINGLE, modes1)
    tensor = assemble_global(s, modes1, "reduced", frames1)
    with pytest.raises(ValueError, match="full coordinates"):
        gradient_span_test(s, tensor)


def lstsq_span_residual_fraction(state):
    """The least-squares oracle: grad E against an explicit basis with one
    column per divergence direction and one for grad h."""
    modes = state.modes
    M = len(modes)
    cols = []
    for pos in range(M):
        col = np.zeros((M, 3), dtype=complex)
        col[pos] = modes.wavevectors[pos]
        cols.append(col.reshape(-1))
    cols.append(observables.grad_helicity(state).reshape(-1))
    basis = np.stack(cols, axis=1)
    gE = observables.grad_energy(state).reshape(-1)
    coeffs, *_ = np.linalg.lstsq(basis, gE, rcond=None)
    return np.linalg.norm(gE - basis @ coeffs) / np.linalg.norm(gE)


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("box", [(1.0, 1.0, 1.0), (1.0, 0.3, 1.0), (0.7, 1.3, 0.1)], ids=["iso", "box2", "box3"])
def test_span_residual_fraction_equals_lstsq(N, box):
    modes = build_lattice(TruncationSpec(N), AnisotropyMatrix(*box))
    rng = np.random.default_rng(N)
    general = rng.normal(size=(modes.half_size, 3)) + 1j * rng.normal(size=(modes.half_size, 3))
    states = {
        "shear": shear_state(ShearFlowSpec((1, 0, 0), (0.0, 0.0, 1.0), {1: 1.0}), modes),
        # G . (aniso * p) = box[1] box[0] - box[0] box[1] = 0 exactly
        "oblique_shear": shear_state(ShearFlowSpec((1, 1, 0), (box[1], -box[0], 0.5), {1: 0.7 - 0.2j}), modes),
        "divergence_free": random_divfree_state(modes, seed=6, amplitude=1.0),
        "general": VorticityState(modes, general),
    }
    for name, state in states.items():
        got = span_residual_fraction(
            observables.grad_energy(state), observables.grad_helicity(state), modes.wavevectors
        )
        expect = lstsq_span_residual_fraction(state)
        assert got == pytest.approx(expect, rel=1e-12, abs=0.0), name
