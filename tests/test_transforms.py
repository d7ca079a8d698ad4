"""The three transformations, the two pipelines, and the branch-history identities."""

import cmath
import math

import numpy as np
import pytest

from conftest import expected_final_state, ideal_final_state, idx, random_state, random_y0_state
from shorphase import statevec, transforms
from shorphase.config import DelaySchedule, ExperimentConfig, PipelineMode

DEFAULT_SPECTRUM = statevec.additive_spectrum()


def free_evolution_config(spectrum, tau1, tau2) -> ExperimentConfig:
    return ExperimentConfig(
        mode=PipelineMode.FREE_EVOLUTION,
        delays=DelaySchedule(tau1, tau2),
        spectrum=tuple(np.asarray(spectrum, dtype=float)),
    )


def natural_phase_config(spectrum, tau1, tau2) -> ExperimentConfig:
    return ExperimentConfig(
        mode=PipelineMode.NATURAL_PHASE,
        delays=DelaySchedule(tau1, tau2),
        spectrum=tuple(np.asarray(spectrum, dtype=float)),
    )


# ---------------------------------------------------------------------------
# superpose_x


def test_superpose_ground_gives_uniform_x_spread():
    out = transforms.superpose_x(statevec.init_ground())
    expected = np.zeros(16, dtype=complex)
    for m in range(4):
        expected[idx(m, 0)] = 0.5
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_superpose_matrix_is_self_inverse():
    # Independent check: rebuild the Hadamard pair inline and square it.
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    w = np.kron(h, h)
    np.testing.assert_allclose(w @ w, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(transforms.SUPERPOSE_X_MATRIX, w, atol=1e-15)


def test_superpose_twice_restores_ground():
    out = transforms.superpose_x(transforms.superpose_x(statevec.init_ground()))
    np.testing.assert_allclose(out, statevec.init_ground(), atol=1e-12)


def test_superpose_unitary_on_random_states():
    rng = np.random.default_rng(21)
    for _ in range(50):
        state = random_state(rng)
        assert abs(statevec.norm(transforms.superpose_x(state)) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# modular exponentiation


def test_mod_exp_classical_values():
    assert transforms.mod_exp_classical(0) == 1
    assert transforms.mod_exp_classical(1) == 3
    assert transforms.mod_exp_classical(2) == 1
    assert transforms.mod_exp_classical(3) == 3


def test_mod_exp_classical_rejects_out_of_range():
    for x in (-1, 4, 10):
        with pytest.raises(ValueError):
            transforms.mod_exp_classical(x)


def test_apply_mod_exp_moves_ground_to_y1():
    out = transforms.apply_mod_exp(statevec.init_ground())
    assert out[idx(0, 1)] == 1.0
    assert statevec.norm(out) == pytest.approx(1.0, abs=1e-15)


def test_apply_mod_exp_relabels_and_carries_phases():
    # The x spread after tau1: each |m,0> branch holds exp(-i E_{m0} tau1) / 2.
    tau1 = 0.8
    state = np.zeros(16, dtype=complex)
    expected = np.zeros(16, dtype=complex)
    for m, y in enumerate((1, 3, 1, 3)):
        phase = 0.5 * cmath.exp(-1j * DEFAULT_SPECTRUM[idx(m, 0)] * tau1)
        state[idx(m, 0)] = phase
        expected[idx(m, y)] = phase
    np.testing.assert_allclose(transforms.apply_mod_exp(state), expected, atol=1e-15)


def test_apply_mod_exp_preserves_norm_on_its_domain():
    rng = np.random.default_rng(22)
    for _ in range(50):
        state = random_y0_state(rng)
        assert abs(statevec.norm(transforms.apply_mod_exp(state)) - 1.0) <= 1e-12


def test_apply_mod_exp_rejects_weight_outside_y0():
    state = np.zeros(16, dtype=complex)
    state[idx(1, 2)] = 1.0
    with pytest.raises(ValueError):
        transforms.apply_mod_exp(state)


def test_stages_act_row_by_row_on_batches():
    rng = np.random.default_rng(23)
    y0_states = np.array([random_y0_state(rng) for _ in range(9)])
    states = np.array([random_state(rng) for _ in range(9)])
    for stage, batch in ((transforms.apply_mod_exp, y0_states), (transforms.superpose_x, states),
                         (transforms.dft_x, states)):
        out = stage(batch)
        assert out.shape == (9, 16)
        for row, single in zip(out, batch):
            np.testing.assert_allclose(row, stage(single), rtol=0, atol=1e-15)


def test_apply_mod_exp_names_first_leaking_row():
    batch = np.zeros((3, 16), dtype=complex)
    batch[:, idx(0, 0)] = 1.0
    batch[1, idx(2, 3)] = 0.25
    batch[2, idx(1, 1)] = 0.5
    with pytest.raises(ValueError, match=r"max modulus 2\.500e-01"):
        transforms.apply_mod_exp(batch)


# ---------------------------------------------------------------------------
# dft_x


def test_dft_of_x0_is_uniform():
    for n in range(4):
        state = np.zeros(16, dtype=complex)
        state[idx(0, n)] = 1.0
        out = transforms.dft_x(state)
        expected = np.zeros(16, dtype=complex)
        for k in range(4):
            expected[idx(k, n)] = 0.5
        np.testing.assert_allclose(out, expected, atol=1e-15)


def test_dft_columns_match_direct_sum():
    # |x,n> -> (1/2) sum_k exp(2 pi i k x / 4) |k,n>, computed with cmath.
    for x in range(4):
        for n in range(4):
            state = np.zeros(16, dtype=complex)
            state[idx(x, n)] = 1.0
            out = transforms.dft_x(state)
            for k in range(4):
                expected = 0.5 * cmath.exp(2j * math.pi * k * x / 4)
                assert out[idx(k, n)] == pytest.approx(expected, abs=1e-15)


def test_dft_unitary_on_random_states():
    rng = np.random.default_rng(23)
    for _ in range(50):
        state = random_state(rng)
        assert abs(statevec.norm(transforms.dft_x(state)) - 1.0) <= 1e-12


def test_dft_fourth_power_is_identity():
    for i in range(16):
        state = np.zeros(16, dtype=complex)
        state[i] = 1.0
        out = state
        for _ in range(4):
            out = transforms.dft_x(out)
        np.testing.assert_allclose(out, state, atol=1e-12)


# ---------------------------------------------------------------------------
# amplitude_of


def test_amplitude_of():
    state = ideal_final_state()
    assert transforms.amplitude_of(state, 2, 3) == pytest.approx(-0.5, abs=1e-15)
    assert transforms.amplitude_of(state, 1, 1) == 0.0
    assert transforms.amplitude_of(statevec.init_ground(), 0, 0) == 1.0
    with pytest.raises(ValueError):
        transforms.amplitude_of(state, 4, 0)


# ---------------------------------------------------------------------------
# pipelines


def test_pipeline_zero_delays_gives_ideal_state():
    out = transforms.run_pipeline(free_evolution_config(DEFAULT_SPECTRUM, 0.0, 0.0))
    np.testing.assert_allclose(out, ideal_final_state(), atol=1e-12)


def test_pipeline_matches_branch_oracle():
    rng = np.random.default_rng(24)
    for _ in range(25):
        spectrum = 3.0 * rng.standard_normal(16)
        tau1, tau2 = rng.uniform(0.0, 8.0, size=2)
        out = transforms.run_pipeline(free_evolution_config(spectrum, tau1, tau2))
        np.testing.assert_allclose(out, expected_final_state(spectrum, tau1, tau2), atol=1e-12)


def test_pipeline_zero_spectrum_equals_zero_delays():
    rng = np.random.default_rng(25)
    reference = transforms.run_pipeline(free_evolution_config(np.zeros(16), 0.0, 0.0))
    for _ in range(10):
        tau1, tau2 = rng.uniform(0.0, 20.0, size=2)
        out = transforms.run_pipeline(free_evolution_config(np.zeros(16), tau1, tau2))
        np.testing.assert_array_equal(out, reference)


def test_pipeline_amp11_follows_sine_law():
    config = free_evolution_config(DEFAULT_SPECTRUM, 0.1, 0.1)
    out = transforms.run_pipeline(config)
    # Gap combination for the x=2 vs x=0 pair: 2.3*0.1 + 2.3*0.1 = 0.46.
    assert abs(transforms.amplitude_of(out, 1, 1)) == pytest.approx(
        0.5 * abs(math.sin(0.23)), abs=1e-12
    )
    assert abs(transforms.amplitude_of(out, 1, 1)) == pytest.approx(
        0.1139887617675942, abs=1e-15
    )


def test_pipeline_amp11_sine_law_random():
    rng = np.random.default_rng(26)
    for _ in range(25):
        spectrum = 3.0 * rng.standard_normal(16)
        tau1, tau2 = rng.uniform(0.0, 5.0, size=2)
        out = transforms.run_pipeline(free_evolution_config(spectrum, tau1, tau2))
        gap = (spectrum[idx(2, 0)] - spectrum[idx(0, 0)]) * tau1 + (
            spectrum[idx(2, 1)] - spectrum[idx(0, 1)]
        ) * tau2
        assert abs(transforms.amplitude_of(out, 1, 1)) == pytest.approx(
            0.5 * abs(math.sin(gap / 2.0)), abs=1e-12
        )


def test_pipeline_x1_x3_probabilities_equal():
    rng = np.random.default_rng(27)
    for _ in range(25):
        spectrum = 3.0 * rng.standard_normal(16)
        tau1, tau2 = rng.uniform(0.0, 5.0, size=2)
        dist = statevec.measure_x_distribution(
            transforms.run_pipeline(free_evolution_config(spectrum, tau1, tau2))
        )
        assert dist[1] == pytest.approx(dist[3], abs=1e-12)


def test_natural_phase_distribution_is_delay_independent():
    rng = np.random.default_rng(28)
    for _ in range(25):
        spectrum = 3.0 * rng.standard_normal(16)
        tau1, tau2 = rng.uniform(0.0, 10.0, size=2)
        dist = statevec.measure_x_distribution(
            transforms.run_pipeline(natural_phase_config(spectrum, tau1, tau2))
        )
        assert dist[0] == pytest.approx(0.5, abs=1e-12)
        assert dist[1] == pytest.approx(0.0, abs=1e-12)
        assert dist[2] == pytest.approx(0.5, abs=1e-12)
        assert dist[3] == pytest.approx(0.0, abs=1e-12)


def test_natural_phase_state_is_terminal_phased_ideal_run():
    rng = np.random.default_rng(29)
    spectrum = 3.0 * rng.standard_normal(16)
    tau1, tau2 = 0.7, 1.9
    out = transforms.run_pipeline(natural_phase_config(spectrum, tau1, tau2))
    zero_run = transforms.run_pipeline(free_evolution_config(np.zeros(16), 0.0, 0.0))
    expected = zero_run * np.exp(-1j * spectrum * (tau1 + tau2))
    np.testing.assert_allclose(out, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# branch histories


def test_history_chains_reproduce_the_split_terms():
    # The final |0,1> amplitude is the sum of two branch histories:
    # stay at x=0 throughout, or start at x=2 and be folded onto k=0 by the DFT.
    rng = np.random.default_rng(30)
    spectrum = 3.0 * rng.standard_normal(16)
    delays = DelaySchedule(1.3, 0.4)
    term_x0 = 0.25 * np.exp(-1j * (spectrum[idx(0, 0)] * delays.tau1 + spectrum[idx(0, 1)] * delays.tau2))
    term_x2 = 0.25 * np.exp(-1j * (spectrum[idx(2, 0)] * delays.tau1 + spectrum[idx(2, 1)] * delays.tau2))

    chain0 = transforms.run_history_chain(spectrum, delays, 0)
    chain2 = transforms.run_history_chain(spectrum, delays, 2)
    assert chain0[idx(0, 1)] == pytest.approx(term_x0, abs=1e-12)
    assert chain2[idx(0, 1)] == pytest.approx(term_x2, abs=1e-12)

    full = transforms.run_pipeline(
        free_evolution_config(spectrum, delays.tau1, delays.tau2)
    )
    assert chain0[idx(0, 1)] + chain2[idx(0, 1)] == pytest.approx(full[idx(0, 1)], abs=1e-12)


def test_history_chains_sum_to_full_pipeline():
    rng = np.random.default_rng(31)
    for _ in range(10):
        spectrum = 3.0 * rng.standard_normal(16)
        delays = DelaySchedule(*rng.uniform(0.0, 5.0, size=2))
        total = sum(transforms.run_history_chain(spectrum, delays, x) for x in range(4))
        full = transforms.run_pipeline(free_evolution_config(spectrum, delays.tau1, delays.tau2))
        np.testing.assert_allclose(total, full, atol=1e-12)


def test_run_history_chain_rejects_bad_branch():
    with pytest.raises(ValueError):
        transforms.run_history_chain(DEFAULT_SPECTRUM, DelaySchedule(0.0, 0.0), 4)


@pytest.mark.parametrize("shape", [(4,), (17,), (2, 2, 16)])
def test_run_history_chain_refuses_a_spectrum_of_another_shape(shape):
    with pytest.raises(ValueError, match="^state and spectrum must both have 16 entries$"):
        transforms.run_history_chain(np.zeros(shape), DelaySchedule(0.5, 0.5), 1)


# ---------------------------------------------------------------------------
# config types


def test_delay_schedule_validation():
    from shorphase.config import ConfigError

    assert DelaySchedule(0.0, 0.0).total == 0.0
    assert DelaySchedule(1.5, 2.5).total == 4.0
    for bad in ((-1.0, 0.0), (0.0, -0.5), (math.nan, 0.0), (math.inf, 1.0), ("x", 0.0), (None, 0.0)):
        with pytest.raises(ConfigError):
            DelaySchedule(*bad)


def test_pipeline_mode_values():
    assert PipelineMode("free-evolution") is PipelineMode.FREE_EVOLUTION
    assert PipelineMode("natural-phase") is PipelineMode.NATURAL_PHASE
