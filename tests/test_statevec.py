"""Register state, spectra, free evolution, and measurement statistics."""

import math

import numpy as np
import pytest

from conftest import ideal_final_state, idx, random_state
from shorphase import statevec, transforms
from shorphase.config import PipelineMode


def test_init_ground_amplitudes():
    state = statevec.init_ground()
    assert state[idx(0, 0)] == 1.0 + 0.0j
    assert np.all(state[1:] == 0.0)


def test_init_ground_norm():
    assert statevec.norm(statevec.init_ground()) == 1.0


def test_init_ground_distribution():
    assert statevec.measure_x_distribution(statevec.init_ground()) == {0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0}


def test_norm_uniform_and_zero():
    assert statevec.norm(np.full(16, 0.25, dtype=complex)) == pytest.approx(1.0, abs=1e-15)
    assert statevec.norm(np.zeros(16, dtype=complex)) == 0.0


def test_basis_index_bounds():
    assert statevec.basis_index(0, 0) == 0
    assert statevec.basis_index(3, 3) == 15
    assert statevec.basis_index(2, 1) == 9
    with pytest.raises(ValueError):
        statevec.basis_index(4, 0)
    with pytest.raises(ValueError):
        statevec.basis_index(0, -1)


# ---------------------------------------------------------------------------
# free evolution


def test_free_evolve_zero_spectrum_is_identity():
    rng = np.random.default_rng(11)
    state = random_state(rng)
    out = statevec.free_evolve(state, np.zeros(16), 3.7)
    np.testing.assert_allclose(out, state, atol=1e-15)


def test_free_evolve_zero_dt_is_identity():
    rng = np.random.default_rng(12)
    state = random_state(rng)
    spectrum = rng.standard_normal(16)
    np.testing.assert_array_equal(statevec.free_evolve(state, spectrum, 0.0), state)


def test_free_evolve_phases_on_x_spread():
    # Uniform x spread with y = 0; after tau1 each branch carries exp(-i E_{m0} tau1).
    spectrum = statevec.additive_spectrum()
    tau1 = 0.8
    state = np.zeros(16, dtype=complex)
    expected = np.zeros(16, dtype=complex)
    for m in range(4):
        state[idx(m, 0)] = 0.5
        expected[idx(m, 0)] = 0.5 * np.exp(-1j * spectrum[idx(m, 0)] * tau1)
    out = statevec.free_evolve(state, spectrum, tau1)
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_free_evolve_rejects_bad_dt():
    state = statevec.init_ground()
    spectrum = np.zeros(16)
    for dt, text in ((-0.1, "-0.1"), (math.nan, "nan"), (math.inf, "inf"), (-1, "-1.0")):
        with pytest.raises(ValueError, match=f"^dt must be finite and non-negative, got {text}$"):
            statevec.free_evolve(state, spectrum, dt)


def test_free_evolve_refuses_a_2d_dt():
    with pytest.raises(ValueError, match=r"^dt must be a scalar or a \(B,\) array, got shape \(2, 2\)$"):
        statevec.free_evolve(statevec.init_ground(), np.zeros(16), np.zeros((2, 2)))


def test_free_evolve_rejects_bad_shapes():
    with pytest.raises(ValueError):
        statevec.free_evolve(np.zeros(8, dtype=complex), np.zeros(16), 1.0)
    with pytest.raises(ValueError):
        statevec.free_evolve(statevec.init_ground(), np.zeros(4), 1.0)


def test_free_evolve_unitarity_random():
    rng = np.random.default_rng(13)
    for _ in range(100):
        state = random_state(rng)
        spectrum = 5.0 * rng.standard_normal(16)
        dt = rng.uniform(0.0, 10.0)
        assert abs(statevec.norm(statevec.free_evolve(state, spectrum, dt)) - 1.0) <= 1e-12


def test_free_evolve_batch_matches_scalar_calls():
    rng = np.random.default_rng(15)
    spectrum = 5.0 * rng.standard_normal(16)
    dts = rng.uniform(0.0, 10.0, size=37)
    state = random_state(rng)
    states = np.array([random_state(rng) for _ in dts])
    one_state = statevec.free_evolve(state, spectrum, dts)
    per_row = statevec.free_evolve(states, spectrum, dts)
    assert one_state.shape == per_row.shape == (37, 16)
    for k, dt in enumerate(dts):
        np.testing.assert_allclose(one_state[k], statevec.free_evolve(state, spectrum, float(dt)),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(per_row[k], statevec.free_evolve(states[k], spectrum, float(dt)),
                                   rtol=0, atol=1e-15)


def test_free_evolve_batch_names_first_bad_delay():
    with pytest.raises(ValueError, match=r"got -1\.0$"):
        statevec.free_evolve(statevec.init_ground(), np.zeros(16), np.array([0.5, -1.0, math.nan]))


@pytest.mark.filterwarnings("error")
def test_free_evolve_refuses_overflowing_phase():
    # E*dt overflows while E and dt are finite: refused before numpy can warn.
    spectrum = np.full(16, 1e10)
    refusal = r"^state is not normalized: non-finite phase .*dt = 1e\+300$"
    with pytest.raises(ValueError, match=refusal):
        statevec.free_evolve(statevec.init_ground(), spectrum, 1e300)
    # In a batch the first overflowing row is named.
    with pytest.raises(ValueError, match=r"dt = 2e\+299$"):
        statevec.free_evolve(statevec.init_ground(), spectrum, np.array([1.0, 2e299, 1e300]))
    # A scalar delay with a batch of spectra: the first overflowing row is named.
    spectra = np.array([np.full(16, 1.0), np.full(16, 1e300)])
    with pytest.raises(ValueError, match=r"E = 1e\+300, dt = 10000000000\.0$"):
        statevec.free_evolve(statevec.init_ground(), spectra, 1e10)
    # Huge but finite products still evolve.
    out = statevec.free_evolve(statevec.init_ground(), spectrum, 1e290)
    assert np.all(np.isfinite(out))


@pytest.mark.filterwarnings("error")
def test_one_spectrum_batch_names_its_first_bad_row_not_its_smallest_delay():
    # Each distinct delay is exponentiated once, in sorted order; the refusal
    # still reads the rows in order. E[1]*5e299 overflows as E[1]*1e300 does,
    # so every bad row reads E = 1e9: only dt tells the first row (1e300) from
    # the smallest bad delay (5e299).
    spectrum = np.arange(16) * 1e9
    dts = np.array([1.0, 1e300, 5e299, 1e300, 5e299])
    message = r"E = 1000000000\.0, dt = 1e\+300$"
    with pytest.raises(ValueError, match=message):
        statevec.free_evolve(statevec.init_ground(), spectrum, dts)
    with pytest.raises(ValueError, match=message):
        transforms._final_states(spectrum, PipelineMode.NATURAL_PHASE, dts, np.zeros(dts.size))


@pytest.mark.filterwarnings("error")
def test_a_refusal_names_every_bad_row_with_its_own_message():
    # Each refused row's error is read at that row's first bad entry, and the
    # raised error is the first row's.
    spectra = np.ones((4, 16))
    spectra[1, 3:], spectra[3, 5] = 1e300, 2e300
    with pytest.raises(ValueError) as caught:
        statevec.free_evolve(statevec.init_ground(), spectra, 1e10)
    prefix = "state is not normalized: non-finite phase E*dt for E = "
    assert {row: str(error) for row, error in caught.value.rows.items()} == {
        1: prefix + "1e+300, dt = 10000000000.0", 3: prefix + "2e+300, dt = 10000000000.0"}
    assert caught.value.rows[1] is caught.value


def test_free_evolve_composition():
    rng = np.random.default_rng(14)
    for _ in range(50):
        state = random_state(rng)
        spectrum = 5.0 * rng.standard_normal(16)
        t1, t2 = rng.uniform(0.0, 5.0, size=2)
        once = statevec.free_evolve(state, spectrum, t1 + t2)
        twice = statevec.free_evolve(statevec.free_evolve(state, spectrum, t1), spectrum, t2)
        np.testing.assert_allclose(once, twice, atol=1e-12)


def test_free_evolve_preserves_moduli_and_x_marginal():
    rng = np.random.default_rng(15)
    for _ in range(50):
        state = random_state(rng)
        spectrum = 5.0 * rng.standard_normal(16)
        out = statevec.free_evolve(state, spectrum, rng.uniform(0.0, 10.0))
        np.testing.assert_allclose(np.abs(out), np.abs(state), atol=1e-12)
        before = statevec.measure_x_distribution(state)
        after = statevec.measure_x_distribution(out)
        for x in range(4):
            assert after[x] == pytest.approx(before[x], abs=1e-12)


def test_free_evolve_does_not_mutate_input():
    state = statevec.init_ground()
    copy = state.copy()
    statevec.free_evolve(state, statevec.additive_spectrum(), 1.0)
    np.testing.assert_array_equal(state, copy)


# ---------------------------------------------------------------------------
# measurement


def test_measure_ideal_state_distribution():
    dist = statevec.measure_x_distribution(ideal_final_state())
    assert dist[0] == pytest.approx(0.5, abs=1e-12)
    assert dist[1] == pytest.approx(0.0, abs=1e-12)
    assert dist[2] == pytest.approx(0.5, abs=1e-12)
    assert dist[3] == pytest.approx(0.0, abs=1e-12)


def test_measure_uniform_state():
    dist = statevec.measure_x_distribution(np.full(16, 0.25, dtype=complex))
    for x in range(4):
        assert dist[x] == pytest.approx(0.25, abs=1e-12)


def test_measure_rejects_unnormalized():
    with pytest.raises(ValueError):
        statevec.measure_x_distribution(np.full(16, 0.5, dtype=complex))
    with pytest.raises(ValueError):
        statevec.measure_x_distribution(np.zeros(16, dtype=complex))
    with pytest.raises(ValueError):
        statevec.measure_x_distribution(np.full(16, complex(math.nan, math.nan)))


def test_measure_probabilities_sum_to_one():
    rng = np.random.default_rng(16)
    for _ in range(50):
        dist = statevec.measure_x_distribution(random_state(rng))
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_sample_ground_always_zero():
    state = statevec.init_ground()
    for seed in range(10):
        assert statevec.sample_x(state, seed) == 0


def test_sample_ideal_state_support():
    state = ideal_final_state()
    for seed in range(20):
        assert statevec.sample_x(state, seed) in (0, 2)


def test_sample_deterministic_per_seed():
    state = ideal_final_state()
    for seed in (0, 1, 7, 12345):
        assert statevec.sample_x(state, seed) == statevec.sample_x(state, seed)


def test_sample_rejects_unnormalized():
    with pytest.raises(ValueError):
        statevec.sample_x(np.full(16, 0.5, dtype=complex), 0)


# ---------------------------------------------------------------------------
# comparison and phases


def test_equal_up_to_global_phase_identity_and_sign():
    state = ideal_final_state()
    assert statevec.equal_up_to_global_phase(state, state, 1e-12)
    assert statevec.equal_up_to_global_phase(state, -state, 1e-12)


def test_equal_up_to_global_phase_distinct_states():
    assert not statevec.equal_up_to_global_phase(
        statevec.init_ground(), np.full(16, 0.25, dtype=complex), 1e-12
    )
    # With no nonzero overlap there is no phase to read; the plain difference decides.
    zero = np.zeros(16, dtype=complex)
    assert statevec.equal_up_to_global_phase(zero, zero, 1e-12)
    assert not statevec.equal_up_to_global_phase(zero, statevec.init_ground(), 1e-12)


def test_equal_up_to_global_phase_random_rotation():
    rng = np.random.default_rng(17)
    for _ in range(20):
        state = random_state(rng)
        theta = rng.uniform(-np.pi, np.pi)
        assert statevec.equal_up_to_global_phase(state, np.exp(1j * theta) * state, 1e-12)
        # A perturbation beyond tol must be detected.
        bumped = state.copy()
        bumped[3] += 1e-6
        bumped /= np.linalg.norm(bumped)
        assert not statevec.equal_up_to_global_phase(state, bumped, 1e-9)


def test_wrap_phase_interval():
    assert statevec.wrap_phase(0.0) == 0.0
    assert statevec.wrap_phase(np.pi) == pytest.approx(np.pi, abs=1e-15)
    assert statevec.wrap_phase(-np.pi) == pytest.approx(np.pi, abs=1e-15)
    assert statevec.wrap_phase(1.5 * np.pi) == pytest.approx(-0.5 * np.pi, abs=1e-12)
    assert statevec.wrap_phase(-4.0 * np.pi) == pytest.approx(0.0, abs=1e-12)
    # A list or an int goes through numpy and wraps like the floats it holds.
    assert statevec.wrap_phase([3 * np.pi, -np.pi]).tolist() == [
        statevec.wrap_phase(3 * np.pi), statevec.wrap_phase(-np.pi)]
    assert statevec.wrap_phase(7) == statevec.wrap_phase(7.0)
    values = statevec.wrap_phase(np.linspace(-30.0, 30.0, 401))
    assert np.all(values > -np.pi) and np.all(values <= np.pi)
    # Wrapping is a shift by multiples of 2 pi.
    raw = np.linspace(-30.0, 30.0, 401)
    np.testing.assert_allclose(np.cos(values), np.cos(raw), atol=1e-12)
    np.testing.assert_allclose(np.sin(values), np.sin(raw), atol=1e-12)


# ---------------------------------------------------------------------------
# spectra


def test_additive_spectrum_values():
    e = statevec.additive_spectrum()
    assert e[idx(0, 0)] == 0.0
    assert e[idx(1, 0)] == pytest.approx(1.0)        # x0 excited
    assert e[idx(2, 0)] == pytest.approx(2.3)        # x1 excited
    assert e[idx(3, 0)] == pytest.approx(3.3)
    assert e[idx(0, 1)] == pytest.approx(3.7)        # y0 excited
    assert e[idx(0, 2)] == pytest.approx(5.1)        # y1 excited
    assert e[idx(3, 3)] == pytest.approx(1.0 + 2.3 + 3.7 + 5.1)


def test_additive_spectrum_x_gaps_independent_of_y():
    # For any additive table the x=2 vs x=0 gap is the x1 frequency, whatever y is.
    e = statevec.additive_spectrum((0.5, 1.7, 2.9, 4.3))
    for n in range(4):
        assert e[idx(2, n)] - e[idx(0, n)] == pytest.approx(1.7)
        assert e[idx(3, n)] - e[idx(1, n)] == pytest.approx(1.7)


def test_make_spectrum_accepts_quadruple_and_table():
    np.testing.assert_array_equal(
        statevec.make_spectrum((1.0, 2.3, 3.7, 5.1)), statevec.additive_spectrum()
    )
    table = np.arange(16.0)
    np.testing.assert_array_equal(statevec.make_spectrum(table), table)
    with pytest.raises(ValueError):
        statevec.make_spectrum([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        statevec.make_spectrum([math.nan] * 16)


@pytest.mark.parametrize(
    "values, make_text, additive_text",
    [
        ([1.0, 2.0, 3.0], "spectrum must have 4 or 16 entries, got shape (3,)", None),
        (np.zeros((4, 4)), "spectrum must have 4 or 16 entries, got shape (4, 4)", None),
        ([[1.0, 2.0], [3.0, 4.0]], "spectrum must have 4 or 16 entries, got shape (2, 2)", None),
        ("abc", "could not convert string to float: 'abc'", "could not convert string to float: 'abc'"),
        ("1234", "spectrum must have 4 or 16 entries, got shape ()", None),
        ([math.nan] * 16, "spectrum entries must be finite", None),
        ([1.0, 2.0, 3.0, math.inf], "expected four finite qubit frequencies", None),
        (np.array([1.0, -math.inf, 3.0, 4.0]), "expected four finite qubit frequencies", None),
        (list(range(16)), None, None),
    ],
)
def test_spectrum_refusals_keep_their_texts(values, make_text, additive_text):
    # additive_spectrum refuses all but four finite frequencies with one text.
    additive_text = additive_text or "expected four finite qubit frequencies"
    for build, text in ((statevec.make_spectrum, make_text), (statevec.additive_spectrum, additive_text)):
        if text is None:
            assert build(values).tolist() == [float(v) for v in values]
            continue
        with pytest.raises(ValueError) as err:
            build(values)
        assert str(err.value) == text


@pytest.mark.parametrize("omegas, table_is_finite", [
    ((1e308, 1e308, 0.0, 0.0), False),
    ([0.0, 0.0, -1e308, -1e308], False),
    (np.array([1e308, 1e308, 1.0, 1.0]), False),
    ((1e308, -1e308, 0.0, 0.0), True),
])
def test_four_finite_frequencies_are_a_spectrum_only_if_their_table_is(omegas, table_is_finite):
    # Each frequency is finite, but the energies they add up to need not be.
    for build in (statevec.additive_spectrum, statevec.make_spectrum):
        if table_is_finite:
            assert np.isfinite(build(omegas)).all()
            continue
        with pytest.raises(ValueError) as err:
            build(omegas)
        assert str(err.value) == "spectrum entries must be finite"


def test_make_spectrum_copies_table():
    table = np.arange(16.0)
    spectrum = statevec.make_spectrum(table)
    table[0] = 99.0
    assert spectrum[0] == 0.0


# ---------------------------------------------------------------------------
# serialization


def test_state_json_round_trip():
    rng = np.random.default_rng(18)
    state = random_state(rng)
    pairs = statevec.state_to_json(state)
    assert len(pairs) == 16 and all(len(p) == 2 for p in pairs)
    np.testing.assert_array_equal(np.array(pairs) @ [1, 1j], state)


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        statevec.state_to_json(np.zeros(15, dtype=complex))
