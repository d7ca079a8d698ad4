"""Interference condition, period extraction, factoring, and experiment runs."""

import math
import warnings

import numpy as np
import pytest

from conftest import idx
from shorphase import _pcg64, shor, statevec, transforms
from shorphase.config import DelaySchedule, ExperimentConfig, PipelineMode
from test_stream import EDGE_SEEDS, reference_draws

DEFAULT_SPECTRUM = statevec.additive_spectrum()


def config_for(spectrum=None, tau1=0.0, tau2=0.0, mode=PipelineMode.FREE_EVOLUTION,
               seed=0, retry_cap=16) -> ExperimentConfig:
    spectrum = DEFAULT_SPECTRUM if spectrum is None else spectrum
    return ExperimentConfig(
        mode=mode,
        delays=DelaySchedule(tau1, tau2),
        spectrum=tuple(np.asarray(spectrum, dtype=float)),
        seed=seed,
        retry_cap=retry_cap,
    )


# ---------------------------------------------------------------------------
# check_condition


def test_check_condition_zero_delays_satisfied():
    residual = shor.check_condition(DEFAULT_SPECTRUM, DelaySchedule(0.0, 0.0))
    assert residual == shor.ConditionResidual(0.0, 0.0, True)


def test_check_condition_zero_spectrum_satisfied():
    residual = shor.check_condition(np.zeros(16), DelaySchedule(4.2, 9.9))
    assert residual.satisfied
    assert residual.delta1 == 0.0 and residual.delta2 == 0.0


def test_check_condition_default_spectrum_small_delays():
    residual = shor.check_condition(DEFAULT_SPECTRUM, DelaySchedule(0.1, 0.1))
    # Both combinations reduce to the x1 frequency times the total delay:
    # 2.3 * 0.2 = 0.46, far from any multiple of 2 pi.
    assert residual.delta1 == pytest.approx(0.45999999999999996, abs=1e-15)
    assert residual.delta2 == pytest.approx(0.45999999999999996, abs=1e-15)
    assert not residual.satisfied


def test_check_condition_residuals_are_wrapped():
    table = np.zeros(16)
    table[idx(2, 0)] = 1.0  # delta1 = tau1 mod 2 pi
    residual = shor.check_condition(table, DelaySchedule(2.0 * math.pi + 0.25, 0.0))
    assert residual.delta1 == pytest.approx(0.25, abs=1e-12)
    assert -math.pi < residual.delta1 <= math.pi


def test_check_condition_general_table():
    table = np.zeros(16)
    table[idx(2, 0)] = 2.0
    table[idx(2, 1)] = 3.0
    table[idx(3, 0)] = 1.0
    table[idx(3, 3)] = 5.0
    tau1, tau2 = 0.4, 0.7
    residual = shor.check_condition(table, DelaySchedule(tau1, tau2))
    assert residual.delta1 == pytest.approx(2.0 * tau1 + 3.0 * tau2, abs=1e-12)
    assert residual.delta2 == pytest.approx(
        statevec.wrap_phase(1.0 * tau1 + 5.0 * tau2), abs=1e-12
    )


def test_check_condition_accepts_omega_quadruple():
    residual = shor.check_condition((1.0, 2.3, 3.7, 5.1), DelaySchedule(0.1, 0.1))
    assert residual.delta1 == pytest.approx(0.46, abs=1e-12)


def test_check_condition_wrap_count_diagnostics():
    table = np.zeros(16)
    table[idx(2, 0)] = 1.0   # raw delta1 = tau1
    table[idx(3, 0)] = -1.0  # raw delta2 = -tau1
    delays = DelaySchedule(4.0 * math.pi + 0.3, 0.0)
    residual = shor.check_condition(table, delays)
    assert residual.delta1 == pytest.approx(0.3, abs=1e-12)
    assert residual.delta2 == pytest.approx(-0.3, abs=1e-12)


def test_check_condition_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        shor.check_condition(DEFAULT_SPECTRUM, DelaySchedule(0.0, 0.0), tol=0.0)
    with pytest.raises(ValueError):
        shor.check_condition(DEFAULT_SPECTRUM, DelaySchedule(0.0, 0.0), tol=-1e-9)


@pytest.mark.parametrize("tol", [math.inf, math.nan], ids=["inf", "nan"])
def test_check_condition_refuses_non_finite_tolerance(tol):
    # An infinite tolerance would call every residual satisfied.
    with pytest.raises(ValueError, match=f"^tolerance must be finite, got {tol}$"):
        shor.check_condition(DEFAULT_SPECTRUM, DelaySchedule(1.0, 0.0), tol=tol)


@pytest.mark.filterwarnings("error")
def test_check_condition_refuses_non_finite_residuals():
    # (E[2,0] - E[0,0]) * tau1 overflows: no NaN verdict and no numpy warning.
    with pytest.raises(ValueError, match="not finite"):
        shor.check_condition(statevec.make_spectrum((1.0, 1e300, 1.0, 1.0)),
                             DelaySchedule(1e300, 0.0))


def residual_overflow_spectrum() -> np.ndarray:
    # E[2,0] - E[0,0] overflows although every E*tau of the pipeline stays finite.
    table = np.zeros(16)
    table[idx(2, 0)] = 1e308
    table[idx(0, 0)] = -1e308
    return table


@pytest.mark.filterwarnings("error")
def test_run_experiment_refuses_non_finite_residuals():
    config = config_for(residual_overflow_spectrum(), tau1=0.5)
    np.testing.assert_array_equal(np.isfinite(transforms.run_pipeline(config)), True)
    with pytest.raises(ValueError, match="interference residuals are not finite"):
        shor.run_experiment(config)
    report = shor.sweep([config])[0]
    assert "not finite" in report.error and report.residuals is None


def test_sweep_overflowing_gap_warns_nothing():
    # Recorded, not raised: the test sees any warning the batch prints and
    # still gets the report.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = shor.sweep([config_for(residual_overflow_spectrum(), tau1=0.5)])[0]
    assert [str(w.message) for w in caught] == []
    assert "not finite" in report.error


@pytest.mark.parametrize("step", ["_evaluate", "_finish"])
def test_sweep_lets_a_raised_warning_through(monkeypatch, step):
    # Under an error filter a warning arrives as an exception. Neither the
    # batch's refused-row path nor the per-config report step may absorb it.
    real = getattr(shor, step)

    def warn_then_run(*args):
        warnings.warn("patched warning", RuntimeWarning)
        return real(*args)

    monkeypatch.setattr(shor, step, warn_then_run)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="^patched warning$"):
            shor.sweep([config_for()])


def test_a_warning_raised_in_the_redo_reaches_the_caller(monkeypatch):
    # The batch refuses the first config, so the rest of it, the second
    # config, is computed again; its warning is raised in its report step.
    real = shor._finish

    def warn_then_finish(*args):
        warnings.warn("patched warning", RuntimeWarning)
        return real(*args)

    monkeypatch.setattr(shor, "_finish", warn_then_finish)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="^patched warning$"):
            shor.sweep([config_for(residual_overflow_spectrum(), tau1=0.5), config_for()])


# ---------------------------------------------------------------------------
# period extraction and factoring


def test_extract_period_values():
    assert shor.extract_period(2) == 2
    assert shor.extract_period(0) is None
    assert shor.extract_period(1) == 4


def test_extract_period_rejects_non_divisor():
    with pytest.raises(shor.PeriodExtractionError):
        shor.extract_period(3)


def test_extract_period_domain_checks():
    with pytest.raises(ValueError):
        shor.extract_period(4)
    with pytest.raises(ValueError):
        shor.extract_period(-1)


def test_factor_from_period_values():
    assert shor.factor_from_period(2) == 2   # z = 3, gcd(2, 4)
    assert shor.factor_from_period(4) == 2   # z = 9, gcd(8, 4) trivial, gcd(10, 4) = 2
    assert shor.factor_from_period(1) is None
    assert shor.factor_from_period(3) is None


def test_every_even_period_factors_to_two_and_every_odd_one_to_none():
    # z = 3^(T/2) is odd, so one of z - 1 and z + 1 is 2 mod 4; both trials are reached.
    for period in range(1, 65):
        assert shor.factor_from_period(period) == (2 if period % 2 == 0 else None)


def test_factor_of_ideal_measurement():
    assert shor.factor_from_period(shor.extract_period(2)) == 2


# ---------------------------------------------------------------------------
# run_experiment


def test_run_experiment_ideal_case():
    for seed in range(10):
        report = shor.run_experiment(config_for(seed=seed))
        assert report.measured_x == 2
        assert report.period == 2
        assert report.factor == 2
        assert report.residuals.satisfied
        assert report.diagnostic is None
        assert report.error is None


def test_run_experiment_natural_phase_is_delay_independent():
    rng = np.random.default_rng(61)
    for i in range(20):
        spectrum = 3.0 * rng.standard_normal(16)
        tau1, tau2 = rng.uniform(0.0, 10.0, size=2)
        report = shor.run_experiment(
            config_for(spectrum, tau1, tau2, mode=PipelineMode.NATURAL_PHASE, seed=i)
        )
        assert report.factor == 2


def test_run_experiment_split_probability_matches_residual():
    report = shor.run_experiment(config_for(tau1=0.1, tau2=0.1))
    p1 = report.x_distribution[1]
    assert p1 > 0.0
    assert p1 == pytest.approx(
        2.0 * abs(math.sin(report.residuals.delta1 / 2.0)) ** 2 / 4.0, abs=1e-12
    )


def test_run_experiment_deterministic():
    config = config_for(tau1=0.3, tau2=0.8, seed=17)
    a = shor.run_experiment(config)
    b = shor.run_experiment(config)
    np.testing.assert_array_equal(a.final_state, b.final_state)
    assert a.x_distribution == b.x_distribution
    assert a.residuals == b.residuals
    assert (a.measured_x, a.period, a.factor, a.retries) == (
        b.measured_x, b.period, b.factor, b.retries,
    )


def test_run_experiment_retries_then_succeeds():
    # Seed 2 draws x = 0 first on the ideal half/half distribution, then x = 2.
    report = shor.run_experiment(config_for(seed=2))
    assert report.retries >= 1
    assert report.measured_x == 2
    assert report.factor == 2


def test_run_experiment_retry_cap_exhausted():
    # Seed 2's first two draws both land on x = 0; cap 1 gives up after them.
    report = shor.run_experiment(config_for(seed=2, retry_cap=1))
    assert report.measured_x == 0
    assert report.retries == 1
    assert report.period is None
    assert report.factor is None
    assert "retry cap" in report.diagnostic


def test_run_experiment_non_divisor_outcome():
    # x1 frequency pi with total delay 1 puts all weight on x = 1 and x = 3.
    spectrum = statevec.additive_spectrum((0.0, math.pi, 0.0, 0.0))
    base = dict(spectrum=spectrum, tau1=1.0, tau2=0.0)
    report3 = shor.run_experiment(config_for(**base, seed=0))  # first draw >= 0.5
    assert report3.measured_x == 3
    assert report3.period is None and report3.factor is None
    assert "does not divide" in report3.diagnostic

    report1 = shor.run_experiment(config_for(**base, seed=2))  # first draw < 0.5
    assert report1.measured_x == 1
    assert report1.period == 4
    assert report1.factor == 2


# ---------------------------------------------------------------------------
# sweep


def test_sweep_single_config():
    reports = shor.sweep([config_for()])
    assert len(reports) == 1
    assert reports[0].factor == 2


def test_sweep_preserves_order_and_is_deterministic():
    configs = [config_for(tau1=0.1 * i, tau2=0.05 * i, seed=i) for i in range(6)]
    first = shor.sweep(configs)
    second = shor.sweep(configs)
    assert [r.config for r in first] == configs
    for a, b in zip(first, second):
        assert (a.measured_x, a.period, a.factor) == (b.measured_x, b.period, b.factor)


def test_sweep_records_per_config_errors(monkeypatch):
    # The report is the step sweep takes config by config; what it raises
    # stays on that config.
    real_finish = shor._finish
    poison = config_for(tau1=0.123456)

    def flaky(config, *outputs):
        if config is poison:
            raise RuntimeError("synthetic failure")
        return real_finish(config, *outputs)

    monkeypatch.setattr(shor, "_finish", flaky)
    reports = shor.sweep([config_for(), poison, config_for(seed=3)])
    assert reports[0].factor == 2 and reports[0].error is None
    assert reports[1].error == "RuntimeError: synthetic failure"
    assert reports[1].factor is None
    assert reports[2].factor == 2 and reports[2].error is None


def test_sweep_records_a_non_config_item_on_its_own_report():
    config = config_for(tau1=0.3, tau2=0.1, seed=5)
    text = "'int' object has no attribute 'mode'"
    with pytest.raises(AttributeError, match=f"^{text}$"):
        shor.run_experiment(7)
    reports = shor.sweep([config, 7, config])
    assert (reports[1].config, reports[1].error) == (7, f"AttributeError: {text}")
    alone = shor.run_experiment(config)
    for report in (reports[0], reports[2]):
        np.testing.assert_array_equal(report.final_state, alone.final_state)
        for name in ("config", "x_distribution", "residuals", "measured_x", "period", "factor",
                     "retries", "diagnostic", "error"):
            assert getattr(report, name) == getattr(alone, name)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_records_non_finite_state_as_error():
    # E*tau1 overflows to inf, so every amplitude of the final state is NaN.
    overflow = config_for(spectrum=np.full(16, 1e10), tau1=1e300)
    reports = shor.sweep([config_for(), overflow])
    assert reports[0].factor == 2 and reports[0].error is None
    assert reports[1].error is not None and "normalized" in reports[1].error
    assert reports[1].x_distribution is None and reports[1].measured_x is None


def test_sweep_matches_run_experiment():
    # More than one chunk of mixed configs: the batched sweep and run_experiment
    # must both agree with the per-config stages on every report field, errors
    # included.
    rng = np.random.default_rng(71)
    lattice = 2.0 * math.pi / 2.3  # default spectrum: both residuals are 2.3*(tau1 + tau2)
    fixed = [
        config_for(tau1=0.4 * lattice, tau2=0.6 * lattice, seed=5),
        config_for(seed=2, retry_cap=1),  # retry cap exhausted
        config_for(statevec.additive_spectrum((0.0, math.pi, 0.0, 0.0)), tau1=1.0),  # x = 3
    ]
    configs = []
    for i in range(shor._SWEEP_CHUNK + 300):
        spectrum = (None, tuple(rng.uniform(0.5, 6.0, 4)), rng.uniform(0.0, 12.0, 16))[i % 3]
        configs.append(config_for(
            spectrum, *rng.uniform(0.0, 10.0, 2), mode=list(PipelineMode)[i % 2],
            seed=int(rng.integers(2**32)), retry_cap=(1, 4, 16)[i % 5 % 3],
        ))
    overflow = config_for(spectrum=np.full(16, 1e10), tau1=1e300)
    # Phases and residuals both overflow: the phase is named, as the pipeline runs first.
    both = config_for(spectrum=1e10 * np.arange(16.0), tau1=1e300)
    wide = np.zeros(16)
    wide[idx(2, 0)], wide[idx(0, 0)] = 1e308, -1e308  # only the residual E*tau overflows
    configs[100:100] = fixed
    configs[700:700] = [overflow, both, config_for(wide, tau1=1.0)]

    def composed(config):
        # The per-config stages, composed as a single run composed them before
        # the batched core.
        try:
            state = transforms.run_pipeline(config)
            distribution = statevec.measure_x_distribution(state)
            residuals = shor.check_condition(config.spectrum, config.delays, config.tolerance)
            # The seeded draw as a lone run made it: one generator per config.
            rng = np.random.default_rng(config.seed)
            measured, retries = statevec.draw_x(distribution, rng), 0
            while measured == 0 and retries < config.retry_cap:
                measured, retries = statevec.draw_x(distribution, rng), retries + 1
        except ValueError as exc:
            return shor.RunReport(config=config, error=f"{type(exc).__name__}: {exc}")
        return shor._finish(config, state, distribution, residuals, measured, retries)

    def run_alone(config):
        try:
            return shor.run_experiment(config)
        except ValueError as exc:
            return shor.RunReport(config=config, error=f"{type(exc).__name__}: {exc}")

    swept = shor.sweep(configs)
    assert len(swept) == len(configs)
    for config, batched in zip(configs, swept):
        alone, single = composed(config), run_alone(config)
        # run_experiment is a batch of one through the same code: bit for bit,
        # though each mode's chunk here passes the 1,024 rows past which numpy
        # reuses a temporary operand in place.
        assert single.error == batched.error
        if batched.error is None:
            np.testing.assert_array_equal(single.final_state, batched.final_state)
            assert single.x_distribution == batched.x_distribution
        for report in (batched, single):
            assert report.config is config
            for name in ("residuals", "measured_x", "period", "factor", "retries", "diagnostic",
                         "error"):
                assert getattr(report, name) == getattr(alone, name), name
            if alone.error is None:
                np.testing.assert_allclose(report.final_state, alone.final_state,
                                           rtol=0, atol=1e-15)
                assert report.x_distribution.keys() == alone.x_distribution.keys()
                for x, p in alone.x_distribution.items():
                    assert abs(report.x_distribution[x] - p) <= 1e-15
            else:
                assert report.final_state is None and report.x_distribution is None
    assert swept[700].error.startswith("ValueError: state is not normalized")
    assert swept[701].error.startswith("ValueError: state is not normalized")
    assert swept[702].error.startswith("ValueError: interference residuals are not finite")
    assert [r.diagnostic is not None for r in swept[100:103]] == [False, True, True]
    assert swept[100].residuals.satisfied and swept[100].factor == 2


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        shor.sweep([])


# ---------------------------------------------------------------------------
# seeded draws in rounds of _pcg64.JUMPS draws per row


def test_seeded_draws_over_several_rounds_match_one_generator_per_config():
    # x = 0 shares of never, half, almost always and always, and caps 1..40, so
    # rows take 1 to 6 rounds; the batched stream must give numpy's own draws.
    seeds = EDGE_SEEDS + list(range(1000, 1000 + 4 * 40))
    p0 = np.array([0.0, 0.5, 0.999, 1.0])[np.arange(len(seeds)) % 4]
    rest = (1.0 - p0) / 3
    marginals = np.stack([p0, rest, rest, rest], axis=1)
    caps = [1 + i // 4 % 40 for i in range(len(seeds))]
    x, retries = shor._seeded_draws(seeds, caps, marginals)
    assert (x, retries) == reference_draws(seeds, caps, marginals)
    assert {type(value) for value in x + retries} == {int}
    assert max(retries) // _pcg64.JUMPS + 1 == 6


def test_the_stream_keeps_uint64_words_through_a_draw():
    # numpy 1.22 casts by value: a product with an untyped constant could become float64.
    stream = _pcg64.Pcg64(EDGE_SEEDS)
    rows = np.arange(len(EDGE_SEEDS))
    for _ in range(2):
        stream.random(rows)
        assert [words.dtype for words in (stream.hi, stream.lo, *stream.inc)] == [np.uint64] * 4


# ---------------------------------------------------------------------------
# condition vs pipeline agreement (small grid; the acceptance suite runs 1024 points)


def test_condition_agrees_with_pipeline_on_commensurate_grid():
    table = np.zeros(16)
    table[idx(2, 0)] = 2.0
    table[idx(2, 1)] = 3.0
    table[idx(3, 0)] = 1.0
    table[idx(3, 3)] = 5.0
    taus = 2.0 * math.pi * np.arange(10) / 10.0
    for tau1 in taus:
        for tau2 in taus:
            delays = DelaySchedule(float(tau1), float(tau2))
            satisfied = shor.check_condition(table, delays, tol=1e-9).satisfied
            dist = statevec.measure_x_distribution(
                transforms.run_pipeline(config_for(table, delays.tau1, delays.tau2))
            )
            ideal = all(
                abs(dist[x] - p) <= 1e-9
                for x, p in shor.IDEAL_X_DISTRIBUTION.items()
            )
            assert satisfied == ideal, (tau1, tau2)
