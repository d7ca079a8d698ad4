"""Property checks over random spectra and delays; derandomized, so every run draws the same."""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from conftest import idx
from shorphase import cli, shor, statevec
from shorphase.config import DelaySchedule, ExperimentConfig, PipelineMode
from shorphase.pulses import PulseMode

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ENERGIES = st.lists(st.floats(-20.0, 20.0), min_size=16, max_size=16)
DELAYS = st.floats(0.0, 20.0)


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=300)
@hypothesis.given(ENERGIES, DELAYS, DELAYS)
def test_free_evolution_split_weight_matches_residuals(energies, tau1, tau2):
    # The weight that leaks to x = 1 and x = 3 is fixed by the two residuals
    # the report prints beside it: p1 + p3 = (sin^2(delta1/2) + sin^2(delta2/2)) / 2.
    # So the verdict and the distribution of one report cannot disagree.
    config = ExperimentConfig(mode=PipelineMode.FREE_EVOLUTION, delays=DelaySchedule(tau1, tau2),
                              spectrum=tuple(energies))
    report = shor.run_experiment(config)
    p, r = report.x_distribution, report.residuals
    expected = (math.sin(r.delta1 / 2) ** 2 + math.sin(r.delta2 / 2) ** 2) / 2
    assert abs(p[1] + p[3] - expected) <= 1e-12


#: Delays log-uniform over 1e-9 .. 1e9, and energies mostly of order 1 with
#: some anywhere in float64's finite range.
LOG_DELAYS = st.floats(-9.0, 9.0).map(lambda power: 10.0 ** power)
WIDE_ENERGY = st.one_of(st.floats(-20.0, 20.0), st.floats(allow_nan=False, allow_infinity=False))
WIDE_ENERGIES = st.lists(WIDE_ENERGY, min_size=16, max_size=16)
EPS = np.finfo(float).eps


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=300)
@hypothesis.given(ENERGIES, LOG_DELAYS, LOG_DELAYS)
def test_free_evolution_split_weight_matches_residuals_at_large_delays(energies, tau1, tau2):
    # The same identity at delays up to 1e9. Each phase E*tau is rounded to
    # within eps*|E*tau|, so the bound grows with max|E|*(tau1 + tau2).
    config = ExperimentConfig(mode=PipelineMode.FREE_EVOLUTION, delays=DelaySchedule(tau1, tau2),
                              spectrum=tuple(energies))
    try:
        report = shor.run_experiment(config)
    except ValueError:
        return
    p, r = report.x_distribution, report.residuals
    expected = (math.sin(r.delta1 / 2) ** 2 + math.sin(r.delta2 / 2) ** 2) / 2
    bound = 1e-12 + 4 * EPS * max(map(abs, energies)) * (tau1 + tau2)
    assert abs(p[1] + p[3] - expected) <= bound


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=300)
@hypothesis.given(WIDE_ENERGIES, LOG_DELAYS, LOG_DELAYS)
def test_verdict_is_the_precision_aware_rule(energies, tau1, tau2):
    # A residual is satisfied iff it is within its resolution bound, and every
    # output is finite; a refusal is a ValueError where E*tau or a gap overflows.
    try:
        residual = shor.check_condition(energies, DelaySchedule(tau1, tau2))
        report = shor.run_experiment(ExperimentConfig(
            mode=PipelineMode.FREE_EVOLUTION, delays=DelaySchedule(tau1, tau2),
            spectrum=tuple(energies)))
    except ValueError:
        assert max(map(abs, energies)) * max(tau1, tau2, 1.0) > 1e300
        return

    def gap(m, n, k, y):
        return energies[idx(m, n)] - energies[idx(k, y)]

    def within(delta, a, b):
        return abs(delta) <= max(1e-9, shor._RESOLUTION * (abs(a * tau1) + abs(b * tau2)))

    assert residual.satisfied == (within(residual.delta1, gap(2, 0, 0, 0), gap(2, 1, 0, 1))
                                  and within(residual.delta2, gap(3, 0, 1, 0), gap(3, 3, 1, 3)))
    assert report.residuals == residual
    assert math.isfinite(residual.delta1) and math.isfinite(residual.delta2)
    assert np.isfinite(report.final_state).all()
    assert all(math.isfinite(p) for p in report.x_distribution.values())


def floats_in(value):
    """Every float of a parsed JSON document."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, (list, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from floats_in(item)


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150)
@hypothesis.given(st.sampled_from(["check-condition", "shor-demo"]), WIDE_ENERGIES, LOG_DELAYS,
                  LOG_DELAYS)
def test_cli_prints_finite_numbers_or_exits_1(command, energies, tau1, tau2):
    # The CLI at the same delays and spectra: a report whose every number is
    # finite (exit 0, or 2 for a run with no factor), or one line of refusal.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--energies=" + ",".join(map(repr, energies)),
                         "--tau1", repr(tau1), "--tau2", repr(tau2), "--format", "json"])
    if code == cli.EXIT_USAGE:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1
        return
    assert code in (cli.EXIT_OK, cli.EXIT_NO_FACTOR), code
    assert all(math.isfinite(x) for x in floats_in(json.loads(out.getvalue())))


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=200)
@hypothesis.given(st.floats(0.0, 8.0), st.floats(0.0, 1.0))
def test_satisfying_delays_stay_satisfied_at_any_size(power, split):
    # For the default (additive) spectrum both residuals are w1*(tau1 + tau2),
    # so tau1 + tau2 = 2*pi*turns/w1 satisfies the condition. Past about 1e6
    # turns the rounding of that sum alone exceeds the 1e-9 tolerance; the
    # verdict must still read satisfied.
    spectrum = statevec.make_spectrum(statevec.DEFAULT_OMEGAS)
    turns = math.floor(10.0 ** power)
    total = 2 * math.pi * turns / (spectrum[idx(2, 0)] - spectrum[idx(0, 0)])
    residual = shor.check_condition(spectrum, DelaySchedule(split * total, (1 - split) * total))
    assert residual.satisfied, residual


#: Signed start times log-uniform up to 1e20, and zero.
SIGNED_LOG_TIMES = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, power: sign * 10.0 ** power,
              st.sampled_from([-1.0, 1.0]), st.floats(-9.0, 20.0)),
)


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150)
@hypothesis.given(st.sampled_from([m.value for m in PulseMode]), WIDE_ENERGY, WIDE_ENERGY,
                  SIGNED_LOG_TIMES, st.floats(-6.0, 6.0), st.floats(-3.0, 1.0),
                  st.floats(1e-4, 1e-2))
def test_pulse_prints_finite_numbers_or_exits_1(mode, e_k, e_p, t0, log_rabi, log_duration,
                                                step_share):
    # A pulse report whose every number is finite, or one line of refusal, at
    # any start time, Rabi frequency and step.
    rabi, duration = 10.0 ** log_rabi, 10.0 ** log_duration
    argv = ["pulse", "--mode", mode, "--t0", repr(t0), f"--energies={e_k!r},{e_p!r}",
            "--format", "json"]
    if mode == PulseMode.SUDDEN.value:
        argv += ["--area", repr(0.5 * rabi * duration)]
    else:
        argv += ["--rabi", repr(rabi), "--duration", repr(duration),
                 "--step", repr(duration * step_share)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == cli.EXIT_USAGE:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1
        return
    assert code == cli.EXIT_OK, code
    assert all(math.isfinite(x) for x in floats_in(json.loads(out.getvalue())))


#: The pulse modes that run the integrator.
RESONANT_MODES = [m.value for m in PulseMode if m is not PulseMode.SUDDEN]


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150)
@hypothesis.given(st.sampled_from(RESONANT_MODES), WIDE_ENERGY, WIDE_ENERGY,
                  st.floats(-6.0, 6.0), st.floats(-3.0, 1.0), st.floats(-4.0, 0.0))
def test_pulse_runs_a_given_step_only_inside_rk4_stability(mode, e_k, e_p, log_rabi, log_duration,
                                                            log_step_share):
    # Exit 0 with --step means the step taken is inside RK4's stability limit:
    # rho*dt <= 2*sqrt(2), rho = max(|E_k|, |E_p|) + rabi/2, dt = duration/ceil(duration/step).
    rabi, duration = 10.0 ** log_rabi, 10.0 ** log_duration
    step = duration * 10.0 ** log_step_share
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["pulse", "--mode", mode, f"--energies={e_k!r},{e_p!r}",
                         "--rabi", repr(rabi), "--duration", repr(duration), "--step", repr(step)])
    if code == cli.EXIT_USAGE:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1
        return
    assert code == cli.EXIT_OK, code
    dt = duration / max(1, math.ceil(duration / step))
    assert (max(abs(e_k), abs(e_p)) + 0.5 * rabi) * dt <= 2.0 * math.sqrt(2.0)


#: Qubit frequencies of either sign, signed zeros and magnitudes up to 1e300.
OMEGA = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e300, 1e300), st.floats(-10.0, 10.0))


def numpy_additive_table(omegas) -> np.ndarray:
    """The additive table as numpy computes it: each bit times its frequency, summed left to right."""
    bits = np.array([[m & 1, m >> 1, n & 1, n >> 1] for m in range(4) for n in range(4)], dtype=float)
    terms = bits * np.asarray(omegas, dtype=float)
    return terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3]


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=500)
@hypothesis.given(st.lists(OMEGA, min_size=4, max_size=4))
def test_python_float_spectrum_rule_is_numpys_bit_for_bit(omegas):
    # Compared by float.hex, so a -0.0 that became 0.0 fails too.
    expected = [float(e).hex() for e in numpy_additive_table(omegas)]
    for table in (statevec._energy_table(omegas), statevec._energy_table(np.array(omegas)),
                  statevec.additive_spectrum(omegas).tolist(), statevec.make_spectrum(omegas).tolist(),
                  ExperimentConfig(spectrum=tuple(omegas)).spectrum):
        assert [e.hex() for e in table] == expected
        assert all(type(e) is float for e in table)


#: Cell values that repeat when drawn from: signed zeros, infinities, two NaN
#: payloads, the extremes of float64 and values the encoder writes in exponent form.
CELL_POOL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, -1e308, 1e16, 2.5e-7,
             0.1, -3.25, np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0]]
COLUMNS = st.one_of(
    st.lists(st.sampled_from(CELL_POOL), min_size=1, max_size=80).map(np.array),
    st.lists(st.booleans(), min_size=1, max_size=80).map(np.array),
    st.lists(st.floats(allow_nan=False), min_size=1, max_size=80, unique=True).map(np.array),
)


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=500)
@hypothesis.given(COLUMNS)
def test_sweep_cells_are_the_encoders_text_of_each_value(column):
    # Each distinct bit pattern is formatted once and gathered back; the cells
    # must be what encoding the whole column gives, -0.0 and NaN included.
    assert cli._cells(column) == json.dumps(column.tolist())[1:-1].split(", ")


#: Settings of one batch row: either mode, the default, an additive or a full
#: spectrum, delays, and seeds and retry caps that reach several draw rounds.
SWEEP_CONFIGS = st.builds(
    ExperimentConfig,
    mode=st.sampled_from(PipelineMode),
    delays=st.builds(DelaySchedule, DELAYS, DELAYS),
    spectrum=st.one_of(st.just(statevec.DEFAULT_OMEGAS), st.tuples(*[st.floats(0.5, 6.0)] * 4),
                       ENERGIES.map(tuple)),
    seed=st.integers(0, 2**32 - 1),
    retry_cap=st.integers(1, 16),
)

#: E*tau1 overflows: the batch raises and is redone config by config.
OVERFLOWING = DelaySchedule(1e10, 0.0), (1e300,) * 16


def report_bits(report) -> tuple:
    """Every computed field of a report, floats by float.hex."""
    if report.error is not None:
        return (report.error,)
    state = report.final_state
    return (tuple(map(float.hex, state.real.tolist() + state.imag.tolist())),
            tuple(map(float.hex, report.x_distribution.values())),
            report.residuals.delta1.hex(), report.residuals.delta2.hex(), report.residuals.satisfied,
            report.measured_x, report.retries)


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=60)
@hypothesis.given(st.integers(1, 70).flatmap(lambda n: st.lists(SWEEP_CONFIGS, min_size=n, max_size=n)),
                  st.sampled_from([False, False, True]), st.sampled_from(PipelineMode),
                  st.randoms(use_true_random=False))
def test_a_configs_report_does_not_depend_on_its_batch(configs, failing, failing_mode, rng):
    # The same bits whether a config shares its batch with the other mode, in
    # any order, or sits in a batch of its own mode only; batches of 32 rows
    # or more draw from the batched stream, smaller ones from numpy's.
    if failing:
        delays, spectrum = OVERFLOWING
        configs.insert(rng.randrange(len(configs) + 1),
                       ExperimentConfig(mode=failing_mode, delays=delays, spectrum=spectrum))
    expected = list(map(report_bits, shor.sweep(configs)))
    if failing:
        assert [bits[0] for bits in expected if len(bits) == 1] == [
            "ValueError: state is not normalized: non-finite phase E*dt for E = 1e+300, dt = 10000000000.0"]
    order = list(range(len(configs)))
    rng.shuffle(order)
    shuffled = shor.sweep([configs[i] for i in order])
    assert [report_bits(shuffled[order.index(i)]) for i in range(len(configs))] == expected
    by_mode = [None] * len(configs)
    for mode in PipelineMode:
        rows = [i for i, config in enumerate(configs) if config.mode is mode]
        for i, report in zip(rows, shor.sweep([configs[i] for i in rows]) if rows else ()):
            by_mode[i] = report_bits(report)
    assert by_mode == expected
