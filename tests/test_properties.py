"""Property checks over random spectra and delays; derandomized, so every run draws the same."""

import cmath
import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import idx
from shorphase import cli, pulses, shor, statevec, transforms
from shorphase.config import (ConfigError, DelaySchedule, ExperimentConfig, PipelineMode, build_config,
                              config_to_text, parse_config_text)
from shorphase.pulses import PulseMode, PulseSpec, TwoLevelState, TwoLevelSystem, natural_init

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


#: Valid sweep axis ends: both signed zeros, subnormals and other tiny values, and values up to 1e300.
AXIS_ENDS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-323, 1.5e-323, 2.2250738585072014e-308]),
                      st.floats(0.0, 1e-300), st.floats(0.0, 1e300))
AXES = st.tuples(AXIS_ENDS, AXIS_ENDS, st.integers(1, 50))


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150)
@hypothesis.given(AXES, AXES)
@hypothesis.example((1.5e-323, 0.0, 6), (-0.0, 5e-324, 3))
@hypothesis.example((-0.0, -0.0, 2), (0.0, -0.0, 2))
def test_sweep_axes_are_linspace_with_points_below_zero_read_as_zero(axis1, axis2):
    # Each axis of a written grid is np.linspace of its ends, bit for bit and
    # -0.0 included, except that a point it rounds below zero reads 0.0.
    argv = ["sweep", "--format", "csv"]
    for name, (start, stop, count) in (("tau1", axis1), ("tau2", axis2)):
        argv += [f"--{name}-start={start!r}", f"--{name}-stop={stop!r}", f"--{name}-count={count}"]
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp, "grid.csv")
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main([*argv, "--out", str(out_path)]) == cli.EXIT_OK
        rows = list(csv.reader(io.StringIO(out_path.read_text())))[1:]
    taus1, taus2 = (np.linspace(*axis) for axis in (axis1, axis2))
    expected = zip(np.repeat(taus1, taus2.size).tolist(), np.tile(taus2, taus1.size).tolist())
    assert [(float(row[0]).hex(), float(row[1]).hex()) for row in rows] == [
        tuple((tau if tau >= 0.0 else 0.0).hex() for tau in pair) for pair in expected]


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


def rk4_loop(system: TwoLevelSystem, pulse: PulseSpec, init: TwoLevelState, step) -> tuple:
    """``integrate_ode`` restated: its refusals, then one RK4 step at a time.

    Each stage time is t0 + n*dt, computed afresh, so no clock accumulates.
    """
    if step is not None and not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be {'positive' if math.isfinite(step) else 'finite'}, got {step}")
    tau, given = pulse.tau, step is not None
    if tau == 0.0:
        return init.c_k, init.c_p
    step = step if given else tau / 1000.0
    needed = tau / step if step > 0 else math.inf
    if not needed <= pulses._MAX_STEPS:
        raise ValueError(f"tau = {tau!r} in steps of {step!r} needs {needed:.3g} RK4 steps, "
                         f"more than the limit of {pulses._MAX_STEPS}")
    n_steps = max(1, math.ceil(needed))
    dt = tau / n_steps
    rho = max(abs(system.e_k), abs(system.e_p)) + 0.5 * pulse.rabi
    if given and rho * dt > 2.0 * math.sqrt(2.0):
        raise ValueError(f"step {step!r} is past RK4's stability limit: rho*dt = {rho * dt:.3g} > "
                         f"2*sqrt(2) for rho = max(|E_k|, |E_p|) + rabi/2 = {rho!r}")
    if pulse.t0 + dt == pulse.t0:
        raise ValueError(f"RK4 clock cannot advance: t0 + dt == t0 for t0 = {pulse.t0!r}, dt = {dt!r}")
    origin = pulse.t0 if pulse.mode is PulseMode.NONCOHERENT else 0.0

    def rhs(t, a, b):
        drive = cmath.exp(1j * (system.omega_pk * (t - origin) + pulse.phase))
        return (-1j * system.e_k * a + 0.5j * pulse.rabi * drive * b,
                -1j * system.e_p * b + 0.5j * pulse.rabi * drive.conjugate() * a)

    a, b = init.c_k, init.c_p
    for n in range(n_steps):
        k1 = rhs(pulse.t0 + n * dt, a, b)
        k2 = rhs(pulse.t0 + (n + 0.5) * dt, a + 0.5 * dt * k1[0], b + 0.5 * dt * k1[1])
        k3 = rhs(pulse.t0 + (n + 0.5) * dt, a + 0.5 * dt * k2[0], b + 0.5 * dt * k2[1])
        k4 = rhs(pulse.t0 + (n + 1) * dt, a + dt * k3[0], b + dt * k3[1])
        a, b = (y + dt / 6.0 * (p + 2.0 * q + 2.0 * r + s) for y, p, q, r, s in zip((a, b), k1, k2, k3, k4))
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        raise ValueError(f"integration diverged: non-finite amplitude after {n_steps} RK4 steps "
                         f"of dt = {dt!r}")
    return a, b


#: A given step: tau over a step count that runs (at most 2000) or passes the
#: 10^7 cap, or a step the step rule refuses; None is the default tau/1000.
STEP_COUNTS = st.one_of(st.none(), st.floats(1.0, 2000.0), st.one_of(
    st.floats(2e7, 1e12), st.sampled_from([0.0, -1.0, math.inf, -math.inf, math.nan]).map(lambda v: ("step", v))))
#: Normalized amplitudes with population in |p>, or None for the natural |k> start.
GENERAL_INITS = st.one_of(st.none(), st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda v: any(v)))


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=300)
@hypothesis.given(st.sampled_from([m for m in PulseMode if m is not PulseMode.SUDDEN]),
                  st.floats(-20.0, 20.0), st.floats(-20.0, 20.0), st.floats(-3.0, 2.0),
                  st.one_of(st.floats(-100.0, 100.0), st.floats(100.0, 1e6), st.floats(-1e6, -100.0)),
                  st.floats(1e-3, 10.0), st.floats(-math.pi, math.pi), GENERAL_INITS, STEP_COUNTS)
@hypothesis.example(PulseMode.COHERENT, 1.0, 3.0, 30.0, 0.0, 1.0, 0.0, None, None)  # diverges
@hypothesis.example(PulseMode.NONCOHERENT, 1.0, 3.0, 0.3, 1e17, 1.0, 0.0, None, None)  # clock stuck
@hypothesis.example(PulseMode.NONCOHERENT, 1.0, 3.0, 0.3, -0.0, 0.0, 0.0, (0.6, 0.0, 0.0, 0.8), None)  # tau = 0
def test_integrate_ode_is_the_rk4_loop(mode, e_k, e_p, log_rabi, t0, tau, phase, general, count):
    # The matrix power is the loop's scheme with other rounding: within 1e-10 for
    # |t0| <= 100. Past that the loop rounds the drive argument w*(t - origin) at
    # every stage by about eps*|w|*(|t0| + tau), which moves the amplitudes by up
    # to (1 + rabi*tau) times that. Either side's refusal is the other's, word for word.
    system, rabi = TwoLevelSystem(e_k, e_p), 10.0 ** log_rabi
    pulse = PulseSpec(mode=mode, rabi=rabi, t0=t0, tau=tau, phase=phase)
    if general is None:
        init = natural_init(1.0, e_k, t0)
    else:
        norm = math.hypot(*general)
        init = TwoLevelState(complex(*general[:2]) / norm, complex(*general[2:]) / norm)
    step = count[1] if isinstance(count, tuple) else None if count is None else tau / count
    try:
        expected = rk4_loop(system, pulse, init, step)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            pulses.integrate_ode(system, pulse, init, step)
        assert str(refused.value) == str(exc)
        return
    out = pulses.integrate_ode(system, pulse, init, step)
    bound = 1e-10
    if abs(t0) > 100.0:
        bound += 4 * sys.float_info.epsilon * abs(system.omega_pk) * (abs(t0) + tau) * (1 + rabi * tau)
    assert max(abs(out.c_k - expected[0]), abs(out.c_p - expected[1])) <= bound


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

#: E*tau1 overflows: the batch refuses this row, and the other rows go again.
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


#: (B,) delay pairs from a small pool holding both signed zeros, so rows
#: repeat, or all distinct; B = 1 included.
DELAY_POOLS = st.lists(DELAYS, min_size=1, max_size=5).map(lambda pool: pool + [0.0, -0.0])
DELAY_PAIRS = st.one_of(
    DELAY_POOLS.flatmap(lambda pool: st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
                                              min_size=1, max_size=70)),
    st.lists(st.tuples(DELAYS, DELAYS), min_size=1, max_size=70, unique_by=lambda pair: pair[0]),
)


def state_bits(state) -> list:
    """A 16-entry state's amplitudes by float.hex, real parts then imaginary parts."""
    return list(map(float.hex, state.real.tolist() + state.imag.tolist()))


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=200)
@hypothesis.given(ENERGIES, DELAY_PAIRS)
@hypothesis.example([1.0] * 16, [(0.0, -0.0)])
@hypothesis.example([-3.5] * 16, [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, 0.0), (-0.0, -0.0)])
def test_one_spectrum_batch_is_its_rows_bit_for_bit(energies, pairs):
    # One table for every row: each distinct delay is exponentiated once and
    # gathered back. Every row must equal its own scalar call by float.hex,
    # -0.0 and 0.0 included.
    spectrum = np.array(energies)
    tau1, tau2 = (np.array(column) for column in zip(*pairs))
    state = transforms._SPREAD
    assert list(map(state_bits, statevec._phase_factors(spectrum, tau1))) == [
        state_bits(statevec._phase_factors(spectrum, t1)) for t1, _ in pairs]
    assert list(map(state_bits, statevec.free_evolve(state, spectrum, tau1))) == [
        state_bits(statevec.free_evolve(state, spectrum, t1)) for t1, _ in pairs]
    for mode in PipelineMode:
        assert list(map(state_bits, transforms._final_states(spectrum, mode, tau1, tau2))) == [
            state_bits(transforms._final_states(spectrum, mode, t1, t2)) for t1, t2 in pairs]


def public_stages(spectrum, tau1, tau2):
    """A free-evolution run through the public stages: idle, function evaluation, idle, DFT."""
    state = transforms.apply_mod_exp(statevec.free_evolve(transforms._SPREAD, spectrum, tau1))
    return transforms.dft_x(statevec.free_evolve(state, spectrum, tau2))


def refusal(run):
    """The text of the ValueError that ``run`` raises and each refused row's text, or None."""
    try:
        run()
    except ValueError as exc:
        return str(exc), {row: str(error) for row, error in exc.rows.items()}
    return None


#: Delays from 0 to 1e9, and delays that a stage refuses: negative, NaN, infinite, or
#: so large that E*tau overflows.
WIDE_DELAYS = st.one_of(DELAYS, LOG_DELAYS)
ANY_DELAYS = st.one_of(WIDE_DELAYS, st.sampled_from([-1.0, -1e-300, math.nan, math.inf, 1e308]))
ROWS = st.lists(st.tuples(ENERGIES, WIDE_DELAYS, WIDE_DELAYS), min_size=1, max_size=40)


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=200)
@hypothesis.given(ROWS, ENERGIES, DELAY_PAIRS)
def test_the_branch_stage_is_the_public_stages_bit_for_bit(rows, energies, pairs):
    # The tau1 idle and the function evaluation run as one step on the four
    # branches; every bit, signed zeros included, is the public stages' own. The
    # second case is one table for delays that repeat: the sweep's deduplicated path.
    for case in (zip(*rows), (energies, *zip(*pairs))):
        spectrum, tau1, tau2 = map(np.array, case)
        final = transforms._final_states(spectrum, PipelineMode.FREE_EVOLUTION, tau1, tau2)
        expected = public_stages(spectrum, tau1, tau2)
        assert np.array_equal(final.view(np.uint64), expected.view(np.uint64))


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=200)
@hypothesis.given(st.lists(st.tuples(WIDE_ENERGIES, ANY_DELAYS, ANY_DELAYS), min_size=1,
                           max_size=12))
@hypothesis.example([([1.0] * 16, 1e308, 0.5), ([0.0] * 16, -1.0, 0.5),
                     ([2.0] * 16, math.nan, 0.5)])
def test_the_branch_stage_refuses_as_the_public_stages_do(rows):
    # A negative, NaN or infinite delay and an overflowing E*tau1 are refused
    # with the public stages' text, in their order, naming the same rows.
    spectrum, tau1, tau2 = map(np.array, zip(*rows))
    free = PipelineMode.FREE_EVOLUTION
    branch = refusal(lambda: transforms._final_states(spectrum, free, tau1, tau2))
    assert branch == refusal(lambda: public_stages(spectrum, tau1, tau2))


#: Each subcommand's flags, as its --help lists them.
COMMAND_FLAGS = {
    "shor-demo": ["--config", "--dump-config", "--mode", "--tau1", "--tau2", "--omega", "--energies",
                  "--seed", "--retry-cap", "--tolerance", "--format"],
    "pulse": ["--mode", "--rabi", "--duration", "--area", "--t0", "--phase", "--energies", "--step",
              "--format"],
    "sweep": [f"--tau{n}-{part}" for n in (1, 2) for part in ("start", "stop", "count")]
             + ["--omega", "--energies", "--mode", "--tolerance", "--out", "--format"],
    "check-condition": ["--tau1", "--tau2", "--omega", "--energies", "--tolerance", "--format"],
}
#: Flag values: signed, non-finite and exponent numbers, comma lists, names, file names and "".
FLAG_VALUES = st.sampled_from([
    "0", "2", "1.5", "-1", "-0", "-2.5e-3", "1e400", "inf", "-inf", "nan", "-nan", "1,3", "-1,-3",
    "1,2,3,4", "-1,inf,3,4", "1,,3", "coherent", "sudden", "natural-phase", "csv", "json", "yaml",
    "out.csv", "out.json", "run.cfg", "x", "",
])
#: Tokens that are no flag of a subcommand: help, the end of flags, unknown flags and words.
LOOSE_TOKENS = st.sampled_from(["-h", "--help", "--", "--bogus", "-x", "--tau", "--e", "-1", "x",
                                "pulse", "shor-demo"])


def command_argv(command):
    """``command`` and flags of its own: "--flag value", "--flag=value", abbreviations and loose tokens."""
    flags = st.sampled_from(COMMAND_FLAGS[command])
    abbreviations = st.tuples(flags, st.integers(3, 12)).map(lambda cut: cut[0][:cut[1]])
    items = st.one_of(
        st.tuples(st.one_of(flags, abbreviations), FLAG_VALUES).map(list),
        st.tuples(st.one_of(flags, abbreviations), FLAG_VALUES).map(lambda pair: ["=".join(pair)]),
        LOOSE_TOKENS.map(lambda token: [token]),
    )
    return st.lists(items, max_size=6).map(lambda parts: [command, *itertools.chain(*parts)])


ARGVS = st.tuples(
    st.one_of(st.sampled_from(list(COMMAND_FLAGS)).flatmap(command_argv),
              st.lists(st.one_of(LOOSE_TOKENS, st.sampled_from(["bogus-command", "check"])), max_size=3)),
    st.booleans(),
).map(lambda drawn: tuple(drawn[0]) if drawn[1] else drawn[0])


def top_level_route(argv):
    """``cli.main`` with every argv read by the top-level parser first, which hands a command's flags on."""
    try:
        args = cli.build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return cli.EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_USAGE


def outcome(route, argv) -> tuple:
    """Exit code (or SystemExit code), stdout, stderr and the files written, in a fresh directory."""
    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = route(argv)
                except SystemExit as exc:
                    code = ("exit", exc.code)
            files = {path.name: path.read_bytes() for path in Path(tmp).iterdir()}
        finally:
            os.chdir(home)
    return code, out.getvalue(), err.getvalue(), files


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=400)
@hypothesis.given(ARGVS)
@hypothesis.example([])
@hypothesis.example(["--help"])
@hypothesis.example(["bogus-command", "--tau1", "1"])
@hypothesis.example(("pulse", "--are", "1"))
@hypothesis.example(["pulse", "--area=1.5", "--", "x"])
@hypothesis.example(["pulse", "--", "--area", "1"])
@hypothesis.example(["pulse", "--area", "1", "-h"])
@hypothesis.example(["-h", "pulse"])
@hypothesis.example(["check-condition", "--tau1", "-inf", "--omega=-1,nan,3,4"])
@hypothesis.example(["shor-demo", "--tau", "1"])
@hypothesis.example(["sweep", "--bogus", "--out", "x.csv"])
@hypothesis.example(("sweep", "--tau1-start", "0", "--tau1-stop", "1", "--tau1-count", "2", "--tau2-start",
                     "-0", "--tau2-stop", "1e-3", "--tau2-count", "3", "--out=out.json"))
def test_main_reads_a_command_as_the_top_level_parser_does(argv):
    # main hands a named command's flags straight to that command's parser;
    # every argv must end as it does when the top-level parser reads it first.
    assert outcome(cli.main, argv) == outcome(top_level_route, argv)


#: Amplitudes as the pulse report meets them (modulus up to 1, any phase), and any complex
#: whose modulus, which the report also prints, is finite.
AMPLITUDES = st.one_of(st.builds(cmath.rect, st.floats(0.0, 1.0), st.floats(-math.pi, math.pi)),
                       st.complex_numbers(max_magnitude=1e308, allow_nan=False, allow_infinity=False))


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@hypothesis.given(AMPLITUDES)
@hypothesis.example(complex(0.0, 0.0))
@hypothesis.example(complex(-0.0, 0.0))
@hypothesis.example(complex(0.0, -0.0))
@hypothesis.example(complex(-0.0, -0.0))
@hypothesis.example(complex(1.0, 0.0))
@hypothesis.example(complex(1.0, -0.0))
@hypothesis.example(complex(0.0, 1.0))
@hypothesis.example(complex(-0.0, -1.0))
@hypothesis.example(complex(-1.0, 0.0))
@hypothesis.example(complex(-1.0, -0.0))
@hypothesis.example(complex(-1.0, 5e-324))
@hypothesis.example(complex(-1.0, -5e-324))
@hypothesis.example(complex(-1.0, 1e-16))
@hypothesis.example(complex(-1.0, -1e-16))
@hypothesis.example(complex(2.0, 5e-324))
def test_report_phase_is_numpys_angle_as_printed(c):
    # The pulse report takes a phase from math.atan2; at the 12 digits it
    # prints, that is numpy's np.angle, on the axes, at signed zeros, next to
    # +-pi (where -pi wraps to pi) and where the angle underflows to 0 included.
    assert cli._amplitude(c)["phase"] == cli._sig(statevec.wrap_phase(float(np.angle(c))))


#: Per settings key: its values in range, its edge values (valid or refused), and the
#: forms that take a validator's general path: numpy scalars, numeric strings, integral
#: floats, lists, 1-D arrays and lists of numpy scalars. A bool is refused in either form.
SPECTRUM_EDGES = [math.nan, math.inf, -math.inf, 1e308, -1e308, -0.0, 5e-324]
SETTING_KEYS = {
    "mode": (st.sampled_from(["free-evolution", "natural-phase"]), [], [np.str_]),
    "tau1": (DELAYS, [0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.5, math.nan, math.inf,
                      -math.inf, True], [np.float64, repr]),
    "seed": (st.integers(-2**53, 2**53), [True, False], [np.int64, str, float]),
    "retry_cap": (st.integers(1, 40), [0, -3, True], [np.int64, str, float]),
    "tolerance": (st.floats(1e-12, 1.0), [0.0, -1e-9, math.nan, math.inf, 1e308, True],
                  [np.float64, repr]),
    "format": (st.sampled_from(["json", "csv"]), [], [np.str_]),
}
SETTING_KEYS["tau2"] = SETTING_KEYS["tau1"]
SPECTRUM_FORMS = [list, np.array, lambda values: list(map(np.float64, values))]


@st.composite
def settings_in_two_forms(draw):
    """A settings dict of Python floats, ints and tuples, and the same values in other forms.

    At most one key holds an edge value: a spectrum edge is a wrong count or up
    to three entries from SPECTRUM_EDGES, whose finite ones may make the sum overflow.
    """
    edge = draw(st.sampled_from([None, "spectrum", *SETTING_KEYS]))
    python, general = {}, {}
    for key, (values, edges, forms) in SETTING_KEYS.items():
        if key == edge and edges:
            value = draw(st.sampled_from(edges))
        elif draw(st.booleans()):
            value = draw(values)
        else:
            continue
        python[key] = value
        general[key] = np.bool_(value) if type(value) is bool else draw(st.sampled_from(forms))(value)
    key = draw(st.sampled_from([None, "omega", "energies"]) if edge != "spectrum"
               else st.sampled_from(["omega", "energies"]))
    if key is not None:
        size = 4 if key == "omega" else 16
        if edge == "spectrum" and draw(st.booleans()):
            size = draw(st.sampled_from([0, 3, 5, 15, 17]))
        values = draw(st.lists(st.floats(-20.0, 20.0), min_size=size, max_size=size))
        if edge == "spectrum" and size in (4, 16):
            at = st.integers(0, size - 1)
            for i, value in draw(st.lists(st.tuples(at, st.sampled_from(SPECTRUM_EDGES)),
                                          min_size=1, max_size=3)):
                values[i] = value
        python[key] = tuple(values)
        general[key] = draw(st.sampled_from(SPECTRUM_FORMS))(python[key])
    return python, general


def typed_fields(value) -> list:
    """(type name, value) of each field of a config, the delays and spectrum entry by entry;
    a float by float.hex."""
    if dataclasses.is_dataclass(value):
        return [t for f in dataclasses.fields(value) for t in typed_fields(getattr(value, f.name))]
    if isinstance(value, tuple):
        return [t for v in value for t in typed_fields(v)]
    return [(type(value).__name__, value.hex() if isinstance(value, float) else repr(value))]


def config_or_refusal(settings):
    """The config ``build_config`` makes of ``settings``, or its ConfigError text."""
    try:
        return build_config(settings)
    except ConfigError as exc:  # a numpy bool is named as its Python bool
        return str(exc).replace("np.True_", "True").replace("np.False_", "False")


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@hypothesis.given(settings_in_two_forms())
@hypothesis.example(({"energies": (1e308,) * 16}, {"energies": np.full(16, 1e308)}))
@hypothesis.example(({"omega": (1e308, 1e308, 0.0, 0.0)}, {"omega": [1e308, 1e308, 0.0, 0.0]}))
@hypothesis.example(({"tau1": 1.5, "tau2": 0.25}, {"tau1": np.float64(1.5), "tau2": "0.25"}))
def test_a_settings_value_builds_one_config_in_any_form(pair):
    # Exact Python floats and ints take the validators' fast paths; numpy
    # scalars, strings, lists and arrays take the general ones. The two must
    # build equal configs, field types and float bits included, or refuse
    # with the same text. A sum of finite energies that overflows is accepted.
    python, general = pair
    fast, slow = config_or_refusal(python), config_or_refusal(general)
    if isinstance(fast, str):
        assert slow == fast
    else:
        assert isinstance(slow, ExperimentConfig) and slow == fast
        assert typed_fields(slow) == typed_fields(fast)


@st.composite
def wide_spectrum_settings(draw):
    """A settings dict of in-range values for some keys, and four or 16 energies up to +-1.8e308."""
    settings = {key: draw(values) for key, (values, _, _) in SETTING_KEYS.items() if draw(st.booleans())}
    key = draw(st.sampled_from(["omega", "energies"]))
    size = 4 if key == "omega" else 16
    settings[key] = tuple(draw(st.lists(WIDE_ENERGY, min_size=size, max_size=size)))
    return settings


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=500)
@hypothesis.given(wide_spectrum_settings())
@hypothesis.example({"omega": (1e308, 1e308, 0.0, 0.0)})
@hypothesis.example({"omega": (1e308, -1e308, -0.0, 0.0), "tau1": 5e-324})
def test_every_accepted_config_reloads_as_itself(settings):
    # config_to_text promises a file that rebuilds the same run: whatever build_config
    # accepts, its text must build an equal config with the same energy bits.
    try:
        config = build_config(settings)
    except ConfigError:
        return
    reloaded = build_config(parse_config_text(config_to_text(config)))
    assert reloaded == config
    assert list(map(float.hex, reloaded.spectrum)) == list(map(float.hex, config.spectrum))
