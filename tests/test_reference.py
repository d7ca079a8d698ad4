"""Each run and pulse against the same one restated at 50 digits; derandomized, so every run draws the same.

A float converts to an mpmath number exactly, so the restatement, run at 50
digits from the given floats, is the true answer for them. Each phase E*tau
is rounded to within eps*|E*tau|, and the few roundings after it add a few
eps, so every amplitude, marginal and residual must lie within
4*eps*max|E|*(tau1 + tau2) + 4*eps of the true one. A pulse's phases are
E_k*t0, E_p*(t0 + tau) and, referenced to its start, w_pk*t0, and its area
rabi*tau/2 is rounded like them, so its amplitudes must lie within a few
eps*(max(|E_k|, |E_p|)*(|t0| + tau) + |w_pk|*|t0| + rabi*tau/2 + 1) of the
true ones.
"""

import numpy as np
import pytest

from shorphase import pulses, shor
from shorphase.config import DelaySchedule, ExperimentConfig, PipelineMode
from shorphase.pulses import PulseMode, PulseSpec, TwoLevelState, TwoLevelSystem, natural_init

mpmath = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

#: A context of its own, so no other module's mpmath precision changes.
mp = mpmath.MPContext()
mp.dps = 50

EPS = np.finfo(float).eps
TINY = 5e-324  # the least subnormal
ENERGIES = st.lists(st.floats(-20.0, 20.0), min_size=16, max_size=16)
#: Delays log-uniform over 1e-3 .. 1e9.
LOG_DELAYS = st.floats(-3.0, 9.0).map(lambda power: 10.0 ** power)

#: e^{2 pi i k x / 4}, the DFT's phases, by k*x mod 4.
TURNS = (1, 1j, -1, -1j)


def reference(energies, mode: PipelineMode, tau1: float, tau2: float) -> tuple:
    """The final state (16 entries, index 4x+y), the x marginals and (delta1, delta2), at 50 digits."""
    e = [mp.mpf(v) for v in energies]
    t1, t2 = mp.mpf(tau1), mp.mpf(tau2)
    natural = mode is PipelineMode.NATURAL_PHASE
    state = [mp.mpc(0)] * 16
    histories = []
    for m in range(4):
        # The spread puts 1/2 on |m,0>; it idles tau1 there, moves to |m, 3^m mod 4>
        # and idles tau2 there (a natural-phase run computes the zero-delay state).
        y = 3**m % 4
        history = -(e[4 * m] * t1 + e[4 * m + y] * t2)
        histories.append(history)
        amp = mp.mpf(0.5) if natural else mp.mpf(0.5) * mp.expj(history)
        for k in range(4):
            state[4 * k + y] += mp.mpf(0.5) * TURNS[k * m % 4] * amp
    if natural:
        # Then each basis state gains its terminal phase -E*(tau1 + tau2).
        state = [a * mp.expj(-e[j] * (t1 + t2)) for j, a in enumerate(state)]
    marginals = [sum(abs(a) ** 2 for a in state[4 * x:4 * x + 4]) for x in range(4)]
    # delta1 pairs branch 0 with branch 2, delta2 branch 1 with branch 3: both of a pair land on one y.
    deltas = [histories[r] - histories[r + 2] for r in range(2)]
    return state, marginals, deltas


def off_by_turns(value: float, exact):
    """|value - exact| with the difference taken mod 2*pi, into [-pi, pi]."""
    gap = mp.mpf(value) - exact
    return abs(gap - 2 * mp.pi * mp.nint(gap / (2 * mp.pi)))


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=300)
@hypothesis.given(ENERGIES, LOG_DELAYS, LOG_DELAYS)
@hypothesis.example([0.0] * 16, 0.0, 0.0)
@hypothesis.example([-20.0, 20.0] * 8, 1e9, 1e9)
def test_a_run_is_within_its_phase_rounding_of_the_50_digit_run(energies, tau1, tau2):
    bound = 4 * EPS * max(map(abs, energies)) * (tau1 + tau2) + 4 * EPS
    for mode in PipelineMode:
        config = ExperimentConfig(mode=mode, delays=DelaySchedule(tau1, tau2), spectrum=tuple(energies))
        report = shor.run_experiment(config)
        state, marginals, deltas = reference(energies, mode, tau1, tau2)
        assert max(abs(mp.mpc(a) - b) for a, b in zip(report.final_state.tolist(), state)) <= bound
        assert max(abs(report.x_distribution[x] - marginals[x]) for x in range(4)) <= bound
        got = (report.residuals.delta1, report.residuals.delta2)
        assert max(map(off_by_turns, got, deltas)) <= bound


#: Pulse fields: |E| <= 20, rabi <= 10, tau in (0, 10], a phase that wraps, and
#: start times of either sign, log-uniform over 1e-3 .. 1e9.
ENERGY = st.floats(-20.0, 20.0)
RABI = st.floats(0.0, 10.0)
TAU = st.floats(0.0, 10.0, exclude_min=True)
PHASE = st.floats(-100.0, 100.0)
T0 = st.tuples(st.sampled_from([1.0, -1.0]), LOG_DELAYS).map(lambda pair: pair[0] * pair[1])

#: Each resonant mode and its engine.
EVOLVE = {
    PulseMode.COHERENT: pulses.evolve_coherent,
    PulseMode.NONCOHERENT: pulses.evolve_noncoherent,
    PulseMode.PHASE_CORRECTED: pulses.evolve_phase_corrected,
}


def pulse_reference(e_k: float, e_p: float, pulse: PulseSpec) -> tuple:
    """(C_k, C_p) after a resonant pulse from C_k(t0) = exp(-i*E_k*t0), C_p(t0) = 0, at 50 digits.

    The drive argument is w*(t - t0) + start, with w = E_p - E_k and start
    the argument at t0: w*t0 + phase for a coherent pulse (referenced to
    t = 0), ``phase`` for a noncoherent one and phase + w*t0 for a
    phase-corrected one. With C = (a*exp(-i*E_k*t), b*exp(-i*E_p*t)), the
    drive's argument at t = 0, phi = start - w*t0, is all a and b see:
    a = a0*cos(rabi*(t - t0)/2) and b = i*exp(-i*phi)*a0*sin(rabi*(t - t0)/2).
    """
    ek, ep, t0, tau, phase = map(mp.mpf, (e_k, e_p, pulse.t0, pulse.tau, pulse.phase))
    w = ep - ek
    start = {PulseMode.COHERENT: w * t0 + phase, PulseMode.NONCOHERENT: phase,
             PulseMode.PHASE_CORRECTED: phase + w * t0}[pulse.mode]
    phi, half_angle, end = start - w * t0, mp.mpf(pulse.rabi) * tau / 2, t0 + tau
    a0 = mp.expj(-ek * t0) * mp.expj(ek * t0)
    a, b = a0 * mp.cos(half_angle), 1j * mp.expj(-phi) * a0 * mp.sin(half_angle)
    return a * mp.expj(-ek * end), b * mp.expj(-ep * end)


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=300)
@hypothesis.given(ENERGY, ENERGY, RABI, TAU, T0, PHASE)
@hypothesis.example(0.0, 0.0, 10.0, 10.0, 0.0, 0.0)
@hypothesis.example(-20.0, 20.0, 10.0, 10.0, -1e9, 100.0)
def test_a_pulse_is_within_its_phase_rounding_of_the_50_digit_pulse(e_k, e_p, rabi, tau, t0, phase):
    system = TwoLevelSystem(e_k, e_p)
    # The phases' measure, and the area's: at E = 0 its rounding alone is up to 25 eps.
    measure = (max(abs(e_k), abs(e_p)) * (abs(t0) + tau) + abs(system.omega_pk) * abs(t0)
               + 0.5 * rabi * tau + 1)
    for mode, evolve in EVOLVE.items():
        pulse = PulseSpec(mode=mode, rabi=rabi, t0=t0, tau=tau, phase=phase)
        got = evolve(system, pulse, natural_init(1.0, e_k, t0))
        want = pulse_reference(e_k, e_p, pulse)
        gap = max(abs(mp.mpc(got.c_k) - want[0]), abs(mp.mpc(got.c_p) - want[1]))
        assert gap <= 4 * EPS * measure


@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=200)
@hypothesis.given(st.complex_numbers(max_magnitude=1.0), st.complex_numbers(max_magnitude=1.0),
                  st.floats(-50.0, 50.0))
def test_a_sudden_pulse_is_within_its_rounding_of_the_50_digit_rotation(c_k, c_p, area):
    # The rotation (C_k, C_p) -> (C_k*cos(area) + i*C_p*sin(area), C_p*cos(area) + i*C_k*sin(area)).
    # A product of subnormals is rounded to a multiple of the least one, not to eps.
    got = pulses.evolve_sudden(TwoLevelState(c_k, c_p), area)
    k, p, cos, sin = mp.mpc(c_k), mp.mpc(c_p), mp.cos(area), mp.sin(area)
    gap = max(abs(mp.mpc(got.c_k) - (k * cos + 1j * p * sin)),
              abs(mp.mpc(got.c_p) - (p * cos + 1j * k * sin)))
    assert gap <= 4 * EPS * (abs(c_k) + abs(c_p)) + 4 * TINY
