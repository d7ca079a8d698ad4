"""Each run against the same run restated at 50 digits; derandomized, so every run draws the same.

A float converts to an mpmath number exactly, so the restatement, run at 50
digits from the given floats, is the true answer for them. Each phase E*tau
is rounded to within eps*|E*tau|, and the few roundings after it add a few
eps, so every amplitude, marginal and residual must lie within
4*eps*max|E|*(tau1 + tau2) + 4*eps of the true one.
"""

import numpy as np
import pytest

from shorphase import shor
from shorphase.config import DelaySchedule, ExperimentConfig, PipelineMode

mpmath = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

#: A context of its own, so no other module's mpmath precision changes.
mp = mpmath.MPContext()
mp.dps = 50

EPS = np.finfo(float).eps
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
