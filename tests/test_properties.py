"""Property checks over random spectra and delays; derandomized, so every run draws the same."""

import math

import pytest

from shorphase import shor
from shorphase.config import DelaySchedule, ExperimentConfig, PipelineMode

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
