"""Experiment orchestration: interference condition, period extraction, factoring.

The x register has D = 4 states; a clean run measures only x = 0 or x = 2,
the period is T = D/x for the nonzero outcome, and the factor of 4 comes from
gcd(z - 1, 4) or gcd(z + 1, 4) with z = 3^(T/2). With nonzero delays the
clean pattern survives only if
two energy-weighted delay combinations are integer multiples of 2*pi;
``check_condition`` reports those combinations wrapped into (-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import statevec, transforms
from .config import DelaySchedule, ExperimentConfig
from .statevec import basis_index, wrap_phase

#: Number of states in the x register.
D = 4

#: The base of the periodic function, the only value coprime with 4.
BASE = 3

#: Factors of 4 that carry no information.
_TRIVIAL = (1, 4)

#: The x distribution of an undisturbed run.
IDEAL_X_DISTRIBUTION = {0: 0.5, 1: 0.0, 2: 0.5, 3: 0.0}


class PeriodExtractionError(ValueError):
    """Measured x does not divide the register size; the run is corrupted."""


@dataclass(frozen=True)
class ConditionResidual:
    """Wrapped residuals of the two interference conditions.

    delta1 pairs the x=2 branch against the x=0 branch (both land on y=1);
    delta2 pairs x=3 against x=1 (both land on y=3). The clean pattern
    survives iff both vanish mod 2*pi.
    """

    delta1: float
    delta2: float
    satisfied: bool


def _residuals(spectrum, tau1, tau2, tol: float):
    """Wrapped residuals delta1, delta2 and the verdict, for scalar or (B,) delays.

    The tolerance must be positive and finite, as in ``ExperimentConfig``. A
    residual that is not finite (E*tau overflowed) is refused, naming the
    first bad row, instead of being wrapped into NaN.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tolerance must be positive, got {tol}")
    e = statevec.make_spectrum(spectrum).tolist()

    def gap(m: int, n: int, k: int, y: int) -> float:
        return e[basis_index(m, n)] - e[basis_index(k, y)]

    with np.errstate(over="ignore", invalid="ignore"):
        raw1 = gap(2, 0, 0, 0) * tau1 + gap(2, 1, 0, 1) * tau2
        raw2 = gap(3, 0, 1, 0) * tau1 + gap(3, 3, 1, 3) * tau2
    i = statevec._first(~(np.isfinite(raw1) & np.isfinite(raw2)))
    if i is not None:
        raise ValueError(
            "interference residuals are not finite: E*tau overflows at "
            f"tau1 = {np.ravel(tau1)[i]}, tau2 = {np.ravel(tau2)[i]}"
        )
    delta1, delta2 = wrap_phase(raw1), wrap_phase(raw2)
    return delta1, delta2, (abs(delta1) <= tol) & (abs(delta2) <= tol)


def check_condition(spectrum, delays: DelaySchedule, tol: float = 1e-9) -> ConditionResidual:
    """Evaluate both interference residuals for a spectrum and delay pair."""
    delta1, delta2, satisfied = _residuals(spectrum, delays.tau1, delays.tau2, tol)
    return ConditionResidual(delta1, delta2, bool(satisfied))


def extract_period(measured_x: int) -> int | None:
    """Period T = D / measured_x; None for the uninformative outcome x = 0."""
    if not 0 <= measured_x < D:
        raise ValueError(f"measured x out of range: {measured_x}")
    if measured_x == 0:
        return None
    if D % measured_x != 0:
        raise PeriodExtractionError(
            f"measured x = {measured_x} does not divide {D}; cannot extract a period"
        )
    return D // measured_x


def factor_from_period(period: int) -> int | None:
    """Factor of 4 from gcd(3^(T/2) - 1, 4), falling back to gcd(3^(T/2) + 1, 4).

    Odd periods give no integer exponent and return None; trial order is
    z - 1 before z + 1, first nontrivial divisor wins.
    """
    if period % 2 != 0:
        return None
    z = BASE ** (period // 2)
    for candidate in (z - 1, z + 1):
        g = math.gcd(candidate, D)
        if g not in _TRIVIAL:
            return g
    return None


@dataclass(eq=False)
class RunReport:
    """Everything one experiment produced; ``error`` is set only by sweeps."""

    config: ExperimentConfig
    final_state: np.ndarray | None = None
    x_distribution: dict[int, float] | None = None
    residuals: ConditionResidual | None = None
    measured_x: int | None = None
    period: int | None = None
    factor: int | None = None
    retries: int = 0
    diagnostic: str | None = None
    error: str | None = None


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Run the pipeline, measure, and post-process; deterministic given the seed.

    x = 0 carries no period information, so the measurement is redrawn from
    the same seeded stream up to ``config.retry_cap`` times before giving up
    with a diagnostic. A measured x that does not divide the register size
    (possible only when interference is destroyed) is likewise reported as a
    diagnostic instead of a period.
    """
    state = transforms.run_pipeline(config)
    distribution = statevec.measure_x_distribution(state)
    residuals = check_condition(config.spectrum, config.delays, config.tolerance)

    rng = np.random.default_rng(config.seed)
    measured = statevec.draw_x(distribution, rng)
    retries = 0
    while measured == 0 and retries < config.retry_cap:
        retries += 1
        measured = statevec.draw_x(distribution, rng)

    report = RunReport(
        config=config,
        final_state=state,
        x_distribution=distribution,
        residuals=residuals,
        measured_x=measured,
        retries=retries,
    )
    if measured == 0:
        report.diagnostic = (
            f"retry cap exhausted: {retries + 1} consecutive measurements returned x = 0"
        )
        return report
    try:
        report.period = extract_period(measured)
    except PeriodExtractionError as exc:
        report.diagnostic = str(exc)
        return report
    report.factor = factor_from_period(report.period)
    if report.factor is None:
        report.diagnostic = f"period {report.period} yields no nontrivial factor"
    return report


def sweep(configs) -> list[RunReport]:
    """One report per config, in order; failures are recorded, never raised."""
    configs = list(configs)
    if not configs:
        raise ValueError("sweep needs at least one config")
    reports = []
    for config in configs:
        try:
            reports.append(run_experiment(config))
        except Exception as exc:
            reports.append(RunReport(config=config, error=f"{type(exc).__name__}: {exc}"))
    return reports
