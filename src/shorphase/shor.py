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
from .config import DelaySchedule, ExperimentConfig, PipelineMode
from .statevec import basis_index, wrap_phase

#: Number of states in the x register.
D = 4

#: The base of the periodic function, the only value coprime with 4.
BASE = 3

#: Factors of 4 that carry no information.
_TRIVIAL = (1, 4)

#: The x distribution of an undisturbed run.
IDEAL_X_DISTRIBUTION = {0: 0.5, 1: 0.0, 2: 0.5, 3: 0.0}

#: Configs that ``sweep`` computes as one batch, and grid points of the CLI
#: sweep; bounds the array memory of one batch.
_SWEEP_CHUNK = 2048


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


def _residuals(spectrum, tau1, tau2, tol):
    """Wrapped residuals delta1, delta2 and the verdict, for scalar or (B,) delays.

    ``spectrum`` is a 16-entry table or a (B, 16) array, one per row, and
    ``tol`` a scalar or a (B,) array. The tolerance must be positive and
    finite, as in ``ExperimentConfig``. A residual that is not finite (E*tau
    overflowed) is refused, naming the first bad row, instead of being
    wrapped into NaN.
    """
    i = statevec._first(~(np.isfinite(tol) & (tol > 0.0)))
    if i is not None:
        bad = np.ravel(tol)[i]
        rule = "positive" if np.isfinite(bad) else "finite"
        raise ValueError(f"tolerance must be {rule}, got {bad}")
    # Entry k of e is E_k: a float, or the (B,) column of a (B, 16) batch.
    e = np.asarray(spectrum, dtype=float)
    e = e.tolist() if e.ndim == 1 else e.T

    def gap(m: int, n: int, k: int, y: int):
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


def _evaluate(spectrum, mode: PipelineMode, tau1, tau2, tol):
    """Final states, x marginals and residuals delta1, delta2, satisfied.

    ``spectrum`` is one 16-entry array for every row or a (B, 16) array, the
    delays are scalars or (B,) arrays, and ``tol`` a scalar or a (B,) array.
    Each check names its first bad row. A run fails as the pipeline would: a
    bad phase, the y=0 leak or the norm is reported before a bad residual.
    """
    try:
        residuals = _residuals(spectrum, tau1, tau2, tol)
    except ValueError:
        statevec._x_marginals(transforms._final_states(spectrum, mode, tau1, tau2))
        raise
    states = transforms._final_states(spectrum, mode, tau1, tau2)
    return states, statevec._x_marginals(states), *residuals


def check_condition(spectrum, delays: DelaySchedule, tol: float = 1e-9) -> ConditionResidual:
    """Evaluate both interference residuals for a spectrum and delay pair."""
    table = statevec.make_spectrum(spectrum)
    delta1, delta2, satisfied = _residuals(table, delays.tau1, delays.tau2, tol)
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


def _finish(config: ExperimentConfig, state, distribution, residuals) -> RunReport:
    """The per-config step after the batch: seeded draw with retries, period and factor.

    x = 0 carries no period information, so the measurement is redrawn from
    the same seeded stream up to ``config.retry_cap`` times before giving up
    with a diagnostic. A measured x that does not divide the register size
    (possible only when interference is destroyed) is likewise reported as a
    diagnostic instead of a period.
    """
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


def _evaluate_configs(configs: list) -> list[tuple]:
    """(final state, x distribution, residuals) of each config, computed as one batch.

    The configs share a mode; each brings its own spectrum, delays and tolerance.
    """
    states, marginals, delta1, delta2, satisfied = _evaluate(
        np.array([c.spectrum for c in configs]),
        configs[0].mode,
        np.array([c.delays.tau1 for c in configs]),
        np.array([c.delays.tau2 for c in configs]),
        np.array([c.tolerance for c in configs]),
    )
    rows = zip(states, marginals.tolist(), delta1.tolist(), delta2.tolist(), satisfied.tolist())
    return [(state, dict(enumerate(dist)), ConditionResidual(*residual))
            for state, dist, *residual in rows]


def _guarded(step, config, *args) -> RunReport:
    """``step(config, *args)``, or a report carrying the error it raised."""
    try:
        return step(config, *args)
    except Exception as exc:
        return RunReport(config=config, error=f"{type(exc).__name__}: {exc}")


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Run the pipeline, measure, and post-process; deterministic given the seed.

    The one-config case of ``sweep``: the same core on scalar delays, then
    ``_finish``. Errors are raised.
    """
    state, marginals, delta1, delta2, satisfied = _evaluate(
        np.asarray(config.spectrum), config.mode, config.delays.tau1, config.delays.tau2,
        config.tolerance,
    )
    residuals = ConditionResidual(float(delta1), float(delta2), bool(satisfied))
    return _finish(config, state, dict(enumerate(marginals.tolist())), residuals)


def sweep(configs) -> list[RunReport]:
    """One report per config, in order; failures are recorded, never raised.

    Configs are grouped by mode and computed in batches of ``_SWEEP_CHUNK``;
    only the seeded draw runs per config. A batch that raises is redone
    config by config through ``run_experiment``, so each failing config gets
    its own error.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("sweep needs at least one config")
    by_mode: dict = {}
    for i, config in enumerate(configs):
        # A non-config has no mode; its batch fails and it gets its own error.
        by_mode.setdefault(getattr(config, "mode", None), []).append(i)
    reports = [None] * len(configs)
    for indices in by_mode.values():
        for start in range(0, len(indices), _SWEEP_CHUNK):
            chunk = indices[start:start + _SWEEP_CHUNK]
            batch = [configs[i] for i in chunk]
            try:
                outputs = _evaluate_configs(batch)
            except Exception:
                done = [_guarded(run_experiment, config) for config in batch]
            else:
                done = [_guarded(_finish, config, *out) for config, out in zip(batch, outputs)]
            for i, report in zip(chunk, done):
                reports[i] = report
    return reports
