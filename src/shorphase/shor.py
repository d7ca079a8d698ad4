"""Experiment orchestration: interference condition, period extraction, factoring.

The x register has D = 4 states; a clean run measures only x = 0 or x = 2,
the period is T = D/x for the nonzero outcome, and the factor of 4 comes from
gcd(z - 1, 4) or gcd(z + 1, 4) with z = 3^(T/2). With nonzero delays the
clean pattern survives only if
two energy-weighted delay combinations are integer multiples of 2*pi;
``check_condition`` reports those combinations wrapped into (-pi, pi].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _pcg64, statevec, transforms
from .config import DelaySchedule, ExperimentConfig, PipelineMode, _check_positive
from .statevec import wrap_phase

#: Number of states in the x register.
D = 4

#: The base of the periodic function, the only value coprime with 4.
BASE = 3

#: Factors of 4 that carry no information.
_TRIVIAL = (1, 4)

#: The x distribution of an undisturbed run.
IDEAL_X_DISTRIBUTION = {0: 0.5, 1: 0.0, 2: 0.5, 3: 0.0}

#: Configs that ``sweep`` computes as one batch, grid points of the CLI sweep
#: computed as one batch, and rows of the sweep file made and written as one
#: block of text; bounds the array memory of a batch and the text of a block.
_SWEEP_CHUNK = 2048

#: float64 cannot resolve a residual a*tau1 + b*tau2 more finely than a few
#: eps*(|a*tau1| + |b*tau2|): rounding the gaps, the products, their sum and the
#: wrap by 2*pi give up to about 3 of them. A residual within this many counts
#: as zero; on the satisfying delays of the default spectrum it reaches 3.4.
_RESOLUTION = 8 * np.finfo(float).eps


class PeriodExtractionError(ValueError):
    """Measured x does not divide the register size; the run is corrupted."""


@dataclass(frozen=True)
class ConditionResidual:
    """Wrapped residuals of the two interference conditions.

    delta1 pairs the x=2 branch against the x=0 branch (both land on y=1);
    delta2 pairs x=3 against x=1 (both land on y=3). The clean pattern
    survives iff both vanish mod 2*pi; ``satisfied`` says both are within the
    tolerance, or within what float64 resolves at these delays.
    """

    delta1: float
    delta2: float
    satisfied: bool


def _residuals(spectrum, tau1, tau2, tol):
    """Wrapped residuals (delta1, delta2) as one (..., 2) array, and the verdict.

    ``spectrum`` is a 16-entry table or a (B, 16) array, one per row; the
    delays and the checked ``tol`` are scalars or (B,) arrays. A residual that
    is not finite (E*tau overflowed) is refused, naming the first bad row. A
    residual a*tau1 + b*tau2 is satisfied iff its wrapped value is within
    max(tol, _RESOLUTION*(|a*tau1| + |b*tau2|)) of zero, so rounding noise at
    large delays does not read as broken interference.
    """
    # e[..., m, s]: the energy of branch m before (s = 0) and after (s = 1) the
    # function evaluation. Residual r pairs branch r + 2 with branch r: same y.
    e = np.asarray(spectrum, dtype=float)[..., transforms._BRANCHES]
    t1, t2 = np.asarray(tau1)[..., None], np.asarray(tau2)[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        # A gap may overflow too; its residual is then refused below.
        a_t1 = (e[..., 2:, 0] - e[..., :2, 0]) * t1
        b_t2 = (e[..., 2:, 1] - e[..., :2, 1]) * t2
        raw = a_t1 + b_t2
        # |a*tau1| + |b*tau2| may overflow where raw does not; then nothing is resolved.
        bound = np.maximum(np.asarray(tol)[..., None], _RESOLUTION * (abs(a_t1) + abs(b_t2)))
    statevec._refuse_first(~np.isfinite(raw), "interference residuals are not finite: E*tau "
                           "overflows at tau1 = {tau1}, tau2 = {tau2}", tau1=t1, tau2=t2)
    delta = wrap_phase(raw)
    return delta, (abs(delta) <= bound).all(axis=-1)


def _evaluate(spectrum, mode, tau1, tau2, tol):
    """Final states, x marginals, residuals (delta1, delta2) and the verdict.

    ``spectrum`` is one 16-entry array for every row or a (B, 16) array; the
    delays and the checked ``tol`` are scalars or (B,) arrays. ``mode`` is one
    ``PipelineMode`` for every row or, for a batch of (B, 16) spectra and (B,)
    delays that holds both modes, a (B,) bool mask of its natural-phase rows;
    only the final states are computed per mode. Each check names every bad
    row (``statevec._refuse_first``). A run fails as the pipeline would: a bad
    phase, the y=0 leak or the norm is reported before a bad residual.
    """
    if isinstance(mode, PipelineMode):
        states = transforms._final_states(spectrum, mode, tau1, tau2)
    else:
        states = np.empty(spectrum.shape, dtype=complex)
        for rows, each in ((~mode, PipelineMode.FREE_EVOLUTION), (mode, PipelineMode.NATURAL_PHASE)):
            try:
                states[rows] = transforms._final_states(spectrum[rows], each, tau1[rows], tau2[rows])
            except ValueError as exc:  # the refused rows, by their place in the whole batch
                exc.rows = dict(zip(np.flatnonzero(rows)[list(exc.rows)].tolist(), exc.rows.values()))
                raise
    marginals = statevec._x_marginals(states)
    return states, marginals, *_residuals(spectrum, tau1, tau2, tol)


def check_condition(spectrum, delays: DelaySchedule, tol: float = 1e-9) -> ConditionResidual:
    """Evaluate both interference residuals for a spectrum and delay pair."""
    table = statevec.make_spectrum(spectrum)
    delta, satisfied = _residuals(table, delays.tau1, delays.tau2, _check_positive(tol, "tolerance"))
    return ConditionResidual(*delta.tolist(), bool(satisfied))


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
    # z is odd, so one of z - 1 and z + 1 is 2 mod 4: if z - 1 gives 4, z + 1 gives 2.
    g = math.gcd(z - 1, D)
    return math.gcd(z + 1, D) if g in _TRIVIAL else g


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


def _outcome(measured_x: int) -> tuple:
    """(period, factor, diagnostic) of a measured x != 0."""
    try:
        period = extract_period(measured_x)
    except PeriodExtractionError as exc:
        return None, None, str(exc)
    factor = factor_from_period(period)
    return period, factor, None if factor else f"period {period} yields no nontrivial factor"


#: The period, factor and diagnostic of each x != 0: they depend on x alone.
_OUTCOMES = {x: _outcome(x) for x in range(1, D)}

#: Batches of at least this many configs draw from ``_pcg64.Pcg64``; below it,
#: numpy's per-seed generator is faster (crossover 16-32 rows on a 2-vCPU host).
_STREAM_MIN_ROWS = 32


def _seeded_draws(seeds, caps, marginals):
    """Measured x and retry count of each row, from its ``default_rng(seed)`` stream.

    x = 0 carries no period information, so rows draw in rounds: each round
    draws again for the rows still at x = 0 with retries left. A batch of
    ``_STREAM_MIN_ROWS`` or more seeds in [0, 2**128) draws from the batched
    stream; any other batch uses ``np.random.default_rng(seed)``, so every
    negative seed is refused with numpy's own error.
    """
    n = len(seeds)
    batched = n >= _STREAM_MIN_ROWS and all(0 <= s < _pcg64.SEED_LIMIT for s in seeds)
    stream = _pcg64.Pcg64(seeds) if batched else None
    try:
        gens = [] if batched else [np.random.default_rng(s) for s in seeds]
    except ValueError as exc:  # numpy refuses exactly the negative seeds, each alike
        statevec._refuse_first(np.array([s < 0 for s in seeds]), str(exc))
    u, retries, rows, p0 = [0.0] * n, [0] * n, list(range(n)), marginals[:, 0].tolist()
    while rows:
        drawn = (stream.random(np.array(rows)).tolist() if batched
                 else [gens[i].random() for i in rows])
        again = []
        for i, v in zip(rows, drawn):
            u[i] = v
            # x = 0 exactly when u < p0, the draw rule's first threshold.
            if v < p0[i] and retries[i] < caps[i]:
                retries[i] += 1
                again.append(i)
        rows = again
    return statevec._draw_rule(np.array(u), marginals).tolist(), retries


def _finish(config: ExperimentConfig, state, distribution, residuals, measured_x,
            retries) -> RunReport:
    """The per-config step of a batch: the report, with the period and factor of its x.

    A run that measured x = 0 on every draw up to ``config.retry_cap`` retries
    gives up with a diagnostic, and so does an x that does not divide the
    register size (possible only when interference is destroyed).
    """
    if measured_x:
        period, factor, diagnostic = _OUTCOMES[measured_x]
    else:
        period = factor = None
        diagnostic = f"retry cap exhausted: {retries + 1} consecutive measurements returned x = 0"
    return RunReport(config, state, distribution, residuals, measured_x, period, factor, retries,
                     diagnostic)


def _run_batch(configs: list) -> list:
    """The report of each config, or the exception that refused it, computed as one batch.

    Each config brings its own mode, spectrum, delays, tolerance, seed and
    retry cap; only ``_finish`` runs per config. A row that a check refuses
    passed every earlier check, so it keeps that error as its own, and the
    other rows are evaluated again: one more pass per refusing check.
    """
    results, rows = [None] * len(configs), []
    for i, c in enumerate(configs):
        try:
            rows.append((i, c.mode, c.spectrum, c.delays.tau1, c.delays.tau2, c.tolerance, c.seed,
                         c.retry_cap))
        except AttributeError as exc:  # an item that is not a config
            results[i] = exc
    while rows:
        index, modes, spectra, tau1, tau2, tols, seeds, caps = zip(*rows)
        natural = [m is PipelineMode.NATURAL_PHASE for m in modes]
        mode = np.array(natural) if any(natural) and not all(natural) else modes[0]
        # Each spectrum is a 16-tuple of floats; fromiter skips np.array's nested-shape search.
        table = np.fromiter(itertools.chain.from_iterable(spectra), float, statevec.DIM * len(rows))
        try:
            states, marginals, deltas, satisfied = _evaluate(
                table.reshape(-1, statevec.DIM), mode, np.array(tau1), np.array(tau2), np.array(tols)
            )
            x, retries = _seeded_draws(seeds, caps, marginals)
        except ValueError as exc:
            for r, error in exc.rows.items():
                results[index[r]] = error
            rows = [row for r, row in enumerate(rows) if r not in exc.rows]
            continue
        for i, state, (p0, p1, p2, p3), (d1, d2), verdict, xi, retry in zip(
                index, states, marginals.tolist(), deltas.tolist(), satisfied.tolist(), x, retries):
            try:
                results[i] = _finish(configs[i], state, {0: p0, 1: p1, 2: p2, 3: p3},
                                     ConditionResidual(d1, d2, verdict), xi, retry)
            except Warning:
                raise
            except Exception as exc:
                results[i] = exc
        break
    return results


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Run the pipeline, measure, and post-process; deterministic given the seed.

    The one-config batch of ``sweep``, through the same batched core. Errors
    are raised.
    """
    report = _run_batch([config])[0]
    if isinstance(report, Exception):
        raise report
    return report


def sweep(configs) -> list[RunReport]:
    """One report per config, in order; failures are recorded, never raised.

    Each run of up to ``_SWEEP_CHUNK`` configs, in input order and of either
    mode, is computed as one batch with one set-up of the seeded draws; only
    the report is built per config. A config that fails gets its own error on
    its report, and no config is computed alone. A warning raised as an
    exception (a ``-W error`` filter) is not recorded: it reaches the caller.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("sweep needs at least one config")
    results = [result for start in range(0, len(configs), _SWEEP_CHUNK)
               for result in _run_batch(configs[start:start + _SWEEP_CHUNK])]
    return [RunReport(config=config, error=f"{type(result).__name__}: {result}")
            if isinstance(result, Exception) else result for config, result in zip(configs, results)]
