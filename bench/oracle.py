"""Independent oracles for the benchmark's output checks.

Nothing here imports shorphase. Final states are assembled branch by branch
from a hand-transcribed table (each initial x lands on y = 3^x mod 4, carries
the phase it gathered at |x,0> during tau1 and at |x,y> during tau2, and is
spread over k with the transcribed Fourier coefficients), the interference
residuals are read off the same branch phases, and measurement draws are
replayed from a fresh ``default_rng(seed)``.

``pulse_failure`` returns None for a correct pulse report and a short reason
otherwise; ``sweep_failures`` and ``run_failures`` count the failing rows or
runs of one call or batch and give the first reason.
"""

from __future__ import annotations

import json
import math

import numpy as np
from numpy.random import default_rng  # bound at import: a traced run wraps the module attribute

TWO_PI = 2.0 * math.pi

#: Per initial x value: (y landing, Fourier coefficients over final k = 0..3).
BRANCH_TABLE = {
    0: (1, (1, 1, 1, 1)),
    1: (3, (1, 1j, -1, -1j)),
    2: (1, (1, -1, 1, -1)),
    3: (3, (1, -1j, -1, 1j)),
}

#: Absolute tolerance on probabilities and on |<1,1|psi>|.
PROB_TOL = 1e-12
#: Tolerance on a printed residual against the oracle's, modulo 2*pi.
DELTA_TOL = 1e-10
#: Tolerance on tau values against the expected grid, relative to max(1, |tau|).
TAU_TOL = 1e-12
#: Printed pulse moduli and phases carry 12 significant digits.
PULSE_TOL = 1e-10
#: Largest accepted |closed form - RK4| for the pulse inputs of ``inputs.pulse_requests``.
ODE_BOUND = 1e-6


def idx(m: int, n: int) -> int:
    return 4 * m + n


def energy_table(omega=None, energies=None) -> np.ndarray:
    """16-entry table: the given one, or E = w0*x0 + w1*x1 + w2*y0 + w3*y1 from qubit bits."""
    if energies is not None:
        return np.array(energies, dtype=float)
    w = (1.0, 2.3, 3.7, 5.1) if omega is None else omega
    table = np.zeros(16)
    for m in range(4):
        for n in range(4):
            table[idx(m, n)] = w[0] * (m & 1) + w[1] * (m >> 1) + w[2] * (n & 1) + w[3] * (n >> 1)
    return table


def branch_phases(tables, tau1, tau2) -> np.ndarray:
    """Phase E[x,0]*tau1 + E[x,y(x)]*tau2 of each branch x; shape (..., 4)."""
    tables = np.asarray(tables, dtype=float)
    tau1 = np.asarray(tau1, dtype=float)
    tau2 = np.asarray(tau2, dtype=float)
    return np.stack(
        [tables[..., idx(m, 0)] * tau1 + tables[..., idx(m, y)] * tau2
         for m, (y, _) in BRANCH_TABLE.items()],
        axis=-1,
    )


def final_states(tables, tau1, tau2, natural) -> np.ndarray:
    """Final 16-amplitude states, shape (..., 16).

    Free evolution: the sum of the four branch histories. Natural phase: the
    zero-delay state with exp(-i*E*(tau1 + tau2)) on every basis state.
    """
    tables = np.asarray(tables, dtype=float)
    tau1 = np.asarray(tau1, dtype=float)
    tau2 = np.asarray(tau2, dtype=float)
    natural = np.asarray(natural)[..., None]
    history = np.where(natural, 1.0, np.exp(-1j * branch_phases(tables, tau1, tau2)))
    out = np.zeros(history.shape[:-1] + (16,), dtype=complex)
    for m, (y, coeffs) in BRANCH_TABLE.items():
        for k in range(4):
            out[..., idx(k, y)] += 0.25 * coeffs[k] * history[..., m]
    clock = np.exp(-1j * tables * (tau1 + tau2)[..., None])
    return np.where(natural, out * clock, out)


def x_probs(states) -> np.ndarray:
    """x distribution (..., 4): |amplitude|^2 summed over y, normalized."""
    weights = (np.abs(np.asarray(states)) ** 2).reshape(np.shape(states)[:-1] + (4, 4)).sum(axis=-1)
    return weights / weights.sum(axis=-1, keepdims=True)


def residuals(phases) -> tuple[np.ndarray, np.ndarray]:
    """Raw (unwrapped) interference residuals: x=2 against x=0 on y=1, x=3 against x=1 on y=3."""
    phases = np.asarray(phases)
    return phases[..., 2] - phases[..., 0], phases[..., 3] - phases[..., 1]


def _angle_gap(a, b):
    """|a - b| modulo 2*pi, in [0, pi]."""
    return np.abs(np.remainder(np.asarray(a) - np.asarray(b) + math.pi, TWO_PI) - math.pi)


def _residual_failures(d1, d2, satisfied, raw1, raw2, tol) -> np.ndarray:
    """Per-row mask: printed residuals off the oracle, outside (-pi, pi], or a wrong verdict."""
    bad = (_angle_gap(d1, raw1) > DELTA_TOL) | (_angle_gap(d2, raw2) > DELTA_TOL)
    bad |= (np.abs(d1) > math.pi) | (np.abs(d2) > math.pi) | (d1 == -math.pi) | (d2 == -math.pi)
    bad |= satisfied != ((np.abs(d1) <= tol) & (np.abs(d2) <= tol))
    return bad


# ---------------------------------------------------------------------------
# sweep files

SWEEP_COLUMNS = ("tau1", "tau2", "delta1", "delta2", "satisfied", "p0", "p1", "p2", "p3", "amp11_mod")


def read_sweep_file(path, fmt: str) -> list[list]:
    """Rows of a sweep file as lists of raw cells in SWEEP_COLUMNS order."""
    with open(path) as f:
        if fmt == "json":
            return [[row[k] for k in SWEEP_COLUMNS] for row in json.load(f)]
        lines = f.read().splitlines()
    if not lines or tuple(lines[0].split(",")) != SWEEP_COLUMNS:
        raise ValueError(f"unexpected CSV header in {path}")
    return [line.split(",") for line in lines[1:]]


def _truth(cell) -> bool:
    if cell in (True, "true"):
        return True
    if cell in (False, "false"):
        return False
    raise ValueError(f"not a boolean: {cell!r}")


def sweep_failures(call, rows) -> tuple[int, str | None]:
    """Count of failing rows of one sweep call, and the first reason."""
    expected = call.points
    if len(rows) != expected:
        return expected, f"{len(rows)} rows, expected {expected}"
    cols = np.array([[float(c) for i, c in enumerate(row) if i != 4] for row in rows])
    tau1, tau2, d1, d2, p0, p1, p2, p3, amp11 = cols.T
    satisfied = np.array([_truth(row[4]) for row in rows])

    axis = np.linspace(0.0, call.stop, call.count)
    grid1, grid2 = np.repeat(axis, call.count), np.tile(axis, call.count)
    order = (np.abs(tau1 - grid1) > TAU_TOL * np.maximum(1.0, np.abs(grid1))) | (
        np.abs(tau2 - grid2) > TAU_TOL * np.maximum(1.0, np.abs(grid2)))

    table = energy_table(call.omega, call.energies)
    states = final_states(table, grid1, grid2, call.natural)
    state = (np.abs(np.stack([p0, p1, p2, p3], axis=-1) - x_probs(states)) > PROB_TOL).any(axis=-1)
    state |= np.abs(amp11 - np.abs(states[:, idx(1, 1)])) > PROB_TOL
    phases = branch_phases(table, grid1, grid2)
    condition = _residual_failures(d1, d2, satisfied, *residuals(phases), call.tolerance)

    bad = order | state | condition
    reason = None
    if bad.any():
        i = int(np.argmax(bad))
        what = "row order" if order[i] else "p0..p3/amp11_mod" if state[i] else "delta/satisfied"
        reason = f"{call.out.name} row {i} (tau1={tau1[i]!r}, tau2={tau2[i]!r}): {what}"
    return int(bad.sum()), reason


# ---------------------------------------------------------------------------
# experiment runs


def run_failures(settings: list[dict], reports: list) -> tuple[int, str | None, int]:
    """Failing runs of one batch, the first failure reason, and runs that found a factor."""
    if len(reports) != len(settings):
        return len(settings), f"{len(reports)} reports for {len(settings)} settings", 0
    tables = np.array([energy_table(s.get("omega"), s.get("energies")) for s in settings])
    tau1 = np.array([s.get("tau1", 0.0) for s in settings])
    tau2 = np.array([s.get("tau2", 0.0) for s in settings])
    natural = np.array([s.get("mode") == "natural-phase" for s in settings])
    states = final_states(tables, tau1, tau2, natural)
    probs = x_probs(states)
    raw1, raw2 = residuals(branch_phases(tables, tau1, tau2))

    failed = factors = 0
    first = None
    for i, (s, report) in enumerate(zip(settings, reports)):
        reason = _run_failure(s, report, states[i], probs[i], raw1[i], raw2[i])
        factors += report.factor is not None
        if reason is not None:
            failed += 1
            first = first or f"run {i} ({s}): {reason}"
    return failed, first, factors


def _run_failure(s: dict, report, state, probs, raw1, raw2) -> str | None:
    if report.error is not None:
        return f"error: {report.error}"
    if np.abs(np.asarray(report.final_state) - state).max() > PROB_TOL:
        return "final state differs from the branch-sum oracle"
    dist = report.x_distribution
    if sorted(dist) != [0, 1, 2, 3] or any(abs(dist[x] - probs[x]) > PROB_TOL for x in range(4)):
        return f"x distribution {dist} != {list(probs)}"
    res = report.residuals
    if _residual_failures(np.array(res.delta1), np.array(res.delta2), np.array(res.satisfied),
                          raw1, raw2, s.get("tolerance", 1e-9)):
        return f"residuals {res}"

    cumulative = np.cumsum(probs)
    rng = default_rng(s["seed"])

    def draw() -> int:
        return min(3, int(np.searchsorted(cumulative, rng.random(), side="right")))

    x, retries = draw(), 0
    while x == 0 and retries < s["retry_cap"]:
        retries += 1
        x = draw()
    if (report.measured_x, report.retries) != (x, retries):
        return f"measured x={report.measured_x} retries={report.retries}, replay x={x} retries={retries}"

    period = factor = None
    if x == 0:
        diagnostic = f"retry cap exhausted: {retries + 1} consecutive measurements returned x = 0"
    elif 4 % x:
        diagnostic = f"measured x = {x} does not divide 4; cannot extract a period"
    else:
        period, diagnostic = 4 // x, None
        half = 3 ** (period // 2)
        factor = next((g for g in (math.gcd(half - 1, 4), math.gcd(half + 1, 4)) if g not in (1, 4)),
                      None)
    if (report.period, report.factor, report.diagnostic) != (period, factor, diagnostic):
        return (f"period/factor/diagnostic {report.period}/{report.factor}/{report.diagnostic!r}, "
                f"expected {period}/{factor}/{diagnostic!r}")
    return None


# ---------------------------------------------------------------------------
# pulses


def pulse_failure(request, exit_code: int, stdout: str) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}"
    report = json.loads(stdout)
    alpha = request.alpha
    if abs(report["c_k"]["modulus"] - abs(math.cos(alpha))) > PULSE_TOL:
        return f"|c_k| = {report['c_k']['modulus']}, expected |cos {alpha}|"
    if abs(report["c_p"]["modulus"] - abs(math.sin(alpha))) > PULSE_TOL:
        return f"|c_p| = {report['c_p']['modulus']}, expected |sin {alpha}|"
    error = report["phase_error_vs_coherent"]
    if request.mode == "noncoherent":
        expected = (request.e_p - request.e_k) * request.t0
        if error is None or _angle_gap(error, expected) > PULSE_TOL:
            return f"phase_error_vs_coherent = {error}, expected wrap({expected})"
    elif error is not None:
        return f"phase_error_vs_coherent = {error} outside noncoherent mode"
    discrepancy = report["ode_discrepancy"]
    if request.mode == "sudden":
        if discrepancy is not None:
            return f"ode_discrepancy = {discrepancy} for a sudden pulse"
    elif discrepancy is None or not 0.0 <= discrepancy <= ODE_BOUND:
        return f"ode_discrepancy = {discrepancy}, bound {ODE_BOUND}"
    return None
