"""Four-qubit register state vectors, energy spectra, and free phase evolution.

The register holds two two-bit values: x (argument of the periodic function,
two left qubits) and y (its value, two right qubits). A basis state |m,n> with
m, n in 0..3 lives at flat index 4*m + n, where m = m0 + 2*m1 and n = n0 + 2*n1
decompose each value into qubit bits. Energies are angular frequencies with
hbar = 1, so a state of energy E picks up exp(-i*E*t) under free evolution.

State vectors are plain complex numpy arrays of length 16; energy spectra are
real arrays of length 16 in the same index order. All functions here are pure:
inputs are never mutated, results are fresh arrays.
"""

from __future__ import annotations

import math

import numpy as np

DIM = 16
NUM_X = 4
NUM_Y = 4

#: Qubit angular frequencies (x0, x1, y0, y1) of the default additive spectrum.
#: Mutually incommensurate so that generic delays break the interference
#: condition instead of satisfying it by accident.
DEFAULT_OMEGAS = (1.0, 2.3, 3.7, 5.1)

#: Normalization slack accepted by measurement-side operations.
NORM_TOL = 1e-9


def basis_index(m: int, n: int) -> int:
    """Flat index of the basis state |m,n>."""
    if not (0 <= m < NUM_X and 0 <= n < NUM_Y):
        raise ValueError(f"basis label out of range: ({m}, {n})")
    return NUM_Y * m + n


def init_ground() -> np.ndarray:
    """All four qubits in the ground state: amplitude 1 on |0,0>."""
    state = np.zeros(DIM, dtype=complex)
    state[0] = 1.0
    return state


def norm(state: np.ndarray) -> float:
    """Euclidean norm sqrt(sum |amplitude|^2)."""
    return float(np.linalg.norm(np.asarray(state, dtype=complex)))


def _energy_table(values, omegas_only: bool = False) -> tuple[float, ...]:
    """The one spectrum rule: 16 energies, as Python floats, from 4 qubit frequencies or 16.

    A list or tuple of Python floats needs no numpy; anything else goes
    through numpy's float conversion first, with its own errors. A complex
    array, or a list of numpy complex scalars, is refused as a list of complex
    numbers is, not cast to its real parts.
    """
    if type(values) in (tuple, list) and all([type(v) is float for v in values]):
        shape = (len(values),)
    else:
        items = values if type(values) in (tuple, list) else [values]
        if any(getattr(v, "dtype", np.dtype(float)).kind == "c" for v in items):
            raise TypeError("float() argument must be a string or a real number, not 'complex'")
        values = np.asarray(values, dtype=float)
        shape = values.shape
        values = values.tolist() if values.ndim == 1 else ()
    if shape == (4,) or omegas_only:
        if shape != (4,) or not all(map(math.isfinite, values)):
            raise ValueError("expected four finite qubit frequencies")
        # Each qubit's frequency times its excitation bit: w times 1.0 is w, and w times
        # 0.0 keeps w's sign. The four terms of |m,n> (bits x0, x1, y0, y1) are added
        # left to right: the x sum of each m = x0 + 2*x1 first, then n = y0 + 2*y1's terms.
        x0, x1, y0, y1 = values
        z0, z1, u0, u1 = x0 * 0.0, x1 * 0.0, y0 * 0.0, y1 * 0.0
        m0, m1, m2, m3 = z0 + z1, x0 + z1, z0 + x1, x0 + x1
        return (m0 + u0 + u1, m0 + y0 + u1, m0 + u0 + y1, m0 + y0 + y1,
                m1 + u0 + u1, m1 + y0 + u1, m1 + u0 + y1, m1 + y0 + y1,
                m2 + u0 + u1, m2 + y0 + u1, m2 + u0 + y1, m2 + y0 + y1,
                m3 + u0 + u1, m3 + y0 + u1, m3 + u0 + y1, m3 + y0 + y1)
    if shape != (DIM,):
        raise ValueError(f"spectrum must have 4 or 16 entries, got shape {shape}")
    if not all(map(math.isfinite, values)):
        raise ValueError("spectrum entries must be finite")
    return tuple(values)


def additive_spectrum(omegas=DEFAULT_OMEGAS) -> np.ndarray:
    """Energy table E[4m+n] = w0*x0 + w1*x1 + w2*y0 + w3*y1 over the qubit bits.

    ``omegas`` are the four single-qubit frequencies in register order
    (x0, x1, y0, y1). Each excited qubit contributes its frequency.
    """
    return np.array(_energy_table(omegas, omegas_only=True))


def make_spectrum(values) -> np.ndarray:
    """Build a spectrum from a 4-entry qubit-frequency quadruple or a full 16-entry table."""
    return np.array(_energy_table(values))


def _refuse_first(bad, message: str, **values) -> None:
    """Raise ValueError(message) at the first True entry of the mask ``bad``, if it has one.

    ``message`` is a ``str.format`` template; each of ``values`` is broadcast
    against ``bad`` and read at that entry, so the message names the bad row.
    The error's ``rows`` maps each refused row (first axis), in order, to its
    own ValueError, read at that row's first True entry; the first is raised.
    """
    # count_nonzero is one C call; ndarray.any goes through a Python wrapper first.
    if np.count_nonzero(bad):
        at = np.flatnonzero(bad)
        rows, first = np.unique(at // math.prod(bad.shape[1:]), return_index=True)
        flat = {key: np.broadcast_to(value, bad.shape).flat for key, value in values.items()}
        errors = [ValueError(message.format(**{key: entries[i] for key, entries in flat.items()}))
                  for i in at[first].tolist()]
        errors[0].rows = dict(zip(rows.tolist(), errors))
        raise errors[0]


def _phase_factors(energies: np.ndarray, dt) -> np.ndarray:
    """exp(-i*E*dt) for a 16-entry or (B, 16) spectrum and a scalar or (B,) dt, one per row.

    With one 16-entry table for a (B,) dt that repeats a delay, each distinct
    delay (by bit pattern, so -0.0 and 0.0 stay apart) is exponentiated once
    and its row gathered back; each entry is the same product and exp, so
    the bits do not change. A product E*dt that overflows is refused here,
    naming the first bad row, instead of letting numpy warn and turn the
    state into NaN.
    """
    delay, rows = np.asarray(dt), slice(None)
    if energies.ndim == 1 and delay.ndim == 1 and delay.size > 1:
        bits, inverse = np.unique(delay.view(f"u{delay.itemsize}"), return_inverse=True)
        if bits.size < delay.size:
            delay, rows = bits.view(delay.dtype), inverse
    delay = delay[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        phase = -1j * energies * delay
    # Checked in row order, so the first bad row is named, not the smallest bad delay.
    _refuse_first(~np.isfinite(phase)[rows], "state is not normalized: non-finite phase E*dt for "
                  "E = {e}, dt = {dt}", e=energies, dt=delay[rows])
    return np.exp(phase)[rows]


def free_evolve(state: np.ndarray, spectrum: np.ndarray, dt) -> np.ndarray:
    """Evolve freely for time dt: each |m,n> amplitude gains exp(-i*E[m,n]*dt).

    ``state`` and ``spectrum`` have 16 entries or shape (B, 16); ``dt`` is a
    scalar or a (B,) array of delays, one per row, and the result broadcasts
    to (B, 16).
    Moduli are untouched, so the norm and every measurement marginal are
    preserved exactly. Negative or non-finite dt is rejected.
    """
    dt = np.asarray(dt, dtype=float)
    if dt.ndim > 1:
        raise ValueError(f"dt must be a scalar or a (B,) array, got shape {dt.shape}")
    _refuse_first(~((dt >= 0.0) & np.isfinite(dt)), "dt must be finite and non-negative, got {dt}",
                  dt=dt)
    amps = np.asarray(state, dtype=complex)
    energies = np.asarray(spectrum, dtype=float)
    if amps.shape[-1:] != (DIM,) or energies.shape[-1:] != (DIM,) or energies.ndim > 2:
        raise ValueError("state and spectrum must both have 16 entries")
    # np.multiply, not *: numpy computes `a * temp` in place as `temp * a` once temp
    # passes 256 KiB, and that order can round a complex product differently.
    return np.multiply(amps, _phase_factors(energies, dt))


def _x_marginals(states: np.ndarray) -> np.ndarray:
    """x marginals, shape (..., 4), of normalized states of shape (..., 16).

    Refuses the first row whose norm is off by more than ``NORM_TOL``.
    """
    weights = np.abs(states.reshape(states.shape[:-1] + (NUM_X, NUM_Y))) ** 2
    total = weights.sum(axis=(-2, -1))
    norms = np.sqrt(total)
    # Written so that a NaN total fails the check too.
    _refuse_first(~(abs(norms - 1.0) <= NORM_TOL), "state is not normalized: norm = {norm}",
                  norm=norms)
    return weights.sum(axis=-1) / total[..., None]


def measure_x_distribution(state: np.ndarray) -> dict[int, float]:
    """Probability of each x outcome, summing |amplitude|^2 over the y register.

    The state must be normalized to within ``NORM_TOL``; the returned
    probabilities are rescaled by the total weight so they sum to 1 up to
    floating-point rounding.
    """
    return dict(enumerate(_x_marginals(np.asarray(state, dtype=complex)).tolist()))


def _draw_rule(u: np.ndarray, marginals: np.ndarray) -> np.ndarray:
    """x of each row: the first x with u < cumsum(p)[x], else the last; u (B,), marginals (B, 4)."""
    thresholds = np.add.accumulate(marginals, axis=-1)
    thresholds[:, -1] = np.inf
    return (u[:, None] < thresholds).argmax(axis=-1)


def draw_x(distribution: dict[int, float], rng: np.random.Generator) -> int:
    """Draw one x outcome from a distribution using a caller-owned generator."""
    p = [[distribution.get(x, 0.0) for x in range(NUM_X)]]
    return int(_draw_rule(np.array([rng.random()]), np.array(p))[0])


def sample_x(state: np.ndarray, seed: int) -> int:
    """Sample one x-register measurement outcome; identical seed, identical draw."""
    return draw_x(measure_x_distribution(state), np.random.default_rng(seed))


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """True if a equals exp(i*theta)*b for some real theta, within tol.

    theta is read off the largest-modulus componentwise overlap a_i * conj(b_i),
    then the residual norm ||a - exp(i*theta)*b|| is compared against tol.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    overlap = a * np.conj(b)
    i = int(np.argmax(np.abs(overlap)))
    if abs(overlap[i]) == 0.0:
        return float(np.linalg.norm(a - b)) <= tol
    phase = overlap[i] / abs(overlap[i])
    return float(np.linalg.norm(a - phase * b)) <= tol


def wrap_phase(angle):
    """Wrap an angle (scalar or array) into the interval (-pi, pi]."""
    if not isinstance(angle, (float, np.ndarray)):
        angle = np.asarray(angle, dtype=float)
    # % is Python's mod on a Python float and numpy's on numpy values; both take fmod,
    # then shift a remainder whose sign differs from the divisor's, so they agree.
    wrapped = np.pi - (np.pi - angle) % (2.0 * np.pi)
    return wrapped if isinstance(wrapped, np.ndarray) else float(wrapped)


def state_to_json(state: np.ndarray) -> list[list[float]]:
    """Serialize to the wire form: 16 [re, im] pairs in index order 4m+n."""
    amps = np.asarray(state, dtype=complex)
    if amps.shape != (DIM,):
        raise ValueError("state must have 16 entries")
    return [[float(z.real), float(z.imag)] for z in amps]

