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
    through numpy's float conversion first, with its own errors.
    """
    if type(values) in (tuple, list) and set(map(type, values)) == {float}:
        shape = (len(values),)
    else:
        values = np.asarray(values, dtype=float)
        shape = values.shape
        values = values.tolist() if values.ndim == 1 else ()
    if shape == (4,) or omegas_only:
        if shape != (4,) or not all(map(math.isfinite, values)):
            raise ValueError("expected four finite qubit frequencies")
        # Each qubit's frequency times its excitation bit, 0.0 or 1.0 (x01: qubit x0
        # excited), then the four terms of |m,n> (bits x0, x1, y0, y1) added left to
        # right: the x sum of each m = x0 + 2*x1 first, then each n = y0 + 2*y1's terms.
        (x00, x01), (x10, x11), (y00, y01), (y10, y11) = [(w * 0.0, w * 1.0) for w in values]
        ys = ((y00, y10), (y01, y10), (y00, y11), (y01, y11))
        return tuple([x + y0 + y1 for x in (x00 + x10, x01 + x10, x00 + x11, x01 + x11)
                      for y0, y1 in ys])
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


def _first(bad) -> int | None:
    """Row-major index of the first True entry of a boolean mask, or None if there is none."""
    # count_nonzero is one C call; ndarray.any goes through a Python wrapper first.
    return int(np.flatnonzero(bad)[0]) if np.count_nonzero(bad) else None


def _phase_factors(energies: np.ndarray, dt) -> np.ndarray:
    """exp(-i*E*dt) for a 16-entry or (B, 16) spectrum and a scalar or (B,) dt, one per row.

    A product E*dt that overflows is refused here, naming the first bad row,
    instead of letting numpy warn and turn the state into NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        phase = -1j * energies * np.asarray(dt)[..., None]
    i = _first(~np.isfinite(phase))
    if i is not None:
        e = np.broadcast_to(energies, phase.shape).flat[i]
        delay = np.broadcast_to(np.asarray(dt)[..., None], phase.shape).flat[i]
        raise ValueError(
            "state is not normalized: non-finite phase E*dt for "
            f"E = {e}, dt = {delay}"
        )
    return np.exp(phase)


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
    i = _first(~((dt >= 0.0) & np.isfinite(dt)))
    if i is not None:
        raise ValueError(f"dt must be finite and non-negative, got {np.ravel(dt)[i]}")
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
    # Written so that a NaN total fails the check too.
    i = _first(~(abs(np.sqrt(total) - 1.0) <= NORM_TOL))
    if i is not None:
        raise ValueError(f"state is not normalized: norm = {np.sqrt(np.ravel(total)[i])}")
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

