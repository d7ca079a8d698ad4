"""The three period-finding transformations and the end-to-end pipelines.

The run factors 4 with base 3: a Hadamard-type spread over the x register,
evaluation of y(x) = 3^x mod 4 into the y register, and a discrete Fourier
transform of the x register. Transformations act instantaneously; the clock
advances only while the register evolves freely between them.
"""

from __future__ import annotations

import math

import numpy as np

from . import statevec
from .config import DelaySchedule, ExperimentConfig, PipelineMode
from .statevec import DIM, NUM_X, NUM_Y, basis_index

__all__ = [
    "SUPERPOSE_X_MATRIX",
    "DFT_MATRIX",
    "superpose_x",
    "mod_exp_classical",
    "apply_mod_exp",
    "dft_x",
    "amplitude_of",
    "run_pipeline",
    "run_history_chain",
]

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)

#: Hadamard on each x qubit; self-inverse, sends |x=0> to the uniform x spread.
SUPERPOSE_X_MATRIX = np.kron(_HADAMARD, _HADAMARD).astype(complex)

#: |x> -> (1/2) sum_k exp(2*pi*i*k*x/4) |k>; fourth power is the identity.
DFT_MATRIX = 0.5 * np.exp(2j * np.pi * np.outer(np.arange(NUM_X), np.arange(NUM_X)) / NUM_X)

#: y(x) = 3^x mod 4 for x = 0..3.
MOD_EXP_TABLE = tuple(pow(3, x, 4) for x in range(NUM_X))

#: Row m: the flat indices of |m,0> and |m, 3^m mod 4>, the two states branch m visits.
_BRANCHES = np.array([[basis_index(m, 0), basis_index(m, y)] for m, y in enumerate(MOD_EXP_TABLE)])

#: The |m,0> entries of a state, branch m's before the function evaluation: _BRANCHES[:, 0].
_Y0 = slice(0, DIM, NUM_Y)

#: Amplitude allowed outside the y=0 slice before the function evaluation.
_Y0_LEAK_TOL = 1e-12


def _grid(state) -> np.ndarray:
    # (..., 16) -> (..., 4, 4), indexed [..., x, y].
    state = np.asarray(state, dtype=complex)
    return state.reshape(state.shape[:-1] + (NUM_X, NUM_Y))


def _apply_to_x(state: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    # One matmul over every row of a (B, 16) batch.
    state = np.asarray(state, dtype=complex)
    return (matrix @ _grid(state)).reshape(state.shape)


def superpose_x(state: np.ndarray) -> np.ndarray:
    """Hadamard each x qubit, identity on y.

    From |0,0> this yields the uniform spread (1/2) sum_m |m,0>. The matrix is
    real and self-inverse, so applying it twice restores the input.
    """
    return _apply_to_x(state, SUPERPOSE_X_MATRIX)


def mod_exp_classical(x: int) -> int:
    """The periodic function y(x) = 3^x mod 4 (period 2)."""
    if not 0 <= x < NUM_X:
        raise ValueError(f"x out of range: {x}")
    return MOD_EXP_TABLE[x]


def apply_mod_exp(state: np.ndarray) -> np.ndarray:
    """Move each |m,0> amplitude to |m, 3^m mod 4>, phases carried unchanged.

    Defined only on states whose weight lies entirely in the y=0 slice; any
    amplitude elsewhere is rejected rather than mapped by a guessed extension.
    A (B, 16) batch is checked row by row and the first leaking row is named.
    """
    amps = np.asarray(state, dtype=complex)
    leak = np.abs(_grid(amps)[..., 1:]).max(axis=(-2, -1))
    statevec._refuse_first(leak > _Y0_LEAK_TOL, "amplitude outside the y=0 slice (max modulus "
                           "{leak:.3e}); the function evaluation is defined only there", leak=leak)
    out = np.zeros(amps.shape, dtype=complex)
    out[..., _BRANCHES[:, 1]] = amps[..., _BRANCHES[:, 0]]
    return out


def dft_x(state: np.ndarray) -> np.ndarray:
    """Discrete Fourier transform of the x register: |x,n> -> (1/2) sum_k e^{2pi i k x/4} |k,n>."""
    return _apply_to_x(state, DFT_MATRIX)


def amplitude_of(state: np.ndarray, m: int, n: int) -> complex:
    """The |m,n> amplitude of a state."""
    return complex(np.asarray(state, dtype=complex)[basis_index(m, n)])


def _after_spread(state: np.ndarray, spectrum: np.ndarray, tau1, tau2) -> np.ndarray:
    # Idle tau1 -> function evaluation -> idle tau2 -> DFT, bit for bit. The state is
    # the spread or one branch of it, zero off y = 0, so the first two are one step:
    # branch m gains exp(-i*E[m,0]*tau1) and moves to |m, 3^m mod 4>. Only the four
    # |m,0> phases are exponentiated, though free_evolve's checks see all 16. Only
    # the tau2 idle goes through statevec.free_evolve, looked up on the module so a
    # wrapper set there sees it.
    amps, energies, tau1 = statevec._idle_inputs(state, spectrum, tau1)
    branches = np.multiply(amps[..., _Y0], statevec._phase_factors(energies, tau1, _Y0))
    state = np.zeros(branches.shape[:-1] + (DIM,), dtype=complex)
    state[..., _BRANCHES[:, 1]] = branches
    state = statevec.free_evolve(state, spectrum, tau2)
    return dft_x(state)


#: The x spread, and the final state of a zero-delay run (natural-phase runs add terminal phases).
_SPREAD = superpose_x(statevec.init_ground())
_IDEAL = _after_spread(_SPREAD, np.zeros(DIM), 0.0, 0.0)


def _final_states(spectrum: np.ndarray, mode: PipelineMode, tau1, tau2) -> np.ndarray:
    """Final states: 16 entries for scalar delays and one spectrum, else (B, 16).

    ``spectrum`` is one 16-entry table or a (B, 16) array, one per row;
    ``tau1`` and ``tau2`` are checked scalars or (B,) arrays.
    """
    if mode is PipelineMode.NATURAL_PHASE:
        with np.errstate(over="ignore"):  # an infinite total is refused with its phase
            total = tau1 + tau2
        return np.multiply(_IDEAL, statevec._phase_factors(spectrum, total))  # as in free_evolve
    return _after_spread(_SPREAD, spectrum, tau1, tau2)


def run_pipeline(config: ExperimentConfig) -> np.ndarray:
    """Run the full transformation sequence and return the final state.

    FREE_EVOLUTION: ground state -> x spread -> idle tau1 -> function
    evaluation -> idle tau2 -> DFT. Each idle interval multiplies every
    amplitude by exp(-i*E*dt), so a term's final phase encodes the states it
    occupied along the way and the interference pattern depends on the delays.

    NATURAL_PHASE: same sequence, but every amplitude ends up carrying
    exp(-i*E_mn*(tau1+tau2)), the phase a stationary |m,n> state would have
    at the final clock time, on top of the transformation-intrinsic factors:
    the final state of a zero-delay run, computed once, times one terminal
    phase per basis state. Moduli match the zero-delay run, so the x
    distribution is delay independent.
    """
    spectrum = np.asarray(config.spectrum, dtype=float)
    return _final_states(spectrum, config.mode, config.delays.tau1, config.delays.tau2)


def run_history_chain(spectrum, delays: DelaySchedule, x_initial: int) -> np.ndarray:
    """Run the post-spread stages from the single branch (1/2)|x_initial, 0>.

    Isolates the history of one term of the initial x spread: the returned
    (unnormalized) state is that branch's contribution to the full
    free-evolution run, and summing the branch states over x_initial = 0..3
    reproduces it exactly.
    """
    state = np.zeros(DIM, dtype=complex)
    state[basis_index(x_initial, 0)] = 0.5
    return _after_spread(state, spectrum, delays.tau1, delays.tau2)
