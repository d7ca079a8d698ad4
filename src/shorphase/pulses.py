"""Two-level dynamics for a single resonant transition |k> <-> |p>.

A pulse of Rabi frequency Omega and duration tau rotates population between
the levels by the area alpha = Omega*tau/2. What distinguishes the modes is
the phase of the drive:

* COHERENT: the pulse is cut from a continuous reference oscillation at the
  transition frequency w_pk = E_p - E_k, with offset ``phase`` relative to
  it. The drive argument is w_pk*t + phase in absolute time, and the newborn
  level ends the pulse with its natural phase exp(-i*E_p*(t0+tau)).
* NONCOHERENT: the pulse phase is referenced to its own start, so the drive
  argument is w_pk*(t - t0) + phase. The newborn level then carries a history
  phase exp(-i*E_k*t0 - i*E_p*tau) instead of the natural one; the error
  relative to the coherent pulse is w_pk*t0.
* PHASE_CORRECTED: a non-coherent pulse whose start phase is chosen as
  phase + w_pk*t0, which cancels the history offset and reproduces the
  coherent result exactly. ``phase`` holds the desired coherent-pulse phase.
* SUDDEN: the limit of a strong square non-resonant drive, V -> inf and
  tau -> 0 with V*tau -> area: an instantaneous rotation that hands the
  parent's accumulated phase (plus a quarter turn) to the newborn level.

Closed forms cover pulses starting with all population in |k>; anything else
goes through the fixed-step integrator, which is also the numerical oracle
for the closed forms.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

from .config import _check_positive
from .statevec import wrap_phase


def _finite(value, name: str, non_negative: bool = False) -> float:
    """``value`` as a float; ValueError naming ``name`` unless it is finite (and >= 0 if asked)."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    if non_negative and value < 0.0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


class PulseMode(enum.Enum):
    COHERENT = "coherent"
    NONCOHERENT = "noncoherent"
    PHASE_CORRECTED = "phase-corrected"
    SUDDEN = "sudden"


@dataclass(frozen=True)
class TwoLevelSystem:
    """Energies of the two levels; the transition frequency is their difference."""

    e_k: float
    e_p: float

    def __post_init__(self):
        self.__dict__.update(e_k=_finite(self.e_k, "e_k"), e_p=_finite(self.e_p, "e_p"))

    @property
    def omega_pk(self) -> float:
        return self.e_p - self.e_k


@dataclass(frozen=True)
class PulseSpec:
    """One pulse: coupling strength, timing, phase, and mode.

    In the resonant modes the pulse area is rabi*tau/2 and ``area`` must be
    left unset, and rabi*tau/2 must be finite; in SUDDEN mode only ``area``
    matters. ``phase`` is wrapped into (-pi, pi] at construction.
    """

    mode: PulseMode
    rabi: float = 0.0
    t0: float = 0.0
    tau: float = 0.0
    phase: float = 0.0
    area: float | None = None

    def __post_init__(self):
        mode, area = PulseMode(self.mode), self.area
        rabi, t0, tau = _finite(self.rabi, "rabi"), _finite(self.t0, "t0"), _finite(self.tau, "tau")
        phase = wrap_phase(_finite(self.phase, "phase"))
        if mode is PulseMode.SUDDEN:
            if area is None or not math.isfinite(float(area)):
                raise ValueError("sudden mode needs a finite pulse area")
            area = float(area)
        else:
            if area is not None:
                raise ValueError("area is only meaningful in sudden mode; set rabi and tau")
            if rabi < 0.0 or tau < 0.0:
                name, value = ("rabi", rabi) if rabi < 0.0 else ("tau", tau)
                raise ValueError(f"{name} must be non-negative, got {value}")
            if not math.isfinite(0.5 * rabi * tau):  # as pulse_area computes it
                raise ValueError(f"pulse area rabi*tau/2 is not finite for rabi = {rabi!r}, "
                                 f"tau = {tau!r}")
        self.__dict__.update(mode=mode, rabi=rabi, t0=t0, tau=tau, phase=phase, area=area)

    @property
    def pulse_area(self) -> float:
        """Rotation angle between the levels: rabi*tau/2, or ``area`` when sudden."""
        if self.mode is PulseMode.SUDDEN:
            return self.area
        return 0.5 * self.rabi * self.tau


@dataclass(frozen=True)
class TwoLevelState:
    """Complex amplitudes of |k> and |p>."""

    c_k: complex
    c_p: complex

    def __post_init__(self):
        self.__dict__.update(c_k=complex(self.c_k), c_p=complex(self.c_p))

    @property
    def probability(self) -> float:
        return abs(self.c_k) ** 2 + abs(self.c_p) ** 2


def natural_init(modulus: float, e_k: float, t0: float) -> TwoLevelState:
    """Population in |k> only, carrying its natural phase exp(-i*E_k*t0).

    A t0 that is not finite, and a product E_k*t0 that overflows, are refused.
    """
    _finite(t0, "t0")
    if not math.isfinite(e_k * t0):
        raise ValueError(f"non-finite phase E*t for E = {e_k!r}, t = {t0!r}")
    return TwoLevelState(modulus * cmath.exp(-1j * e_k * t0), 0.0)


def _closed_form(sys: TwoLevelSystem, pulse: PulseSpec, init: TwoLevelState) -> TwoLevelState:
    # Exact solution for C_p(t0) = 0 under drive argument w_pk*t + phi_eff,
    # phi_eff being the mode's drive argument at absolute time 0.
    phi_eff = sys.omega_pk * (0.0 - _drive_origin(pulse)) + pulse.phase
    alpha = pulse.pulse_area
    newborn = 0.5 * math.pi - phi_eff + sys.e_k * pulse.t0 - sys.e_p * (pulse.t0 + pulse.tau)
    if not (math.isfinite(sys.e_k * pulse.tau) and math.isfinite(newborn)):
        raise ValueError(f"non-finite phase E*t for E_k = {sys.e_k!r}, E_p = {sys.e_p!r}, "
                         f"t0 = {pulse.t0!r}, tau = {pulse.tau!r}")
    c_k = init.c_k * math.cos(alpha) * cmath.exp(-1j * sys.e_k * pulse.tau)
    c_p = init.c_k * math.sin(alpha) * cmath.exp(1j * newborn)
    return TwoLevelState(c_k, c_p)


def _resonant(sys: TwoLevelSystem, pulse: PulseSpec, init: TwoLevelState,
              mode: PulseMode) -> TwoLevelState:
    if pulse.mode is not mode:
        raise ValueError(f"expected a {mode.value} pulse, got {pulse.mode.value}")
    if init.c_p != 0:
        return integrate_ode(sys, pulse, init)
    return _closed_form(sys, pulse, init)


def evolve_coherent(sys: TwoLevelSystem, pulse: PulseSpec, init: TwoLevelState) -> TwoLevelState:
    """Reference-locked pulse; C_p(t0) != 0 falls back to the integrator.

    Starting from C_k(t0) = |C_k|*exp(-i*E_k*t0) the final amplitudes are
    |C_k|*cos(alpha)*exp(-i*E_k*(t0+tau)) and
    |C_k|*sin(alpha)*exp(i*(pi/2 - phase))*exp(-i*E_p*(t0+tau)):
    both levels leave the pulse with natural phases.
    """
    return _resonant(sys, pulse, init, PulseMode.COHERENT)


def evolve_noncoherent(sys: TwoLevelSystem, pulse: PulseSpec, init: TwoLevelState) -> TwoLevelState:
    """Start-referenced pulse; ``pulse.phase`` is the phase at t0.

    C_k evolves as in the coherent case, but the newborn amplitude ends as
    |C_k|*sin(alpha)*exp(i*(pi/2 - phase))*exp(-i*E_k*t0 - i*E_p*tau): a
    history phase recording that |p> was born from |k> at t0.
    """
    return _resonant(sys, pulse, init, PulseMode.NONCOHERENT)


def evolve_phase_corrected(sys: TwoLevelSystem, pulse: PulseSpec,
                           init: TwoLevelState) -> TwoLevelState:
    """Non-coherent pulse fired with start phase ``pulse.phase`` + w_pk*t0.

    The correction cancels the start-time offset, so the result equals the
    coherent pulse with the same ``phase`` exactly. Any start-time error
    delta shifts the newborn phase by w_pk*delta.
    """
    return _resonant(sys, pulse, init, PulseMode.PHASE_CORRECTED)


def evolve_sudden(init: TwoLevelState, area: float) -> TwoLevelState:
    """Instantaneous strong-pulse rotation by ``area``; the clock does not advance.

    With no population in |p> beforehand this gives
    C_k*cos(area) and i*C_k*sin(area): the newborn level inherits the
    parent's accumulated phase plus pi/2, not its own natural phase.
    """
    area = _finite(area, "area")
    c, s = math.cos(area), math.sin(area)
    return TwoLevelState(init.c_k * c + 1j * init.c_p * s,
                         init.c_p * c + 1j * init.c_k * s)


def _drive_origin(pulse: PulseSpec) -> float:
    # The drive argument at time t is w_pk*(t - origin) + phase. A noncoherent
    # pulse is referenced to its own start; the other modes to absolute time,
    # where t - 0.0 == t for every float, -0.0 included.
    return pulse.t0 if pulse.mode is PulseMode.NONCOHERENT else 0.0


#: Most RK4 steps ``integrate_ode`` takes.
_MAX_STEPS = 10**7

#: RK4 is stable for a step dt on eigenvalues i*w with |w|*dt up to 2*sqrt(2).
_RK4_STABLE = 2.0 * math.sqrt(2.0)


def integrate_ode(sys: TwoLevelSystem, pulse: PulseSpec, init: TwoLevelState,
                  step: float | None = None) -> TwoLevelState:
    """Fixed-step RK4 integration of the coupled amplitude equations.

    i*dC_k/dt = E_k*C_k - (Omega/2)*exp(+i*theta(t))*C_p
    i*dC_p/dt = E_p*C_p - (Omega/2)*exp(-i*theta(t))*C_k

    with theta the mode's drive argument, integrated from t0 to t0+tau in
    ceil(tau/step) equal steps, taken together as one 2x2 matrix power
    (O(log N) products for N steps). The default step tau/1000 keeps the error and
    the norm drift far below the closed forms' comparison tolerances. A step
    that is not finite and positive, a step count above ``_MAX_STEPS`` or not
    finite, a given step past RK4's stability limit (rho*dt > 2*sqrt(2), with
    rho = max(|E_k|, |E_p|) + rabi/2 bounding the generator's eigenvalues), a
    t0 so large that t0 + dt == t0, and an integration that ends in a
    non-finite amplitude, raise ValueError. Not defined for sudden pulses.
    """
    if pulse.mode is PulseMode.SUDDEN:
        raise ValueError("sudden pulses are instantaneous; use evolve_sudden")
    if step is not None:
        _check_positive(step, "step")
    tau = pulse.tau
    if tau == 0.0:
        return init
    given = step is not None
    if not given:
        step = tau / 1000.0
    # A default step can underflow to 0 for a subnormal tau.
    steps_needed = tau / step if step > 0 else math.inf
    if not steps_needed <= _MAX_STEPS:
        raise ValueError(f"tau = {tau!r} in steps of {step!r} needs {steps_needed:.3g} RK4 steps, "
                         f"more than the limit of {_MAX_STEPS}")
    n_steps = max(1, math.ceil(steps_needed))
    dt = tau / n_steps
    rho = max(abs(sys.e_k), abs(sys.e_p)) + 0.5 * pulse.rabi
    if given and rho * dt > _RK4_STABLE:
        raise ValueError(f"step {step!r} is past RK4's stability limit: rho*dt = {rho * dt:.3g} > "
                         f"2*sqrt(2) for rho = max(|E_k|, |E_p|) + rabi/2 = {rho!r}")
    if pulse.t0 + dt == pulse.t0:
        raise ValueError(f"RK4 clock cannot advance: t0 + dt == t0 for t0 = {pulse.t0!r}, "
                         f"dt = {dt!r}")

    # With D(x) = diag(e^{ix/2}, e^{-ix/2}), the step from t_n is D(theta_n)*R*D(theta_n)^-1, R
    # being the step from s = 0 under the drive argument w*s. As D(theta_n)^-1*D(theta_(n-1)) is
    # Q = D(-w*dt), N steps are D(theta_N)*(Q*R)^N*D(theta_0)^-1, with no clock accumulated.
    neg_i_ek, neg_i_ep, i_half_rabi = -1j * sys.e_k, -1j * sys.e_p, 1j * (0.5 * pulse.rabi)
    w, exp, half_dt, sixth_dt = sys.omega_pk, cmath.exp, 0.5 * dt, dt / 6.0
    drives = 1.0, exp(1j * (w * half_dt)), exp(1j * (w * dt))  # at s = 0, dt/2 and dt
    up, down = [i_half_rabi * d for d in drives], [i_half_rabi * d.conjugate() for d in drives]
    q = exp(-0.5j * (w * dt))

    def column(a, b):  # Q*R applied to (a, b): the four stages, then Q
        k1a, k1b = neg_i_ek * a + up[0] * b, neg_i_ep * b + down[0] * a
        a2, b2 = a + half_dt * k1a, b + half_dt * k1b
        k2a, k2b = neg_i_ek * a2 + up[1] * b2, neg_i_ep * b2 + down[1] * a2
        a3, b3 = a + half_dt * k2a, b + half_dt * k2b
        k3a, k3b = neg_i_ek * a3 + up[1] * b3, neg_i_ep * b3 + down[1] * a3
        a4, b4 = a + dt * k3a, b + dt * k3b
        k4a, k4b = neg_i_ek * a4 + up[2] * b4, neg_i_ep * b4 + down[2] * a4
        return (q * (a + sixth_dt * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)),
                q.conjugate() * (b + sixth_dt * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)))

    def mul(x, y):  # 2x2 matrices as row-major 4-tuples
        return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
                x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])

    (r00, r10), (r01, r11) = column(1.0, 0.0), column(0.0, 1.0)
    qr, power = (r00, r01, r10, r11), (1.0, 0.0, 0.0, 1.0)
    for bit in bin(n_steps)[2:]:  # repeated squaring, leading bit first
        power = mul(mul(power, power), qr) if bit == "1" else mul(power, power)
    u = exp(0.5j * (w * (pulse.t0 - _drive_origin(pulse)) + pulse.phase))  # D(theta_0) = diag(u, 1/u)
    v, a, b = u * exp(0.5j * (w * tau)), u.conjugate() * init.c_k, u * init.c_p
    a, b = v * (power[0] * a + power[1] * b), v.conjugate() * (power[2] * a + power[3] * b)
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        raise ValueError(f"integration diverged: non-finite amplitude after {n_steps} RK4 steps "
                         f"of dt = {dt!r}")
    return TwoLevelState(a, b)
