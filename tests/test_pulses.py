"""Two-level pulse dynamics: closed forms, phase laws, and the integrator oracle."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from shorphase import pulses
from shorphase.pulses import PulseMode, PulseSpec, TwoLevelState, TwoLevelSystem, natural_init
from shorphase.statevec import wrap_phase

HALF_PI = 0.5 * math.pi


def random_case(rng):
    """One random pulse setting; ranges keep the default-step integrator well inside 1e-8."""
    e_k, e_p = rng.uniform(-3.0, 3.0, size=2)
    t0 = rng.uniform(-1.0, 1.0)
    tau = rng.uniform(0.2, 2.0)
    alpha = rng.uniform(0.1, math.pi)
    phi = rng.uniform(-math.pi, math.pi)
    modulus = rng.uniform(0.2, 1.0)
    system = TwoLevelSystem(e_k, e_p)
    return system, 2.0 * alpha / tau, t0, tau, phi, modulus


def assert_phase_close(actual, expected, tol):
    assert abs(wrap_phase(actual - expected)) <= tol


# ---------------------------------------------------------------------------
# coherent closed form


def test_coherent_half_pi_pulse_full_transfer():
    system = TwoLevelSystem(1.0, 3.0)
    tau = 0.4
    pulse = PulseSpec(mode=PulseMode.COHERENT, rabi=math.pi / tau, t0=0.25, tau=tau, phase=HALF_PI)
    out = pulses.evolve_coherent(system, pulse, natural_init(1.0, 1.0, 0.25))
    assert abs(out.c_k) <= 1e-15
    expected_p = cmath.exp(-1j * 3.0 * (0.25 + tau))
    assert out.c_p == pytest.approx(expected_p, abs=1e-12)


def test_zero_duration_is_identity():
    system = TwoLevelSystem(1.0, 3.0)
    init = natural_init(0.7, 1.0, 0.5)
    for mode in (PulseMode.COHERENT, PulseMode.NONCOHERENT, PulseMode.PHASE_CORRECTED):
        pulse = PulseSpec(mode=mode, rabi=2.0, t0=0.5, tau=0.0, phase=0.3)
        evolve = {
            PulseMode.COHERENT: pulses.evolve_coherent,
            PulseMode.NONCOHERENT: pulses.evolve_noncoherent,
            PulseMode.PHASE_CORRECTED: pulses.evolve_phase_corrected,
        }[mode]
        out = evolve(system, pulse, init)
        assert out.c_k == pytest.approx(init.c_k, abs=1e-15)
        assert out.c_p == pytest.approx(init.c_p, abs=1e-15)
    # With C_p != 0 a coherent pulse goes to the integrator, which takes no step at all.
    mixed = TwoLevelState(0.6, 0.8j)
    pulse = PulseSpec(mode=PulseMode.COHERENT, rabi=2.0, t0=0.5, tau=0.0, phase=0.3)
    assert pulses.evolve_coherent(system, pulse, mixed) == mixed


def test_coherent_reference_case():
    # alpha = pi/4, phi = pi/2, E_k = 1, E_p = 3, t0 = 0.5, tau = 0.2:
    # moduli cos/sin of pi/4, phases the natural -E*(t0+tau) = -0.7 and -2.1.
    system = TwoLevelSystem(1.0, 3.0)
    pulse = PulseSpec(mode=PulseMode.COHERENT, rabi=2.0 * (math.pi / 4) / 0.2,
                      t0=0.5, tau=0.2, phase=HALF_PI)
    out = pulses.evolve_coherent(system, pulse, natural_init(1.0, 1.0, 0.5))
    assert abs(out.c_k) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)
    assert abs(out.c_p) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)
    assert_phase_close(cmath.phase(out.c_k), -0.7, 1e-12)
    assert_phase_close(cmath.phase(out.c_p), -2.1, 1e-12)


def test_coherent_natural_phase_law():
    rng = np.random.default_rng(41)
    for _ in range(50):
        system, _, t0, tau, phi, modulus = random_case(rng)
        # Keep the area below pi/2 so both cos and sin prefactors stay positive
        # and the laws speak about the argument alone.
        alpha = rng.uniform(0.1, 1.45)
        rabi = 2.0 * alpha / tau
        pulse = PulseSpec(mode=PulseMode.COHERENT, rabi=rabi, t0=t0, tau=tau, phase=phi)
        out = pulses.evolve_coherent(system, pulse, natural_init(modulus, system.e_k, t0))
        t_end = t0 + tau
        assert_phase_close(cmath.phase(out.c_k), -system.e_k * t_end, 1e-9)
        assert_phase_close(cmath.phase(out.c_p), HALF_PI - phi - system.e_p * t_end, 1e-9)


# ---------------------------------------------------------------------------
# non-coherent closed form


def test_noncoherent_at_t0_zero_equals_coherent():
    system = TwoLevelSystem(1.0, 3.0)
    init = natural_init(1.0, 1.0, 0.0)
    nc = PulseSpec(mode=PulseMode.NONCOHERENT, rabi=4.0, t0=0.0, tau=0.6, phase=0.9)
    co = PulseSpec(mode=PulseMode.COHERENT, rabi=4.0, t0=0.0, tau=0.6, phase=0.9)
    out_nc = pulses.evolve_noncoherent(system, nc, init)
    out_co = pulses.evolve_coherent(system, co, init)
    assert out_nc.c_k == pytest.approx(out_co.c_k, abs=1e-15)
    assert out_nc.c_p == pytest.approx(out_co.c_p, abs=1e-15)


def test_noncoherent_reference_case():
    # E_k = 1, E_p = 3, t0 = 0.5, tau = 0.2, alpha = pi/2, phi0 = pi/2:
    # newborn phase -E_k*t0 - E_p*tau = -1.1 instead of the natural -2.1.
    system = TwoLevelSystem(1.0, 3.0)
    init = natural_init(1.0, 1.0, 0.5)
    nc = PulseSpec(mode=PulseMode.NONCOHERENT, rabi=math.pi / 0.2, t0=0.5, tau=0.2, phase=HALF_PI)
    co = PulseSpec(mode=PulseMode.COHERENT, rabi=math.pi / 0.2, t0=0.5, tau=0.2, phase=HALF_PI)
    out_nc = pulses.evolve_noncoherent(system, nc, init)
    out_co = pulses.evolve_coherent(system, co, init)
    assert_phase_close(cmath.phase(out_nc.c_p), -1.1, 1e-12)
    assert_phase_close(cmath.phase(out_co.c_p), -2.1, 1e-12)
    assert_phase_close(cmath.phase(out_nc.c_p) - cmath.phase(out_co.c_p),
                       system.omega_pk * 0.5, 1e-12)


def test_noncoherent_history_phase_law():
    rng = np.random.default_rng(42)
    for _ in range(50):
        system, rabi, t0, tau, phi0, modulus = random_case(rng)
        if abs(math.sin(0.5 * rabi * tau)) < 1e-3:
            continue
        pulse = PulseSpec(mode=PulseMode.NONCOHERENT, rabi=rabi, t0=t0, tau=tau, phase=phi0)
        out = pulses.evolve_noncoherent(system, pulse, natural_init(modulus, system.e_k, t0))
        assert_phase_close(
            cmath.phase(out.c_p), HALF_PI - phi0 - system.e_k * t0 - system.e_p * tau, 1e-9
        )


def test_noncoherent_phase_error_is_transition_frequency_times_t0():
    rng = np.random.default_rng(43)
    for _ in range(50):
        system, rabi, t0, tau, phi, modulus = random_case(rng)
        if abs(math.sin(0.5 * rabi * tau)) < 1e-3:
            continue
        init = natural_init(modulus, system.e_k, t0)
        nc = PulseSpec(mode=PulseMode.NONCOHERENT, rabi=rabi, t0=t0, tau=tau, phase=phi)
        co = PulseSpec(mode=PulseMode.COHERENT, rabi=rabi, t0=t0, tau=tau, phase=phi)
        error = cmath.phase(pulses.evolve_noncoherent(system, nc, init).c_p) - cmath.phase(
            pulses.evolve_coherent(system, co, init).c_p
        )
        assert_phase_close(error, system.omega_pk * t0, 1e-9)


# ---------------------------------------------------------------------------
# phase-corrected


def test_phase_corrected_equals_coherent():
    rng = np.random.default_rng(44)
    for _ in range(50):
        system, rabi, t0, tau, phi, modulus = random_case(rng)
        init = natural_init(modulus, system.e_k, t0)
        pc = PulseSpec(mode=PulseMode.PHASE_CORRECTED, rabi=rabi, t0=t0, tau=tau, phase=phi)
        co = PulseSpec(mode=PulseMode.COHERENT, rabi=rabi, t0=t0, tau=tau, phase=phi)
        out_pc = pulses.evolve_phase_corrected(system, pc, init)
        out_co = pulses.evolve_coherent(system, co, init)
        assert abs(out_pc.c_k - out_co.c_k) <= 1e-12
        assert abs(out_pc.c_p - out_co.c_p) <= 1e-12


def test_phase_corrected_timing_jitter_shifts_newborn_phase():
    # A start-phase correction computed for t0 but fired at t0 + jitter leaves
    # a residual newborn-phase error of omega_pk * jitter.
    system = TwoLevelSystem(1.0, 3.5)
    t0, tau, phi = 0.8, 0.5, 0.4
    rabi = math.pi / tau
    rng = np.random.default_rng(45)
    for _ in range(20):
        jitter = rng.uniform(-0.3, 0.3)
        start = t0 + jitter
        stale_phi0 = phi + system.omega_pk * t0
        fired = PulseSpec(mode=PulseMode.NONCOHERENT, rabi=rabi, t0=start, tau=tau,
                          phase=stale_phi0)
        wanted = PulseSpec(mode=PulseMode.COHERENT, rabi=rabi, t0=start, tau=tau, phase=phi)
        init = natural_init(1.0, system.e_k, start)
        error = cmath.phase(pulses.evolve_noncoherent(system, fired, init).c_p) - cmath.phase(
            pulses.evolve_coherent(system, wanted, init).c_p
        )
        assert_phase_close(error, system.omega_pk * jitter, 1e-9)


# ---------------------------------------------------------------------------
# sudden pulses


def test_sudden_zero_area_is_identity():
    init = TwoLevelState(0.6 - 0.2j, 0.1 + 0.7j)
    out = pulses.evolve_sudden(init, 0.0)
    assert out.c_k == init.c_k
    assert out.c_p == init.c_p


def test_sudden_newborn_inherits_parent_phase_plus_quarter_turn():
    rng = np.random.default_rng(46)
    for _ in range(50):
        e_k = rng.uniform(-3.0, 3.0)
        t0 = rng.uniform(-2.0, 2.0)
        modulus = rng.uniform(0.2, 1.0)
        alpha = rng.uniform(0.05, math.pi - 0.05)
        init = natural_init(modulus, e_k, t0)
        out = pulses.evolve_sudden(init, alpha)
        assert abs(out.c_k) == pytest.approx(modulus * abs(math.cos(alpha)), abs=1e-12)
        assert abs(out.c_p) == pytest.approx(modulus * math.sin(alpha), abs=1e-12)
        assert_phase_close(cmath.phase(out.c_p), cmath.phase(init.c_k) + HALF_PI, 1e-12)


def test_sudden_rotation_componentwise():
    rng = np.random.default_rng(47)
    for _ in range(50):
        alpha = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        c_k = rng.uniform(0.2, 1.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        init = TwoLevelState(c_k, 0.0)
        out = pulses.evolve_sudden(init, alpha)
        assert out.c_k == pytest.approx(c_k * math.cos(alpha), abs=1e-12)
        assert out.c_p == pytest.approx(1j * c_k * math.sin(alpha), abs=1e-12)


def test_sudden_probability_conserved_for_any_init():
    rng = np.random.default_rng(48)
    for _ in range(50):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z /= np.linalg.norm(z)
        init = TwoLevelState(z[0], z[1])
        out = pulses.evolve_sudden(init, rng.uniform(-10.0, 10.0))
        assert out.probability == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# integrator


def test_ode_matches_closed_forms():
    rng = np.random.default_rng(49)
    for _ in range(40):
        system, rabi, t0, tau, phi, modulus = random_case(rng)
        init = natural_init(modulus, system.e_k, t0)
        for mode, evolve in (
            (PulseMode.COHERENT, pulses.evolve_coherent),
            (PulseMode.NONCOHERENT, pulses.evolve_noncoherent),
        ):
            pulse = PulseSpec(mode=mode, rabi=rabi, t0=t0, tau=tau, phase=phi)
            closed = evolve(system, pulse, init)
            ode = pulses.integrate_ode(system, pulse, init)
            assert abs(ode.c_k - closed.c_k) <= 1e-8
            assert abs(ode.c_p - closed.c_p) <= 1e-8
            assert abs(ode.probability - init.probability) <= 1e-10


def test_ode_zero_rabi_is_free_evolution():
    system = TwoLevelSystem(1.3, -0.7)
    pulse = PulseSpec(mode=PulseMode.COHERENT, rabi=0.0, t0=0.4, tau=1.1, phase=0.2)
    init = TwoLevelState(0.6 * cmath.exp(0.3j), 0.8 * cmath.exp(-1.1j))
    out = pulses.integrate_ode(system, pulse, init)
    assert out.c_k == pytest.approx(init.c_k * cmath.exp(-1j * system.e_k * 1.1), abs=1e-10)
    assert out.c_p == pytest.approx(init.c_p * cmath.exp(-1j * system.e_p * 1.1), abs=1e-10)


def test_ode_against_independent_integrator():
    # scipy's adaptive DOP853 on the same coupled equations, written out afresh.
    rng = np.random.default_rng(50)
    for _ in range(5):
        system, rabi, t0, tau, phi, modulus = random_case(rng)
        init = natural_init(modulus, system.e_k, t0)
        for mode in (PulseMode.COHERENT, PulseMode.NONCOHERENT):
            pulse = PulseSpec(mode=mode, rabi=rabi, t0=t0, tau=tau, phase=phi)
            w = system.omega_pk

            def rhs(t, y):
                if mode is PulseMode.NONCOHERENT:
                    theta = w * (t - t0) + phi
                else:
                    theta = w * t + phi
                drive = cmath.exp(1j * theta)
                return [
                    -1j * system.e_k * y[0] + 0.5j * rabi * drive * y[1],
                    -1j * system.e_p * y[1] + 0.5j * rabi * drive.conjugate() * y[0],
                ]

            sol = solve_ivp(rhs, (t0, t0 + tau), [init.c_k, init.c_p],
                            method="DOP853", rtol=1e-12, atol=1e-14)
            ode = pulses.integrate_ode(system, pulse, init)
            assert abs(ode.c_k - sol.y[0, -1]) <= 1e-9
            assert abs(ode.c_p - sol.y[1, -1]) <= 1e-9


def test_ode_general_init_routes_through_closed_form_entry_points():
    # Population already in |p> has no closed form; the evolve_* entry points
    # must hand such inits to the integrator.
    system = TwoLevelSystem(0.5, 2.0)
    pulse = PulseSpec(mode=PulseMode.COHERENT, rabi=3.0, t0=0.1, tau=0.9, phase=-0.4)
    z = np.array([0.6 + 0.1j, -0.3 + 0.72j])
    z /= np.linalg.norm(z)
    init = TwoLevelState(z[0], z[1])
    routed = pulses.evolve_coherent(system, pulse, init)
    direct = pulses.integrate_ode(system, pulse, init)
    assert routed.c_k == direct.c_k
    assert routed.c_p == direct.c_p
    assert abs(routed.probability - 1.0) <= 1e-10


def test_ode_rejects_bad_step_and_sudden_mode():
    system = TwoLevelSystem(0.0, 1.0)
    pulse = PulseSpec(mode=PulseMode.COHERENT, rabi=1.0, t0=0.0, tau=1.0, phase=0.0)
    init = natural_init(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        pulses.integrate_ode(system, pulse, init, step=0.0)
    with pytest.raises(ValueError):
        pulses.integrate_ode(system, pulse, init, step=-0.1)
    sudden = PulseSpec(mode=PulseMode.SUDDEN, area=1.0)
    with pytest.raises(ValueError):
        pulses.integrate_ode(system, sudden, init)


# (mode, rabi, t0, tau, phase, init, step) and float.hex of Re/Im of c_k, c_p.
PINNED_ODE_BITS = [
    ((PulseMode.COHERENT, 1.9, 0.35, 1.3, 0.4, natural_init(0.8, 0.7, 0.35), None),
     ("0x1.b4241cb728ad5p-4", "-0x1.ede2e3627319ep-3", "-0x1.5854e29af0539p-1",
      "0x1.60151e2125c97p-2")),
    ((PulseMode.NONCOHERENT, 2.6, -0.45, 0.8, -2.2, natural_init(1.0, 0.7, -0.45), None),
     ("0x1.f6e3bf9727635p-2", "-0x1.f6ef6c3ccf08dp-4", "-0x1.563b300543aefp-3",
      "0x1.b12ebb3d88e86p-1")),
    ((PulseMode.PHASE_CORRECTED, 0.9, 1.7, 2.1, 1.3, natural_init(0.6, 0.7, 1.7), None),
     ("-0x1.3ef27083f4397p-2", "-0x1.4d630e65d04ddp-3", "-0x1.e5ca60f1c4052p-4",
      "0x1.e2eebfecbca16p-2")),
    ((PulseMode.COHERENT, 3.0, -0.2, 0.9, -1.1, TwoLevelState(0.6 + 0.1j, -0.3 + 0.72j), None),
     ("0x1.1822e7b92a97dp-2", "0x1.5ef9cb2ed629bp-1", "0x1.34dededfee0d3p-1",
      "0x1.0e639fd8fb407p-2")),
    ((PulseMode.NONCOHERENT, 2.4, 0.5, 1.1, 2.0, natural_init(1.0, 0.7, 0.5), 0.0037),
     ("0x1.bae200606bd75p-4", "-0x1.c97cf0778f08dp-3", "-0x1.4f9987f19d842p-1",
      "0x1.6d333829a266dp-1")),
    ((PulseMode.PHASE_CORRECTED, 1.4, -2.3, 1.6, -0.6, natural_init(0.9, 0.7, -2.3), 0.011),
     ("0x1.624756b075634p-2", "0x1.79efa2cd04fc3p-3", "-0x1.961c86075eaa2p-2",
      "-0x1.69a97cb4e17a4p-1")),
    ((PulseMode.NONCOHERENT, 2.2, -37.5, 0.7, 2.8, natural_init(1.0, 0.7, -37.5), None),
     ("0x1.29997158c1eb7p-1", "0x1.af79676a822fap-2", "-0x1.815c98ba61d72p-2",
      "-0x1.2bd9abffe5635p-1")),
    # t0 = -0.0: the drive time origin is -0.0 here and 0.0 in the other resonant modes.
    ((PulseMode.NONCOHERENT, 1.7, -0.0, 1.2, -0.9, TwoLevelState(0.5 - 0.2j, 0.64 + 0.55j), None),
     ("0x1.6d28c3d466fdcp-1", "0x1.afbd71c492de4p-4", "-0x1.50c527d0d1311p-2",
      "-0x1.393053b848c3dp-1")),
]


@pytest.mark.parametrize("case, bits", PINNED_ODE_BITS)
def test_integrate_ode_bits_pinned(case, bits):
    # The integrator's exact output bits; a reordered operation shows here
    # long before it shows against the closed forms' tolerances.
    mode, rabi, t0, tau, phase, init, step = case
    pulse = PulseSpec(mode=mode, rabi=rabi, t0=t0, tau=tau, phase=phase)
    out = pulses.integrate_ode(TwoLevelSystem(0.7, 2.9), pulse, init, step)
    assert tuple(v.hex() for v in (out.c_k.real, out.c_k.imag, out.c_p.real, out.c_p.imag)) == bits


def test_integrate_ode_refuses_divergence():
    system = TwoLevelSystem(1.0, 3.0)
    pulse = PulseSpec(mode=PulseMode.COHERENT, rabi=1e30, tau=1.0, phase=HALF_PI)
    with pytest.raises(ValueError, match=r"non-finite amplitude after 1000 RK4 steps of dt = 0\.001$"):
        pulses.integrate_ode(system, pulse, natural_init(1.0, 1.0, 0.0))


@pytest.mark.parametrize("step, text", [(math.inf, "finite, got inf"), (-math.inf, "finite, got -inf"),
                                        (math.nan, "finite, got nan"), (0.0, "positive, got 0.0"),
                                        (-0.1, "positive, got -0.1")])
def test_integrate_ode_names_the_step_rule_a_step_fails(step, text):
    # The tolerance's rule: an infinite step used to read "step must be positive, got inf".
    pulse = PulseSpec(mode=PulseMode.COHERENT, rabi=1.0, tau=1.0)
    with pytest.raises(ValueError, match=f"^step must be {text}$"):
        pulses.integrate_ode(TwoLevelSystem(0.0, 1.0), pulse, natural_init(1.0, 0.0, 0.0), step)


@pytest.mark.parametrize("step, refused", [(0.005, False), (0.00566, False), (0.006, True)])
def test_integrate_ode_refuses_a_given_step_past_rk4_stability(step, refused):
    # rho = max(|E_k|, |E_p|) + rabi/2 = 500. Step 0.00566 alone gives
    # rho*step > 2*sqrt(2), but the dt it takes, 1/177, gives 2.825 and runs.
    system = TwoLevelSystem(1.0, 3.0)
    pulse = PulseSpec(mode=PulseMode.COHERENT, rabi=994.0, tau=1.0)
    init = natural_init(1.0, 1.0, 0.0)
    if refused:
        with pytest.raises(ValueError, match=r"^step 0\.006 is past RK4's stability limit: "
                                             r"rho\*dt = 2\.99 > 2\*sqrt\(2\)"):
            pulses.integrate_ode(system, pulse, init, step)
    else:
        # Stable is not accurate: so coarse a step damps the amplitudes, but it never grows them.
        assert pulses.integrate_ode(system, pulse, init, step).probability <= 1.0


def test_integrate_ode_refuses_unfinishable_step_counts(monkeypatch):
    system = TwoLevelSystem(1.0, 3.0)
    init = natural_init(1.0, 1.0, 0.0)
    pulse = PulseSpec(mode=PulseMode.COHERENT, rabi=2.0, tau=1.0)
    monkeypatch.setattr(pulses, "_MAX_STEPS", 100)
    pulses.integrate_ode(system, pulse, init, step=0.01)  # exactly at the limit
    # Too many steps, a step count that overflows, and a default step that underflows to 0.
    for tau, step in ((1.0, 0.0099), (1.0, 1e-300), (1e10, 5e-324), (5e-324, None)):
        with pytest.raises(ValueError, match="RK4 steps, more than the limit of 100$"):
            pulses.integrate_ode(system, dataclasses.replace(pulse, tau=tau), init, step)


def test_integrate_ode_refuses_a_clock_that_cannot_advance():
    system = TwoLevelSystem(1.0, 3.0)
    init = TwoLevelState(1.0, 0.0)
    pulse = PulseSpec(mode=PulseMode.NONCOHERENT, rabi=2.0, t0=1e17, tau=1.0)
    with pytest.raises(ValueError, match=r"t0 \+ dt == t0 for t0 = 1e\+17, dt = 0\.001$"):
        pulses.integrate_ode(system, pulse, init)
    pulses.integrate_ode(system, dataclasses.replace(pulse, t0=1e12), init)  # the clock moves


def test_natural_init_refuses_overflowing_phase():
    with pytest.raises(ValueError, match=r"^non-finite phase E\*t for E = 1e\+300, t = 10000000000\.0$"):
        natural_init(1.0, 1e300, 1e10)
    with pytest.raises(ValueError, match="^t0 must be finite$"):
        natural_init(1.0, 1.0, math.inf)


@pytest.mark.parametrize("mode", [PulseMode.COHERENT, PulseMode.NONCOHERENT,
                                  PulseMode.PHASE_CORRECTED])
def test_closed_forms_refuse_overflowing_phase(mode):
    evolve = getattr(pulses, f"evolve_{mode.name.lower()}")
    init = natural_init(1.0, 0.0, 0.0)
    # E_k*tau overflows; then E_p*(t0 + tau) does; then the drive frequency E_p - E_k does.
    for e_k, e_p, tau in ((1e200, 1.0, 1e200), (1.0, 1e200, 1e200), (-1e308, 1e308, 1.0)):
        pulse = PulseSpec(mode=mode, rabi=1.0, tau=tau)
        with pytest.raises(ValueError, match=r"^non-finite phase E\*t for E_k = "):
            evolve(TwoLevelSystem(e_k, e_p), pulse, init)


def test_closed_forms_conserve_probability():
    rng = np.random.default_rng(51)
    for _ in range(50):
        system, rabi, t0, tau, phi, modulus = random_case(rng)
        init = natural_init(modulus, system.e_k, t0)
        for mode, evolve in (
            (PulseMode.COHERENT, pulses.evolve_coherent),
            (PulseMode.NONCOHERENT, pulses.evolve_noncoherent),
            (PulseMode.PHASE_CORRECTED, pulses.evolve_phase_corrected),
        ):
            pulse = PulseSpec(mode=mode, rabi=rabi, t0=t0, tau=tau, phase=phi)
            out = evolve(system, pulse, init)
            assert abs(out.probability - init.probability) <= 1e-12


# ---------------------------------------------------------------------------
# value types


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["rabi", "t0", "tau", "phase"])
def test_pulse_spec_refuses_non_finite_fields(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        PulseSpec(mode=PulseMode.COHERENT, **{name: value})


@pytest.mark.parametrize("area", [math.inf, -math.inf, math.nan])
def test_sudden_pulse_refuses_non_finite_area(area):
    with pytest.raises(ValueError, match="^area must be finite$"):
        pulses.evolve_sudden(TwoLevelState(1.0, 0.0), area)


def test_pulse_spec_wraps_phase():
    pulse = PulseSpec(mode=PulseMode.COHERENT, rabi=1.0, tau=1.0, phase=3.0 * math.pi)
    assert pulse.phase == pytest.approx(math.pi, abs=1e-12)
    assert -math.pi < pulse.phase <= math.pi


def test_pulse_spec_area_rules():
    resonant = PulseSpec(mode=PulseMode.COHERENT, rabi=3.0, tau=0.5)
    assert resonant.pulse_area == pytest.approx(0.75)
    sudden = PulseSpec(mode=PulseMode.SUDDEN, area=1.2)
    assert sudden.pulse_area == 1.2
    with pytest.raises(ValueError):
        PulseSpec(mode=PulseMode.SUDDEN)  # area required
    with pytest.raises(ValueError):
        PulseSpec(mode=PulseMode.COHERENT, rabi=1.0, tau=1.0, area=0.5)
    with pytest.raises(ValueError):
        PulseSpec(mode=PulseMode.COHERENT, rabi=-1.0, tau=1.0)
    with pytest.raises(ValueError):
        PulseSpec(mode=PulseMode.COHERENT, rabi=1.0, tau=-1.0)


def test_mode_mismatch_rejected():
    system = TwoLevelSystem(0.0, 1.0)
    init = natural_init(1.0, 0.0, 0.0)
    coherent = PulseSpec(mode=PulseMode.COHERENT, rabi=1.0, tau=1.0)
    with pytest.raises(ValueError):
        pulses.evolve_noncoherent(system, coherent, init)
    with pytest.raises(ValueError):
        pulses.evolve_phase_corrected(system, coherent, init)


def test_two_level_system_properties():
    system = TwoLevelSystem(1.0, 3.0)
    assert system.omega_pk == 2.0
    assert TwoLevelSystem(2.0, 2.0).omega_pk == 0.0  # degenerate levels allowed
    with pytest.raises(ValueError):
        TwoLevelSystem(math.nan, 0.0)
