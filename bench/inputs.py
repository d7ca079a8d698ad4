"""Seeded inputs for the three workloads; the same seed gives the same inputs.

The program sees only what is built here: argv lists for ``cli.main`` and
settings dicts for ``config.build_config``. Ranges follow the README's
examples (delays and times of order 0..10, energies of order the default
spectrum's 0..12); nothing is filtered out after it is drawn.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracle import TWO_PI, energy_table, idx

DEFAULT_OMEGAS = (1.0, 2.3, 3.7, 5.1)


def _rng(seed: int, *tags) -> random.Random:
    # String seeds are hashed with SHA-512, so streams are stable across processes.
    return random.Random(":".join(str(part) for part in (seed, *tags)))


# ---------------------------------------------------------------------------
# sweep-grid


@dataclass(frozen=True)
class SweepCall:
    argv: list
    out: Path
    fmt: str
    natural: bool
    omega: tuple | None
    energies: tuple | None
    stop: float  # both delay axes run over 0..stop
    count: int  # points per axis
    tolerance: float = 1e-9

    @property
    def points(self) -> int:
        return self.count * self.count


def _sweep_call(out: Path, fmt: str, natural: bool, stop: float, count: int,
                omega=None, energies=None) -> SweepCall:
    argv = ["sweep",
            "--tau1-start", "0", "--tau1-stop", repr(stop), "--tau1-count", str(count),
            "--tau2-start", "0", "--tau2-stop", repr(stop), "--tau2-count", str(count)]
    if natural:
        argv += ["--mode", "natural-phase"]
    if omega is not None:
        argv += ["--omega", ",".join(repr(w) for w in omega)]
    if energies is not None:
        argv += ["--energies", ",".join(repr(e) for e in energies)]
    argv += ["--out", str(out)]
    return SweepCall(argv, out, fmt, natural, omega, energies, stop, count)


def sweep_calls(seed: int, out_dir: Path, count: int = 128) -> list[SweepCall]:
    """A free-evolution grid over 0..2pi with the default spectrum, written as CSV,
    and a natural-phase grid over 0..10 with a drawn 16-entry table, written as JSON."""
    rng = _rng(seed, "sweep")
    energies = tuple(rng.uniform(0.0, 12.0) for _ in range(16))
    return [
        _sweep_call(out_dir / "grid-free.csv", "csv", False, TWO_PI, count, omega=DEFAULT_OMEGAS),
        _sweep_call(out_dir / "grid-natural.json", "json", True, 10.0, count, energies=energies),
    ]


# ---------------------------------------------------------------------------
# experiment-batch

MODES = ("free-evolution", "natural-phase")
SPECTRA = ("default", "omega", "energies")
RETRY_CAPS = (1, 4, 16)
#: Settings per (mode, spectrum, retry cap) combination in one batch, and how
#: many of them sit on the satisfying delay lattice.
PER_COMBO = 20
LATTICE_PER_COMBO = 5
#: Batches per pass over the inputs: 111 * 360 = 39960 settings.
PASS_BATCHES = 111
MAX_DELAY = 10.0


def _lattice_delays(rng: random.Random, table: np.ndarray) -> tuple[float, float]:
    """Delays in [0, MAX_DELAY] at which both interference residuals are whole turns."""
    a = table[idx(2, 0)] - table[idx(0, 0)]
    b = table[idx(2, 1)] - table[idx(0, 1)]
    c = table[idx(3, 0)] - table[idx(1, 0)]
    d = table[idx(3, 3)] - table[idx(1, 3)]
    det = a * d - b * c
    for _ in range(200):
        if abs(det) < 1e-9 * max(abs(a * d), abs(b * c), 1.0):
            # Additive spectra: both residuals are w1*(tau1 + tau2).
            total = TWO_PI * rng.randint(0, 6) / a if a else 0.0
            split = rng.random()
            tau1, tau2 = total * split, total * (1.0 - split)
        else:
            k1, k2 = rng.randint(-6, 6), rng.randint(-6, 6)
            tau1 = TWO_PI * (d * k1 - b * k2) / det
            tau2 = TWO_PI * (a * k2 - c * k1) / det
        if 0.0 <= tau1 <= MAX_DELAY and 0.0 <= tau2 <= MAX_DELAY:
            return tau1, tau2
    return 0.0, 0.0


def run_batch(seed: int, index: int, per_combo: int = PER_COMBO,
              lattice_per_combo: int = LATTICE_PER_COMBO) -> list[dict]:
    """Settings dicts of batch ``index``: every mode x spectrum x retry-cap combination
    in equal numbers, shuffled, so each batch costs about the same."""
    rng = _rng(seed, "runs", index)
    batch = []
    for mode, spectrum, cap in itertools.product(MODES, SPECTRA, RETRY_CAPS):
        for j in range(per_combo):
            settings = {"mode": mode, "retry_cap": cap, "seed": rng.randrange(2**32)}
            if spectrum == "omega":
                settings["omega"] = tuple(rng.uniform(0.5, 6.0) for _ in range(4))
            elif spectrum == "energies":
                settings["energies"] = tuple(rng.uniform(0.0, 12.0) for _ in range(16))
            if j < lattice_per_combo:
                table = energy_table(settings.get("omega"), settings.get("energies"))
                settings["tau1"], settings["tau2"] = _lattice_delays(rng, table)
            else:
                settings["tau1"] = rng.uniform(0.0, MAX_DELAY)
                settings["tau2"] = rng.uniform(0.0, MAX_DELAY)
            batch.append(settings)
    rng.shuffle(batch)
    return batch


# ---------------------------------------------------------------------------
# pulse-oracle

#: Modes of one group of pulse requests: one sudden and three of each resonant mode.
GROUP_MODES = ("sudden",) + ("coherent", "noncoherent", "phase-corrected") * 3
GROUPS = 10
STEPS = (500.0, 4000.0)


@dataclass(frozen=True)
class PulseRequest:
    argv: list
    mode: str
    alpha: float
    e_k: float
    e_p: float
    t0: float


def pulse_requests(seed: int, groups: int = GROUPS, steps=STEPS) -> list[list[PulseRequest]]:
    """Groups of pulse requests. Within a group the resonant requests' step counts
    are log-uniform over ``steps``, one from each of nine equal-probability strata,
    so every group does about the same integration work."""
    rng = _rng(seed, "pulses")
    log_lo, log_hi = math.log(steps[0]), math.log(steps[1])
    resonant = len(GROUP_MODES) - 1
    out = []
    for _ in range(groups):
        strata = list(range(resonant))
        rng.shuffle(strata)
        group = []
        for mode in GROUP_MODES:
            e_k = rng.uniform(0.0, 2.0)
            e_p = e_k + rng.uniform(0.5, 3.0)
            t0 = rng.uniform(0.0, 2.0)
            area = rng.uniform(0.1, 3.0)
            argv = ["pulse", "--mode", mode, "--t0", repr(t0), "--energies", f"{e_k!r},{e_p!r}"]
            if mode == "sudden":
                group.append(PulseRequest(argv + ["--area", repr(area)], mode, area, e_k, e_p, t0))
                continue
            duration = rng.uniform(0.5, 2.0)
            n = math.exp(log_lo + (strata.pop() + rng.random()) / resonant * (log_hi - log_lo))
            argv += ["--duration", repr(duration), "--phase", repr(rng.uniform(-math.pi, math.pi)),
                     "--step", repr(duration / n)]
            if rng.random() < 1.0 / 3.0:
                rabi = 2.0 * area / duration
                argv += ["--rabi", repr(rabi)]
                alpha = 0.5 * rabi * duration
            else:
                argv += ["--area", repr(area)]
                alpha = area
            group.append(PulseRequest(argv, mode, alpha, e_k, e_p, t0))
        rng.shuffle(group)
        out.append(group)
    return out
