"""Command-line front end: experiment runs, pulse demos, sweeps, condition checks.

Subcommands: ``shor-demo``, ``pulse``, ``sweep``, ``check-condition``. Reports
go to stdout as JSON or CSV (sweeps write a file); diagnostics go to stderr.
Exit codes: 0 success, 1 usage or config error, 2 run finished without a
factor. The SHORPHASE_FORMAT environment variable sets the default output
format; flags override it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import pulses, shor, statevec
from .config import (
    _FIELDS,
    _SPECTRUM_SIZES,
    OUTPUT_FORMATS,
    ConfigError,
    DelaySchedule,
    ExperimentConfig,
    PipelineMode,
    _config_settings,
    build_config,
    config_to_text,
    float_list,
    parse_config_text,
)
from .pulses import PulseMode, PulseSpec, TwoLevelSystem, natural_init
from .shor import _SWEEP_CHUNK
from .statevec import wrap_phase

FORMAT_ENV_VAR = "SHORPHASE_FORMAT"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_FACTOR = 2

RUN_CSV_COLUMNS = (
    "mode", "tau1", "tau2", "seed", "measured_x", "period", "factor",
    "delta1", "delta2", "satisfied", "p0", "p1", "p2", "p3", "retries", "diagnostic",
)
PULSE_CSV_COLUMNS = (
    "mode", "e_k", "e_p", "rabi", "duration", "t0", "phase", "area",
    "ck_modulus", "ck_phase", "cp_modulus", "cp_phase",
    "ode_discrepancy", "phase_error_vs_coherent",
)
CONDITION_CSV_COLUMNS = ("tau1", "tau2", "delta1", "delta2", "satisfied")
SWEEP_CSV_COLUMNS = (
    "tau1", "tau2", "delta1", "delta2", "satisfied", "p0", "p1", "p2", "p3", "amp11_mod",
)

#: JSON path of each CSV column that is not a top-level field of its report.
_CSV_PATHS = {
    **{column: ("config", column) for column in ("mode", "tau1", "tau2", "seed")},
    **{column: ("residuals", column) for column in ("delta1", "delta2", "satisfied")},
    **{f"p{x}": ("x_distribution", str(x)) for x in range(4)},
    "ck_modulus": ("c_k", "modulus"), "ck_phase": ("c_k", "phase"),
    "cp_modulus": ("c_p", "modulus"), "cp_phase": ("c_p", "phase"),
}


class UsageError(ValueError):
    """Bad flags or unusable inputs; maps to exit code 1."""


class _NumberList:
    """argparse's test of an argument that starts with "-": a value if ``float_list`` reads it."""

    @staticmethod
    def match(text: str) -> bool:
        try:
            float_list(text)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NumberList

    # argparse exits with code 2 by default, which collides with the
    # no-factor exit code; route everything through UsageError instead.
    def error(self, message):
        raise UsageError(message)


def _format(args, fallback: str | None = None) -> str:
    """Output format: the --format flag, else ``fallback``, else the env var, else JSON."""
    if args.format is not None:
        return args.format
    if fallback is not None:
        return fallback
    fmt = os.environ.get(FORMAT_ENV_VAR)
    if fmt is None:
        return "json"
    if fmt not in OUTPUT_FORMATS:
        raise UsageError(f"{FORMAT_ENV_VAR} must be one of {OUTPUT_FORMATS}, got {fmt!r}")
    return fmt


def _floats(text: str, count: int, what: str) -> tuple[float, ...]:
    try:
        values = float_list(text)
    except ValueError:
        raise UsageError(f"{what} must be comma-separated numbers, got {text!r}") from None
    if len(values) != count:
        raise UsageError(f"{what} needs {count} values, got {len(values)}")
    return values


def _sig(value: float) -> float:
    """Round to the 12 significant digits used in printed reports."""
    return float(f"{value:.12g}")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _csv_field(report: dict, column: str):
    """The value of ``column``: a top-level field of ``report``, else the one at its path."""
    if column in report:
        return report[column]
    outer, inner = _CSV_PATHS[column]
    return report[outer][inner]


def _render(fmt: str, columns, report: dict) -> str:
    """One report as indented JSON, or as a CSV header and row."""
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    row = [_csv_cell(_csv_field(report, column)) for column in columns]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([columns, row])
    return buf.getvalue()


def _spectrum_flags(args) -> dict:
    """``{}``, ``{"omega": ...}`` or ``{"energies": ...}`` from the spectrum flags."""
    if args.omega is not None and args.energies is not None:
        raise UsageError("give either --omega or --energies, not both")
    for key, size in _SPECTRUM_SIZES.items():
        if getattr(args, key) is not None:
            return {key: _floats(getattr(args, key), size, f"--{key}")}
    return {}


def _spectrum_table(args) -> tuple[float, ...]:
    flags = _spectrum_flags(args)
    return statevec._energy_table(flags.get("omega", flags.get("energies", statevec.DEFAULT_OMEGAS)))


def _emit(text: str) -> None:
    sys.stdout.write(text)
    sys.stdout.flush()


# ---------------------------------------------------------------------------
# shor-demo


def _assemble_config(args) -> ExperimentConfig:
    settings: dict = {}
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from None
        settings.update(parse_config_text(text))

    spectrum = _spectrum_flags(args)
    if spectrum:
        settings.pop("omega", None)
        settings.pop("energies", None)
        settings.update(spectrum)

    # Each of these flags has its settings key as its dest.
    for key in ("mode", "tau1", "tau2", "seed", "retry_cap", "tolerance"):
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    settings["format"] = _format(args, settings.get("format"))
    return build_config(settings)


def cmd_shor_demo(args) -> int:
    config = _assemble_config(args)
    if args.dump_config is not None:
        Path(args.dump_config).write_text(config_to_text(config))
    report = shor.run_experiment(config)
    # The JSON run report; it validates against the shipped run_report schema.
    result = {
        "config": {_FIELDS[k]: v for k, v in _config_settings(config).items()},
        "final_state": statevec.state_to_json(report.final_state),
        "x_distribution": {str(x): p for x, p in sorted(report.x_distribution.items())},
        "residuals": dataclasses.asdict(report.residuals),
        "measured_x": report.measured_x,
        "period": report.period,
        "factor": report.factor,
        "retries": report.retries,
        "diagnostic": report.diagnostic,
    }
    _emit(_render(config.output_format, RUN_CSV_COLUMNS, result))
    return EXIT_OK if report.factor is not None else EXIT_NO_FACTOR


# ---------------------------------------------------------------------------
# pulse


def _amplitude(c: complex) -> dict:
    return {"modulus": _sig(abs(c)), "phase": _sig(wrap_phase(np.angle(c)))}


def _pulse_result(args) -> dict:
    mode = PulseMode(args.mode)
    e_k, e_p = _floats(args.energies, 2, "--energies")
    system = TwoLevelSystem(e_k, e_p)
    t0 = args.t0
    init = natural_init(1.0, e_k, t0)

    if mode is PulseMode.SUDDEN:
        if args.area is None:
            raise UsageError("sudden mode needs --area")
        if any(v is not None for v in (args.rabi, args.duration, args.phase, args.step)):
            raise UsageError("sudden pulses take --area, --t0 and --energies only")
        final = pulses.evolve_sudden(init, args.area)
        rabi = duration = phase = ode_discrepancy = phase_error = None
        area = float(args.area)
    else:
        duration = args.duration if args.duration is not None else 1.0
        phase = args.phase if args.phase is not None else 0.5 * math.pi
        if args.area is not None and args.rabi is not None:
            raise UsageError("give --area or --rabi, not both")
        if args.area is not None:
            if duration <= 0:
                raise UsageError("--area needs a positive --duration")
            rabi = 2.0 * args.area / duration
        elif args.rabi is not None:
            rabi = args.rabi
        else:
            raise UsageError("give --area or --rabi")
        spec = PulseSpec(mode=mode, rabi=rabi, t0=t0, tau=duration, phase=phase)
        final = getattr(pulses, f"evolve_{mode.name.lower()}")(system, spec, init)
        ode = pulses.integrate_ode(system, spec, init, args.step)
        ode_discrepancy = max(abs(final.c_k - ode.c_k), abs(final.c_p - ode.c_p))
        area = spec.pulse_area
        phase = spec.phase
        if mode is PulseMode.NONCOHERENT:
            coherent_spec = dataclasses.replace(spec, mode=PulseMode.COHERENT)
            coherent = pulses.evolve_coherent(system, coherent_spec, init)
            phase_error = _sig(wrap_phase(
                np.angle(final.c_p) - np.angle(coherent.c_p)
            ))
        else:
            phase_error = None

    return {
        "mode": mode.value,
        "e_k": e_k,
        "e_p": e_p,
        "rabi": rabi,
        "duration": duration,
        "t0": t0,
        "phase": phase,
        "area": area,
        "c_k": _amplitude(final.c_k),
        "c_p": _amplitude(final.c_p),
        "ode_discrepancy": None if ode_discrepancy is None else _sig(ode_discrepancy),
        "phase_error_vs_coherent": phase_error,
    }


def cmd_pulse(args) -> int:
    result = _pulse_result(args)  # before _format, so a bad pulse is named before a bad format
    _emit(_render(_format(args), PULSE_CSV_COLUMNS, result))
    return EXIT_OK


# ---------------------------------------------------------------------------
# check-condition


def cmd_check_condition(args) -> int:
    try:
        delays = DelaySchedule(args.tau1, args.tau2)
    except ConfigError as exc:
        raise UsageError(str(exc)) from None
    residual = shor.check_condition(_spectrum_table(args), delays, args.tolerance)
    result = {"tau1": delays.tau1, "tau2": delays.tau2, **dataclasses.asdict(residual)}
    _emit(_render(_format(args), CONDITION_CSV_COLUMNS, result))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _sweep_chunk(config: ExperimentConfig, tau1: np.ndarray, tau2: np.ndarray) -> tuple:
    """Result columns (delta1 to amp11_mod) of the grid points (tau1[k], tau2[k]), as one batch.

    A failing batch raises its first failing point's error. The points before
    the first one a check names may fail a later check, so they go again first.
    """
    try:
        states, marginals, deltas, satisfied = shor._evaluate(
            np.asarray(config.spectrum), config.mode, tau1, tau2, config.tolerance
        )
    except ValueError as exc:
        if min(exc.rows):
            _sweep_chunk(config, tau1[:min(exc.rows)], tau2[:min(exc.rows)])
        raise
    amp11 = states[:, statevec.basis_index(1, 1)]
    # hypot rounds as Python's abs(complex) does; np.abs can differ in the last bit.
    return (*deltas.T, satisfied, *marginals.T, np.hypot(amp11.real, amp11.imag))


def _cells(column: np.ndarray) -> list:
    """A column's cells as json.dumps (and so _csv_cell) writes them, each distinct value once."""
    # Distinct by bit pattern, so -0.0 and 0.0 keep their own text.
    bits, inverse = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
    if bits.size == column.size:
        return json.dumps(column.tolist())[1:-1].split(", ")
    text = json.dumps(bits.view(column.dtype).tolist())[1:-1].split(", ")
    return list(map(text.__getitem__, inverse.tolist()))


def _sweep_rows(args, config: ExperimentConfig):
    """The grid's rows as cell text, row-major with tau1 outer, for the shared ``config``."""
    for axis in ("tau1", "tau2"):
        ends = getattr(args, f"{axis}_start"), getattr(args, f"{axis}_stop")
        if not math.isfinite(ends[1] - ends[0]):
            # np.linspace would warn and fill the axis with NaN: name the end that is not a delay.
            bad = next(end for end in ends if not 0.0 <= end < math.inf)
            DelaySchedule(**{"tau1": 0.0, "tau2": 0.0, axis: bad})
    taus1 = np.linspace(args.tau1_start, args.tau1_stop, args.tau1_count)
    taus2 = np.linspace(args.tau2_start, args.tau2_stop, args.tau2_count)
    tau1, tau2 = np.repeat(taus1, taus2.size), np.tile(taus2, taus1.size)
    bad = np.flatnonzero(~(np.isfinite(tau1) & (tau1 >= 0.0) & np.isfinite(tau2) & (tau2 >= 0.0)))
    end = int(bad[0]) if bad.size else tau1.size
    chunks = [_sweep_chunk(config, tau1[start:end][:_SWEEP_CHUNK], tau2[start:end][:_SWEEP_CHUNK])
              for start in range(0, end, _SWEEP_CHUNK)]
    if bad.size:
        # No earlier point failed: this raises with the schedule's message.
        DelaySchedule(float(tau1[end]), float(tau2[end]))
    return zip(*map(_cells, (tau1, tau2, *map(np.concatenate, zip(*chunks)))))


def cmd_sweep(args) -> int:
    for name in ("tau1_count", "tau2_count"):
        if getattr(args, name) < 1:
            raise UsageError(f"--{name.replace('_', '-')} must be at least 1")
    # Every setting is checked before any point is computed: the spectrum, the
    # format, then the tolerance; a failing point is met last.
    spectrum = _spectrum_table(args)
    fmt = _format(args, {".json": "json", ".csv": "csv"}.get(Path(args.out).suffix.lower()))
    rows = _sweep_rows(args, ExperimentConfig(mode=args.mode or PipelineMode.FREE_EVOLUTION,
                                              spectrum=spectrum, tolerance=args.tolerance))
    # The text of csv.writer (no sweep cell needs quoting) or of json.dumps(rows, indent=2):
    # head, each row's text joined by sep, tail.
    if fmt == "csv":
        head, text, sep, tail = ",".join(SWEEP_CSV_COLUMNS) + "\n", ",".join, "\n", "\n"
    else:
        row = "  {\n" + ",\n".join(f"    {json.dumps(c)}: %s" for c in SWEEP_CSV_COLUMNS) + "\n  }"
        head, text, sep, tail = "[\n", row.__mod__, ",\n", "\n]\n"
    # Every cell is ready before the file is opened, so a failing point leaves
    # no file; the text is made one block of rows at a time.
    count = args.tau1_count * args.tau2_count
    with Path(args.out).open("w") as file:
        for start in range(0, count, _SWEEP_CHUNK):
            block = sep.join(map(text, itertools.islice(rows, _SWEEP_CHUNK)))
            file.write((sep if start else head) + block)
        file.write(tail)
    print(f"wrote {count} rows to {args.out}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="shorphase", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spectrum_flags(p):
        p.add_argument("--omega", help="four qubit frequencies 'w0,w1,w2,w3' (additive spectrum)")
        p.add_argument("--energies", help="full 16-entry energy table, comma separated")

    demo = sub.add_parser("shor-demo", help="run one period-finding experiment")
    demo.add_argument("--config", help="config file; flags override its values")
    demo.add_argument("--dump-config", help="write the effective config to this path")
    demo.add_argument("--mode", choices=[m.value for m in PipelineMode])
    demo.add_argument("--tau1", type=float, help="delay before the function evaluation")
    demo.add_argument("--tau2", type=float, help="delay before the DFT")
    add_spectrum_flags(demo)
    demo.add_argument("--seed", type=int, help="measurement RNG seed")
    demo.add_argument("--retry-cap", type=int, help="max redraws after measuring x = 0")
    demo.add_argument("--tolerance", type=float, help="interference-condition tolerance")
    demo.add_argument("--format", choices=OUTPUT_FORMATS)
    demo.set_defaults(func=cmd_shor_demo)

    pulse = sub.add_parser("pulse", help="evolve one two-level pulse and report phases")
    pulse.add_argument("--mode", default="coherent", choices=[m.value for m in PulseMode])
    pulse.add_argument("--rabi", type=float, help="Rabi frequency (area = rabi*duration/2)")
    pulse.add_argument("--duration", type=float, help="pulse length (default 1.0)")
    pulse.add_argument("--area", type=float, help="pulse area; with resonant modes sets rabi")
    pulse.add_argument("--t0", type=float, default=0.0, help="pulse start time")
    pulse.add_argument("--phase", type=float, help="pulse phase (default pi/2)")
    pulse.add_argument("--energies", default="1.0,3.0", help="level energies 'E_k,E_p'")
    pulse.add_argument("--step", type=float, help="integrator step (default duration/1000)")
    pulse.add_argument("--format", choices=OUTPUT_FORMATS)
    pulse.set_defaults(func=cmd_pulse)

    sweep_p = sub.add_parser("sweep", help="grid of delay pairs to a CSV or JSON file")
    sweep_p.add_argument("--tau1-start", type=float, required=True)
    sweep_p.add_argument("--tau1-stop", type=float, required=True)
    sweep_p.add_argument("--tau1-count", type=int, required=True)
    sweep_p.add_argument("--tau2-start", type=float, required=True)
    sweep_p.add_argument("--tau2-stop", type=float, required=True)
    sweep_p.add_argument("--tau2-count", type=int, required=True)
    add_spectrum_flags(sweep_p)
    sweep_p.add_argument("--mode", choices=[m.value for m in PipelineMode])
    sweep_p.add_argument("--tolerance", type=float, default=1e-9)
    sweep_p.add_argument("--out", required=True, help="output file path")
    sweep_p.add_argument("--format", choices=OUTPUT_FORMATS)
    sweep_p.set_defaults(func=cmd_sweep)

    cond = sub.add_parser("check-condition", help="interference-condition residuals")
    cond.add_argument("--tau1", type=float, default=0.0)
    cond.add_argument("--tau2", type=float, default=0.0)
    add_spectrum_flags(cond)
    cond.add_argument("--tolerance", type=float, default=1e-9)
    cond.add_argument("--format", choices=OUTPUT_FORMATS)
    cond.set_defaults(func=cmd_check_condition)

    return parser


@functools.cache
def _main_parser() -> _Parser:
    """The parser ``main`` uses: built on the first call, reused for the life of the process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _main_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))
