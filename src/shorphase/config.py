"""Experiment configuration: pipeline mode, delays, spectrum, and run settings.

Configs are immutable value objects validated at construction, plus a small
human-editable ``key = value`` text format so sweep inputs can be versioned
and replayed. Flags given on the command line override file values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import statevec


class ConfigError(ValueError):
    """Raised for malformed configuration values or files."""


class PipelineMode(enum.Enum):
    """How phases are bookkept across the transformation sequence.

    FREE_EVOLUTION lets every amplitude accumulate exp(-i*E*dt) between the
    instantaneous transformations, so a term's phase records the path of
    states it passed through. NATURAL_PHASE instead leaves every surviving
    term with the phase a stationary state of that energy would have at the
    final clock time, which is what a coherent resonant-pulse implementation
    produces.
    """

    FREE_EVOLUTION = "free-evolution"
    NATURAL_PHASE = "natural-phase"


#: Each mode by its value.
_MODES = {mode.value: mode for mode in PipelineMode}


def _coerce(value, name: str, kind):
    """``value`` as ``kind``; ConfigError on a bool, a failure or a lost fraction."""
    if type(value) is kind:
        return value
    try:
        coerced = None if isinstance(value, (bool, np.bool_)) else kind(value)
    except (TypeError, ValueError, OverflowError):
        coerced = None
    # A string such as "7" is parsed; an integer field takes 4.0 but refuses 2.7.
    if coerced is None or kind is int and not isinstance(value, str) and coerced != value:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return coerced


def _delay(value, name: str) -> float:
    """``value`` as a float; ConfigError unless it is finite and non-negative."""
    # A float subclass such as np.float64 converts as _coerce would convert it.
    value = float(value) if isinstance(value, float) else _coerce(value, name, float)
    if not 0.0 <= value < math.inf:  # a NaN fails the comparison too
        raise ConfigError(f"{name} must be finite and non-negative, got {value}")
    return value


@dataclass(frozen=True, init=False)
class DelaySchedule:
    """Idle times before the function evaluation (tau1) and before the DFT (tau2)."""

    tau1: float
    tau2: float

    def __init__(self, tau1, tau2):
        # Exact floats in range are kept as they are; anything else takes the full checks.
        if not (type(tau1) is type(tau2) is float and 0.0 <= tau1 < math.inf
                and 0.0 <= tau2 < math.inf):
            tau1, tau2 = _delay(tau1, "tau1"), _delay(tau2, "tau2")
        values = self.__dict__  # frozen: the checked values are stored past __setattr__
        values["tau1"], values["tau2"] = tau1, tau2

    @property
    def total(self) -> float:
        return self.tau1 + self.tau2


def _check_positive(value, name: str):
    """``value``, if it is finite and positive; else ValueError naming ``name`` and the rule it fails."""
    if not (math.isfinite(value) and value > 0.0):
        rule = "positive" if math.isfinite(value) else "finite"
        raise ValueError(f"{name} must be {rule}, got {value}")
    return value


#: Python floats, as every config's spectrum: ``config_to_text`` writes their reprs.
#: Checked here once; a config that keeps this immutable tuple is not checked again.
_DEFAULT_SPECTRUM = statevec._energy_table(statevec.DEFAULT_OMEGAS)

OUTPUT_FORMATS = ("json", "csv")


#: The delays of a config that names none; a frozen value, so configs may share it.
_NO_DELAYS = DelaySchedule(0.0, 0.0)


@dataclass(frozen=True, init=False)
class ExperimentConfig:
    """Everything one period-finding run depends on; a fixed seed fixes the outcome."""

    mode: PipelineMode
    delays: DelaySchedule
    spectrum: tuple[float, ...]
    seed: int
    retry_cap: int
    tolerance: float
    output_format: str

    def __init__(self, mode=PipelineMode.FREE_EVOLUTION, delays=_NO_DELAYS,
                 spectrum=_DEFAULT_SPECTRUM, seed=0, retry_cap=16, tolerance=1e-9,
                 output_format="json"):
        # Item stores into the instance dict: a keyword update() builds a dict first.
        values = self.__dict__
        values["mode"], values["delays"], values["spectrum"] = mode, delays, spectrum
        values["seed"], values["retry_cap"], values["tolerance"] = seed, retry_cap, tolerance
        values["output_format"] = output_format
        self.__post_init__()

    def __post_init__(self):
        value, delays, spectrum = self.mode, self.delays, self.spectrum
        # A member is taken by its type: an Enum's __hash__ is a Python-level call.
        mode = (value if type(value) is PipelineMode
                else _MODES.get(value) if isinstance(value, str) else None)
        if mode is None:
            choices = ", ".join(m.value for m in PipelineMode)
            raise ConfigError(f"unknown mode {value!r} (choices: {choices})")
        if not isinstance(delays, DelaySchedule):
            raise ConfigError(f"delays must be a DelaySchedule, got {delays!r}")
        seed, cap, tolerance = self.seed, self.retry_cap, self.tolerance
        # The spectrum and tolerance rules raise ValueError or TypeError; a config raises ConfigError.
        try:
            if spectrum is not _DEFAULT_SPECTRUM:
                spectrum = statevec._energy_table(spectrum)
            # Exact ints and floats in range are kept as they are; anything else takes the full checks.
            if not (type(seed) is type(cap) is int and cap >= 1
                    and type(tolerance) is float and 0.0 < tolerance < math.inf):
                seed = _coerce(seed, "seed", int)
                cap = _coerce(cap, "retry_cap", int)
                if cap < 1:
                    raise ConfigError(f"retry_cap must be at least 1, got {cap}")
                tolerance = _check_positive(_coerce(tolerance, "tolerance", float), "tolerance")
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        output_format = self.output_format
        if output_format not in OUTPUT_FORMATS:
            raise ConfigError(
                f"output format must be one of {OUTPUT_FORMATS}, got {output_format!r}"
            )
        values = self.__dict__
        values["mode"], values["spectrum"], values["seed"] = mode, spectrum, seed
        values["retry_cap"], values["tolerance"] = cap, tolerance
        values["output_format"] = str(output_format)  # np.str_ is a str subclass


def float_list(text) -> tuple[float, ...]:
    """Parse comma-separated reals; raises ValueError on a part that is not a number."""
    return tuple(float(part) for part in str(text).split(","))


#: Each settings key: its parser for config-file text, and its name as an
#: ExperimentConfig field and in a run report (tau1, tau2: the delays' fields).
_CONFIG_KEYS = {
    "mode": (str, "mode"),
    "tau1": (float, "tau1"),
    "tau2": (float, "tau2"),
    "omega": (float_list, "spectrum"),
    "energies": (float_list, "spectrum"),
    "seed": (int, "seed"),
    "retry_cap": (int, "retry_cap"),
    "tolerance": (float, "tolerance"),
    "format": (str, "output_format"),
}

#: Each settings key's ExperimentConfig field.
_FIELDS = {key: name for key, (_, name) in _CONFIG_KEYS.items()}

#: How many values each spectrum key holds: four qubit frequencies, or a full table.
_SPECTRUM_SIZES = {"omega": 4, "energies": 16}


def _nested_shape(value) -> tuple | None:
    """The shape numpy gives lists and tuples nested in each other, or None if they are ragged.

    Found level by level without numpy, whose handling of a ragged nesting
    depends on its version; an array inside is read as its nested lists.
    """
    shape, level = [], [value]
    while level and all(isinstance(item, (list, tuple)) for item in level):
        lengths = set(map(len, level))
        if len(lengths) > 1:
            return None
        shape.append(lengths.pop())
        level = [item.tolist() if isinstance(item, np.ndarray) else item
                 for items in level for item in items]
    if any(isinstance(item, (list, tuple)) for item in level):
        return None  # a list beside a scalar
    return tuple(shape)


def _check_spectrum_keys(settings: dict) -> None:
    """At most one spectrum key, holding its own count of values; ``build_config`` names shapes."""
    key = "omega" if "omega" in settings else "energies" if "energies" in settings else None
    if key is None:
        return
    if key == "omega" and "energies" in settings:
        raise ConfigError("give either 'omega' or 'energies', not both")
    value, size = settings[key], _SPECTRUM_SIZES[key]
    try:  # only a sequence is counted; a string or a scalar keeps the spectrum rule's text
        count = size if isinstance(value, str) else len(value)
    except TypeError:
        return
    if count != size:
        raise ConfigError(f"{key} needs {size} values, got {count}")


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines into a raw settings dict.

    Blank lines and ``#`` comments (whole line or trailing) are skipped.
    Errors carry the offending line number.
    """
    settings: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in settings:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            settings[key] = _CONFIG_KEYS[key][0](value)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from None
    _check_spectrum_keys(settings)
    return settings


#: The value of each field that a settings dict leaves out: ExperimentConfig's defaults.
(_MODE, _DELAYS, _SPECTRUM, _SEED, _RETRY_CAP, _TOLERANCE,
 _FORMAT) = ExperimentConfig.__init__.__defaults__
_TAU1, _TAU2 = _DELAYS.tau1, _DELAYS.tau2


def build_config(settings: dict) -> ExperimentConfig:
    """Turn a raw settings dict (from file and/or flags) into a validated config."""
    if not settings.keys() <= _FIELDS.keys():
        raise ConfigError(f"unknown settings: {sorted(settings.keys() - _FIELDS.keys())}")
    try:
        _check_spectrum_keys(settings)
        get = settings.get
        return ExperimentConfig(
            get("mode", _MODE), DelaySchedule(get("tau1", _TAU1), get("tau2", _TAU2)),
            get("omega", get("energies", _SPECTRUM)), get("seed", _SEED),
            get("retry_cap", _RETRY_CAP), get("tolerance", _TOLERANCE), get("format", _FORMAT),
        )
    except ConfigError:
        # A nested spectrum list, or an array read as its lists, fails the count or the
        # spectrum rule; name its shape instead, whatever failed first. Valid ones never come here.
        for key, size in _SPECTRUM_SIZES.items():
            value = settings.get(key)
            value = value.tolist() if isinstance(value, np.ndarray) else value
            if type(value) in (list, tuple):
                shape = _nested_shape(value)
                if shape is None or len(shape) > 1:
                    got = "ragged nested lists" if shape is None else f"shape {shape}"
                    raise ConfigError(f"{key} needs {size} values, got {got}") from None
        raise


def _config_settings(config: ExperimentConfig) -> dict:
    """A config's settings in file order; ``build_config`` turns them back into ``config``."""
    return {
        "mode": config.mode.value,
        "tau1": config.delays.tau1,
        "tau2": config.delays.tau2,
        "energies": list(config.spectrum),
        "seed": config.seed,
        "retry_cap": config.retry_cap,
        "tolerance": config.tolerance,
        "format": config.output_format,
    }


def config_to_text(config: ExperimentConfig) -> str:
    """Serialize a config to the text format; reloading reproduces the same run."""
    lines = ["# shorphase experiment config"]
    for key, value in _config_settings(config).items():
        if key == "energies":
            value = ", ".join(map(repr, value))
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
