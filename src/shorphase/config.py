"""Experiment configuration: pipeline mode, delays, spectrum, and run settings.

Configs are immutable value objects validated at construction, plus a small
human-editable ``key = value`` text format so sweep inputs can be versioned
and replayed. Flags given on the command line override file values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

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


#: Each mode, by itself and by its value.
_MODES = {key: mode for mode in PipelineMode for key in (mode, mode.value)}


def _parse_mode(value) -> PipelineMode:
    mode = _MODES.get(value) if isinstance(value, (str, PipelineMode)) else None
    if mode is None:
        choices = ", ".join(m.value for m in PipelineMode)
        raise ConfigError(f"unknown mode {value!r} (choices: {choices})")
    return mode


def _coerce(config, name: str, kind):
    """Set ``name`` to ``kind`` of its value; ConfigError on a bool, a failure or a lost fraction."""
    value = getattr(config, name)
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
    object.__setattr__(config, name, coerced)
    return coerced


def _check_delay(delays, name: str) -> None:
    """Coerce the delay ``name`` to a float; ConfigError unless it is finite and non-negative."""
    value = _coerce(delays, name, float)
    if not 0.0 <= value < math.inf:  # a NaN fails the comparison too
        raise ConfigError(f"{name} must be finite and non-negative, got {value}")


@dataclass(frozen=True)
class DelaySchedule:
    """Idle times before the function evaluation (tau1) and before the DFT (tau2)."""

    tau1: float
    tau2: float

    def __post_init__(self):
        tau1, tau2 = self.tau1, self.tau2
        # Exact floats in range are kept as they are; anything else takes the full checks.
        if not (type(tau1) is type(tau2) is float and 0.0 <= tau1 < math.inf
                and 0.0 <= tau2 < math.inf):
            _check_delay(self, "tau1")
            _check_delay(self, "tau2")

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


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one period-finding run depends on; a fixed seed fixes the outcome."""

    mode: PipelineMode = PipelineMode.FREE_EVOLUTION
    delays: DelaySchedule = field(default_factory=lambda: DelaySchedule(0.0, 0.0))
    spectrum: tuple[float, ...] = _DEFAULT_SPECTRUM
    seed: int = 0
    retry_cap: int = 16
    tolerance: float = 1e-9
    output_format: str = "json"

    def __post_init__(self):
        object.__setattr__(self, "mode", _parse_mode(self.mode))
        if self.spectrum is not _DEFAULT_SPECTRUM:
            try:
                object.__setattr__(self, "spectrum", statevec._energy_table(self.spectrum))
            except (TypeError, ValueError) as exc:
                raise ConfigError(str(exc)) from None
        cap, tolerance = self.retry_cap, self.tolerance
        # Exact ints and floats in range are kept as they are; anything else takes the full checks.
        if not (type(self.seed) is type(cap) is int and cap >= 1
                and type(tolerance) is float and 0.0 < tolerance < math.inf):
            _coerce(self, "seed", int)
            if _coerce(self, "retry_cap", int) < 1:
                raise ConfigError(f"retry_cap must be at least 1, got {self.retry_cap}")
            tolerance = _coerce(self, "tolerance", float)
            try:
                _check_positive(tolerance, "tolerance")
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if self.output_format not in OUTPUT_FORMATS:
            raise ConfigError(
                f"output format must be one of {OUTPUT_FORMATS}, got {self.output_format!r}"
            )


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
    if "omega" not in settings and "energies" not in settings:
        return
    if "omega" in settings and "energies" in settings:
        raise ConfigError("give either 'omega' or 'energies', not both")
    for key, size in _SPECTRUM_SIZES.items():
        if key in settings:
            value = settings[key]
            try:  # only a sequence is counted; a string or a scalar keeps the spectrum rule's text
                count = size if isinstance(value, str) else len(value)
            except TypeError:
                continue
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


def build_config(settings: dict) -> ExperimentConfig:
    """Turn a raw settings dict (from file and/or flags) into a validated config."""
    if not settings.keys() <= _FIELDS.keys():
        raise ConfigError(f"unknown settings: {sorted(settings.keys() - _FIELDS.keys())}")
    try:
        _check_spectrum_keys(settings)
        kwargs = {_FIELDS[key]: value for key, value in settings.items()}
        kwargs["delays"] = DelaySchedule(kwargs.pop("tau1", 0.0), kwargs.pop("tau2", 0.0))
        return ExperimentConfig(**kwargs)
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
