"""Experiment configuration: pipeline mode, delays, spectrum, and run settings.

Configs are immutable value objects validated at construction, plus a small
human-editable ``key = value`` text format so sweep inputs can be versioned
and replayed. Flags given on the command line override file values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

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


def _parse_mode(value) -> PipelineMode:
    if isinstance(value, PipelineMode):
        return value
    try:
        return PipelineMode(str(value))
    except ValueError:
        choices = ", ".join(m.value for m in PipelineMode)
        raise ConfigError(f"unknown mode {value!r} (choices: {choices})") from None


@dataclass(frozen=True)
class DelaySchedule:
    """Idle times before the function evaluation (tau1) and before the DFT (tau2)."""

    tau1: float
    tau2: float

    def __post_init__(self):
        for name in ("tau1", "tau2"):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")
            object.__setattr__(self, name, value)

    @property
    def total(self) -> float:
        return self.tau1 + self.tau2


_DEFAULT_SPECTRUM = tuple(statevec.additive_spectrum())

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
        try:
            table = statevec.make_spectrum(self.spectrum)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        object.__setattr__(self, "spectrum", tuple(table.tolist()))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "retry_cap", int(self.retry_cap))
        if self.retry_cap < 1:
            raise ConfigError(f"retry_cap must be at least 1, got {self.retry_cap}")
        object.__setattr__(self, "tolerance", float(self.tolerance))
        if not math.isfinite(self.tolerance):
            raise ConfigError(f"tolerance must be finite, got {self.tolerance}")
        if not self.tolerance > 0.0:
            raise ConfigError(f"tolerance must be positive, got {self.tolerance}")
        if self.output_format not in OUTPUT_FORMATS:
            raise ConfigError(
                f"output format must be one of {OUTPUT_FORMATS}, got {self.output_format!r}"
            )


def float_list(text) -> tuple[float, ...]:
    """Parse comma-separated reals; raises ValueError on a part that is not a number."""
    return tuple(float(part) for part in str(text).split(","))


#: Keys accepted in config files, with parsers. "omega" takes the four qubit
#: frequencies, "energies" a full 16-entry table; giving both is an error.
_CONFIG_KEYS = {
    "mode": str,
    "tau1": float,
    "tau2": float,
    "omega": float_list,
    "energies": float_list,
    "seed": int,
    "retry_cap": int,
    "tolerance": float,
    "format": str,
}

#: Settings keys that map one to one onto ExperimentConfig fields.
_CONFIG_FIELDS = {
    "mode": "mode",
    "omega": "spectrum",
    "energies": "spectrum",
    "seed": "seed",
    "retry_cap": "retry_cap",
    "tolerance": "tolerance",
    "format": "output_format",
}


def _check_one_spectrum(settings: dict) -> None:
    if "omega" in settings and "energies" in settings:
        raise ConfigError("give either 'omega' or 'energies', not both")


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
            settings[key] = _CONFIG_KEYS[key](value)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from None
    _check_one_spectrum(settings)
    return settings


def build_config(settings: dict) -> ExperimentConfig:
    """Turn a raw settings dict (from file and/or flags) into a validated config."""
    unknown = set(settings) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown settings: {sorted(unknown)}")
    _check_one_spectrum(settings)
    kwargs = {_CONFIG_FIELDS[key]: value for key, value in settings.items() if key in _CONFIG_FIELDS}
    kwargs["delays"] = DelaySchedule(settings.get("tau1", 0.0), settings.get("tau2", 0.0))
    return ExperimentConfig(**kwargs)


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
