"""Config validation and the key = value file format."""

import math
from pathlib import PurePosixPath

import numpy as np
import pytest

from shorphase import statevec
from shorphase.config import (
    ConfigError,
    DelaySchedule,
    ExperimentConfig,
    PipelineMode,
    build_config,
    config_to_text,
    parse_config_text,
)


def test_defaults():
    config = ExperimentConfig()
    assert config.mode is PipelineMode.FREE_EVOLUTION
    assert config.delays == DelaySchedule(0.0, 0.0)
    assert config.spectrum == tuple(statevec.additive_spectrum())
    assert config.retry_cap == 16
    assert config.tolerance == 1e-9
    assert config.output_format == "json"


def test_quadruple_spectrum_expands_to_table():
    config = ExperimentConfig(spectrum=(1.0, 2.3, 3.7, 5.1))
    assert config.spectrum == tuple(statevec.additive_spectrum())


def test_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig(retry_cap=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(tolerance=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(tolerance=math.inf)
    with pytest.raises(ConfigError):
        ExperimentConfig(output_format="yaml")
    with pytest.raises(ConfigError):
        ExperimentConfig(spectrum=(1.0, 2.0))


class Label(str):
    """A str subclass: parsed by its text, like a plain str."""


CHOICES = "(choices: free-evolution, natural-phase)"


@pytest.mark.parametrize(
    "value, expected",
    [
        (PipelineMode.FREE_EVOLUTION, PipelineMode.FREE_EVOLUTION),
        (PipelineMode.NATURAL_PHASE, PipelineMode.NATURAL_PHASE),
        ("free-evolution", PipelineMode.FREE_EVOLUTION),
        ("natural-phase", PipelineMode.NATURAL_PHASE),
        (Label("natural-phase"), PipelineMode.NATURAL_PHASE),
        ("sideways", f"unknown mode 'sideways' {CHOICES}"),
        ("FREE-EVOLUTION", f"unknown mode 'FREE-EVOLUTION' {CHOICES}"),
        ("natural-phase ", f"unknown mode 'natural-phase ' {CHOICES}"),
        (Label("sideways"), f"unknown mode 'sideways' {CHOICES}"),
        (None, f"unknown mode None {CHOICES}"),
        (0, f"unknown mode 0 {CHOICES}"),
        (PurePosixPath("natural-phase"), f"unknown mode PurePosixPath('natural-phase') {CHOICES}"),
    ],
)
def test_mode_is_a_member_or_its_exact_value(value, expected):
    if isinstance(expected, PipelineMode):
        assert ExperimentConfig(mode=value).mode is expected
    else:
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(mode=value)
        assert str(err.value) == expected


def test_parse_config_text_values_and_comments():
    text = """
    # a comment
    mode = natural-phase
    tau1 = 0.25   # trailing comment
    tau2 = 1.5
    omega = 1, 2, 3, 4
    seed = 11
    retry_cap = 3
    tolerance = 1e-6
    format = csv
    """
    settings = parse_config_text(text)
    assert settings["mode"] == "natural-phase"
    assert settings["tau1"] == 0.25
    assert settings["omega"] == (1.0, 2.0, 3.0, 4.0)
    assert settings["seed"] == 11
    config = build_config(settings)
    assert config.mode is PipelineMode.NATURAL_PHASE
    assert config.delays == DelaySchedule(0.25, 1.5)
    assert config.retry_cap == 3
    assert config.output_format == "csv"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("tau1 0.5", "line 1"),
        ("speed = 3", "line 1"),
        ("tau1 = sluggish", "line 1"),
        ("tau1 = 1\ntau1 = 2", "line 2"),
        ("omega = 1,2,3,4\nenergies = " + ",".join(["0"] * 16), "not both"),
        ("omega = 1, 2", "omega needs 4 values, got 2"),
        ("energies = 1, 2, 3, 4", "energies needs 16 values, got 4"),
        ("omega = " + ", ".join(["1.5"] * 16), "omega needs 4 values, got 16"),
    ],
)
def test_parse_config_text_errors(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert fragment in str(err.value)


def test_text_round_trip_rebuilds_identical_config():
    config = ExperimentConfig(
        mode=PipelineMode.NATURAL_PHASE,
        delays=DelaySchedule(0.125, 2.75),
        spectrum=(0.5, 1.5, 2.5, 3.5),
        seed=42,
        retry_cap=5,
        tolerance=1e-7,
        output_format="csv",
    )
    rebuilt = build_config(parse_config_text(config_to_text(config)))
    assert rebuilt == config
    # A full table that no four frequencies give, written back as 16 energies.
    table = tuple(0.25 * k * k for k in range(16))
    for mode in PipelineMode:
        config = ExperimentConfig(mode=mode, delays=DelaySchedule(1.5, 0.5), spectrum=table, seed=3)
        rebuilt = build_config(parse_config_text(config_to_text(config)))
        assert rebuilt == config


def test_build_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        build_config({"speed": 3})


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"seed": "x"}, "seed must be an integer, got 'x'"),
        ({"seed": None}, "seed must be an integer, got None"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"retry_cap": 2.7}, "retry_cap must be an integer, got 2.7"),
        ({"retry_cap": math.inf}, "retry_cap must be an integer, got inf"),
        ({"retry_cap": 0.0}, "retry_cap must be at least 1, got 0"),
        ({"tolerance": None}, "tolerance must be a number, got None"),
        ({"tolerance": "x"}, "tolerance must be a number, got 'x'"),
        ({"tolerance": math.nan}, "tolerance must be finite, got nan"),
        ({"energies": [1j] * 16}, "float() argument must be a string or a real number, not 'complex'"),
        ({"energies": [1.0] * 4}, "energies needs 16 values, got 4"),
        ({"omega": [1.0] * 16}, "omega needs 4 values, got 16"),
        ({"tau1": "x"}, "tau1 must be a number, got 'x'"),
        ({"tau2": None}, "tau2 must be a number, got None"),
        ({"tolerance": True}, "tolerance must be a number, got True"),
        ({"tau1": True}, "tau1 must be a number, got True"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"retry_cap": True}, "retry_cap must be an integer, got True"),
        ({"tolerance": np.True_}, f"tolerance must be a number, got {np.True_!r}"),
        ({"energies": np.zeros((4, 4))}, "energies needs 16 values, got shape (4, 4)"),
        ({"energies": np.zeros(4)}, "energies needs 16 values, got 4"),
        ({"omega": np.zeros((4, 4))}, "omega needs 4 values, got shape (4, 4)"),
        ({"energies": np.zeros((16, 1))}, "energies needs 16 values, got shape (16, 1)"),
        ({"omega": [[0.0] * 4] * 4}, "omega needs 4 values, got shape (4, 4)"),
        ({"omega": [[1.0, 2.0], [3.0, 4.0]]}, "omega needs 4 values, got shape (2, 2)"),
        ({"energies": [[1.0] * 16]}, "energies needs 16 values, got shape (1, 16)"),
        ({"omega": [[1.0, 2.0], [3.0]]}, "omega needs 4 values, got ragged nested lists"),
        ({"omega": [[1.0], [2.0], [3.0], 4.0]}, "omega needs 4 values, got ragged nested lists"),
        ({"omega": [[0.0] * 4] * 4, "seed": "x"}, "omega needs 4 values, got shape (4, 4)"),
    ],
)
def test_bad_field_values_are_config_errors_naming_the_field(settings, message):
    with pytest.raises(ConfigError) as err:
        build_config(settings)
    assert str(err.value) == message


def test_a_one_dimensional_array_of_sixteen_energies_is_a_table():
    energies = np.linspace(0.0, 7.5, 16)
    assert build_config({"energies": energies}).spectrum == tuple(energies.tolist())


def test_integral_values_and_negative_seeds_pass_validation():
    # A negative seed is numpy's to refuse, when a run draws from it.
    config = build_config({"seed": -1, "retry_cap": 4.0, "tolerance": 1, "omega": [1, 2, 3, 4]})
    assert (config.seed, config.retry_cap, config.tolerance) == (-1, 4, 1.0)
    assert type(config.retry_cap) is int and type(config.tolerance) is float
    assert all(type(e) is float for e in config.spectrum)


def test_every_config_spectrum_holds_python_floats():
    # config_to_text writes reprs, and a numpy scalar's repr is not a float literal.
    for config in (ExperimentConfig(), build_config({"energies": statevec.additive_spectrum()})):
        assert all(type(e) is float for e in config.spectrum)
        assert "np." not in config_to_text(config)
