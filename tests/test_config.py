"""Config validation and the key = value file format."""

import dataclasses
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
from shorphase.shor import ConditionResidual


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
        ({"omega": 5.0}, "spectrum must have 4 or 16 entries, got shape ()"),
        ({"omega": np.array([1 + 2j, 1.0, 1.0, 1.0])},
         "float() argument must be a string or a real number, not 'complex'"),
        ({"energies": np.full(16, 1.0 + 0j)},
         "float() argument must be a string or a real number, not 'complex'"),
        ({"omega": [np.complex128(1 + 2j), 1.0, 1.0, 1.0]},
         "float() argument must be a string or a real number, not 'complex'"),
        ({"omega": (1.0, 2.0, np.complex64(3), 4.0)},
         "float() argument must be a string or a real number, not 'complex'"),
        ({"energies": [np.complex128(1.0)] * 16},
         "float() argument must be a string or a real number, not 'complex'"),
        ({"energies": (0.0,) * 15 + (np.complex128(2 - 1j),)},
         "float() argument must be a string or a real number, not 'complex'"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_bad_field_values_are_config_errors_naming_the_field(settings, message):
    # Refused without a warning: a complex array is not first cast to its real parts.
    with pytest.raises(ConfigError) as err:
        build_config(settings)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"omega": np.zeros((4, 4))}, "omega needs 4 values, got shape (4, 4)"),
        ({"energies": np.zeros((16, 1))}, "energies needs 16 values, got shape (16, 1)"),
        ({"energies": np.zeros((2, 8, 1))}, "energies needs 16 values, got shape (2, 8, 1)"),
        ({"omega": np.zeros((1, 4)), "seed": "x"}, "omega needs 4 values, got shape (1, 4)"),
        ({"omega": np.zeros(3)}, "omega needs 4 values, got 3"),
        ({"omega": np.zeros((0, 4))}, "omega needs 4 values, got 0"),
        ({"omega": np.array(5.0)}, "spectrum must have 4 or 16 entries, got shape ()"),
        ({"omega": np.zeros((4, 4)), "energies": [0.0] * 16}, "omega needs 4 values, got shape (4, 4)"),
        ({"omega": np.array([[1.0], [2.0, 3.0]], dtype=object)},
         "omega needs 4 values, got ragged nested lists"),
    ],
)
def test_an_array_spectrum_setting_reads_as_its_nested_lists(settings, message):
    # One reader names every spectrum shape: an array is refused as its tolist() is.
    as_lists = {key: value.tolist() if isinstance(value, np.ndarray) else value
                for key, value in settings.items()}
    for each in (settings, as_lists):
        with pytest.raises(ConfigError) as err:
            build_config(each)
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


#: A study setting with every key but the format, and the config it builds.
STUDY = {"mode": "natural-phase", "tau1": 1.5, "tau2": 0.25, "omega": (1.0, 2.0, 3.0, 4.0),
         "seed": 7, "retry_cap": 3, "tolerance": 1e-6}
STUDY_REPR = (
    "ExperimentConfig(mode=<PipelineMode.NATURAL_PHASE: 'natural-phase'>, "
    "delays=DelaySchedule(tau1=1.5, tau2=0.25), spectrum=(0.0, 3.0, 4.0, 7.0, 1.0, 4.0, 5.0, "
    "8.0, 2.0, 5.0, 6.0, 9.0, 3.0, 6.0, 7.0, 10.0), seed=7, retry_cap=3, tolerance=1e-06, "
    "output_format='json')"
)


@pytest.mark.parametrize("value, name", [
    (build_config(STUDY), "seed"),
    (DelaySchedule(1.5, 0.25), "tau1"),
    (ConditionResidual(0.5, -0.25, False), "satisfied"),
])
def test_config_values_are_frozen(value, name):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, getattr(value, name))


def test_a_config_is_a_dataclass_value():
    config = build_config(STUDY)
    assert repr(config) == STUDY_REPR
    assert config == build_config(dict(STUDY)) and config != build_config({**STUDY, "seed": 8})
    fields = tuple(getattr(config, f.name) for f in dataclasses.fields(config))
    assert hash(config) == hash(fields)
    assert dataclasses.replace(config) == config
    assert dataclasses.replace(config, seed=8) == build_config({**STUDY, "seed": 8})
    assert dataclasses.asdict(config) == {
        "mode": PipelineMode.NATURAL_PHASE, "delays": {"tau1": 1.5, "tau2": 0.25},
        "spectrum": config.spectrum, "seed": 7, "retry_cap": 3, "tolerance": 1e-6,
        "output_format": "json",
    }
    with pytest.raises(ConfigError, match="retry_cap must be at least 1, got 0"):
        dataclasses.replace(config, retry_cap=0)
    residual = ConditionResidual(0.5, -0.25, False)
    assert repr(residual) == "ConditionResidual(delta1=0.5, delta2=-0.25, satisfied=False)"
    assert residual == ConditionResidual(0.5, -0.25, False)
    assert hash(residual) == hash((0.5, -0.25, False))
    assert dataclasses.asdict(residual) == {"delta1": 0.5, "delta2": -0.25, "satisfied": False}


NUMPY_SCALARS = {"tau1": np.float64(1.5), "tau2": np.float64(0.25), "tolerance": np.float64(1e-6),
                 "seed": np.int64(7), "retry_cap": np.int64(3)}


@pytest.mark.parametrize("numpy_keys", [[key] for key in NUMPY_SCALARS] + [list(NUMPY_SCALARS)])
def test_numpy_scalar_settings_come_out_as_python_numbers(numpy_keys):
    config = build_config({**STUDY, **{key: NUMPY_SCALARS[key] for key in numpy_keys}})
    values = (config.delays.tau1, config.delays.tau2, config.tolerance, config.seed,
              config.retry_cap)
    assert [type(value) for value in values] == [float, float, float, int, int]
    assert config == build_config(STUDY)
    assert "np." not in config_to_text(config)


def test_build_config_runs_post_init_once_per_config(monkeypatch):
    # bench/tracing.py counts configs by wrapping this method on the class.
    seen = []
    real = ExperimentConfig.__post_init__

    def counted(self):
        seen.append(self)
        real(self)

    monkeypatch.setattr(ExperimentConfig, "__post_init__", counted)
    configs = [build_config(settings) for settings in
               ({}, STUDY, {**STUDY, "tau1": np.float64(2.0)}, {"energies": [0.5] * 16})]
    assert [id(config) for config in seen] == [id(config) for config in configs]
