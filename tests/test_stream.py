"""The batched seeded draw against numpy's own ``default_rng(seed).random()`` stream.

Every report's draws must be the stream a lone ``np.random.default_rng(seed)``
gives, so these tests compare with numpy directly: a change in numpy's
``SeedSequence`` or PCG64 stream fails here first.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shorphase
from shorphase import _pcg64, cli, shor
from shorphase.config import DelaySchedule, ExperimentConfig

#: Word and range boundaries of the batched stream's seeds, all in [0, 2**128).
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96, 2**128 - 1]

#: Seeds outside [0, 2**128), which numpy's own ``SeedSequence`` seeds.
OUTSIDE_SEEDS = [2**128, 2**300 + 12345]

#: The deepest draw of the default retry cap: the first draw and 16 retries.
DEEPEST = 17


def drawn_seeds(count: int, salt: int) -> list:
    """Seeds of 32, 64, 96 and 128 bits in equal numbers, with the edge seeds first."""
    r = random.Random(salt)
    return EDGE_SEEDS + [r.getrandbits(32 * (1 + i % 4)) for i in range(count)]


def numpy_draws(seeds, draws: int) -> np.ndarray:
    """(seed, draw) doubles of ``default_rng(seed).random()``, one call per draw."""
    out = np.empty((len(seeds), draws))
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        out[row] = [rng.random() for _ in range(draws)]
    return out


def stream_draws(seeds, draws: int) -> np.ndarray:
    """The first ``draws`` doubles of each seed's stream, from rounds of ``JUMPS``."""
    stream = _pcg64.Pcg64(seeds)
    rows = np.arange(len(seeds))
    rounds = -(-draws // _pcg64.JUMPS)
    return np.concatenate([stream.random(rows) for _ in range(rounds)], axis=1)[:, :draws]


def test_stream_matches_default_rng_on_100k_seeds():
    seeds = drawn_seeds(100_000, salt=1)
    np.testing.assert_array_equal(stream_draws(seeds, 2), numpy_draws(seeds, 2))


def test_stream_matches_default_rng_at_every_retry_depth():
    seeds = drawn_seeds(2_000, salt=2)
    np.testing.assert_array_equal(stream_draws(seeds, DEEPEST), numpy_draws(seeds, DEEPEST))


def test_stream_advances_only_the_rows_drawn():
    seeds = drawn_seeds(40, salt=3)
    jumps = _pcg64.JUMPS
    expected = numpy_draws(seeds, 3 * jumps)
    stream = _pcg64.Pcg64(seeds)
    odd = np.arange(1, len(seeds), 2)
    np.testing.assert_array_equal(stream.random(odd), expected[odd, :jumps])
    np.testing.assert_array_equal(stream.random(odd), expected[odd, jumps:2 * jumps])
    # Even rows have not drawn yet: their first round comes next, odd rows' third.
    first = stream.random(np.arange(len(seeds)))
    np.testing.assert_array_equal(first[odd], expected[odd, 2 * jumps:])
    np.testing.assert_array_equal(first[::2], expected[::2, :jumps])


def reference_draws(seeds, caps, marginals):
    """x and retries as one generator per row gives them, with the draw rule written out."""
    xs, retries = [], []
    for seed, cap, p in zip(seeds, caps, marginals.tolist()):
        rng = np.random.default_rng(seed)
        for retry in range(cap + 1):
            u, acc, x = rng.random(), 0.0, 3
            for k in range(3):
                acc += p[k]
                if u < acc:
                    x = k
                    break
            if x != 0:
                break
        xs.append(x)
        retries.append(retry)
    return xs, retries


#: Batch sizes from a lone run up; each draws from the one batched stream.
SIZES = [1, 15, 16, 21, 22, 31, 32, 700]


@pytest.mark.parametrize("size", SIZES)
def test_seeded_draws_match_one_generator_per_config(size):
    # Rows mix the edge seeds, x = 0 shares from never to almost always, and the retry caps.
    seeds = drawn_seeds(size, salt=size)[:size]
    p0 = np.array([0.0, 0.5, 0.9, 0.97])[np.arange(size) % 4]
    rest = 1.0 - p0
    marginals = np.stack([p0, 0.25 * rest, 0.5 * rest, 0.25 * rest], axis=1)
    caps = [(1, 4, 16)[i % 3] for i in range(size)]
    assert shor._seeded_draws(seeds, caps, marginals) == reference_draws(seeds, caps, marginals)


def rows_stopping_at_every_depth() -> tuple:
    """(seed, marginals) rows that stop after 0, 1, ..., 16 retries, then one that never stops.

    A row stops after ``depth`` retries when its draw number ``depth`` is the
    first at or above p0, so p0 goes between the largest earlier draw and it.
    """
    seeds, p0 = [], []
    seed = 0
    for depth in range(DEEPEST):
        while True:
            u = numpy_draws([seed], depth + 1)[0]
            seed += 1
            if u[-1] > u[:-1].max(initial=0.0):
                break
        seeds.append(seed - 1)
        p0.append((u[:-1].max(initial=0.0) + u[-1]) / 2)
    seeds.append(seed)
    p0.append(1.0)
    p0 = np.array(p0)
    rest = (1.0 - p0) / 3
    return seeds, np.stack([p0, rest, rest, rest], axis=1)


@pytest.mark.parametrize("copies", [1, 2, 3, 4])
def test_seeded_draws_reach_every_retry_depth(copies):
    seeds, marginals = rows_stopping_at_every_depth()
    seeds, marginals = seeds * copies, np.tile(marginals, (copies, 1))
    caps = [DEEPEST - 1] * len(seeds)
    x, retries = shor._seeded_draws(seeds, caps, marginals)
    # The last row exhausts the cap: 17 draws of x = 0.
    assert retries == (list(range(DEEPEST)) + [DEEPEST - 1]) * copies
    assert [xi == 0 for xi in x] == ([False] * DEEPEST + [True]) * copies
    assert (x, retries) == reference_draws(seeds, caps, marginals)


def test_seeds_outside_the_stream_keep_their_numpy_stream_in_a_batch():
    seeds = drawn_seeds(32, salt=5) + OUTSIDE_SEEDS
    marginals = np.tile([0.5, 0.0, 0.5, 0.0], (len(seeds), 1))
    caps = [16] * len(seeds)
    assert shor._seeded_draws(seeds, caps, marginals) == reference_draws(seeds, caps, marginals)


def config_with_seed(seed: int) -> ExperimentConfig:
    return ExperimentConfig(delays=DelaySchedule(0.3, 0.1), seed=seed)


def outcomes(reports) -> list:
    return [(r.measured_x, r.retries, r.period, r.factor, r.diagnostic, r.error) for r in reports]


@pytest.mark.parametrize("seed", OUTSIDE_SEEDS, ids=["2**128", "2**300+12345"])
def test_a_lone_run_with_a_seed_outside_the_stream_words_draws_numpys_stream(seed):
    # tau1 moves the draw rule's thresholds across (0, 1), so the runs' x and
    # retries pin the leading draws; seed 2**128's masked words are seed 0's.
    for tau1 in np.linspace(0.0, 3.2, 33).tolist():
        config = ExperimentConfig(delays=DelaySchedule(tau1, 0.1), seed=seed)
        report = shor.run_experiment(config)
        marginals = np.array([[report.x_distribution[x] for x in range(4)]])
        expected = reference_draws([seed], [config.retry_cap], marginals)
        assert ([report.measured_x], [report.retries]) == expected


def test_a_negative_seed_fails_alone_in_a_mixed_batch():
    configs = [config_with_seed(seed) for seed in drawn_seeds(32, salt=4)]
    alone = [shor.run_experiment(config) for config in configs]
    # A lone run and the batch draw each seed's one stream alike.
    assert outcomes(shor.sweep(configs)) == outcomes(alone)
    configs[7] = config_with_seed(-1)
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        shor.run_experiment(configs[7])
    reports = shor.sweep(configs)
    assert reports[7].error == "ValueError: expected non-negative integer"
    assert outcomes(reports[:7] + reports[8:]) == outcomes(alone[:7] + alone[8:])


def test_shor_demo_refuses_a_negative_seed_with_numpys_message(capsys):
    assert cli.main(["shor-demo", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: expected non-negative integer\n")


#: Child interpreter: argv is SRC OUT. Prints the numpy.random modules that one
#: run of each subcommand imported, or "preloaded" where numpy imports them itself.
COLD_RUN = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import numpy
if "numpy.random" in sys.modules:
    print(json.dumps("preloaded"))
    raise SystemExit
from shorphase import cli
grid = ["--tau1-start", "0", "--tau1-stop", "1", "--tau1-count", "2",
        "--tau2-start", "0", "--tau2-stop", "1", "--tau2-count", "2"]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in (["shor-demo", "--tau1", "0", "--tau2", "0"],
                                         ["check-condition", "--tau1", "1"], ["pulse", "--area", "1"],
                                         ["sweep", *grid, "--out", sys.argv[2]])]
print(json.dumps([codes, sorted(name for name in sys.modules if name.startswith("numpy.random"))]))
"""


def test_a_cold_run_of_each_subcommand_does_not_import_numpy_random(tmp_path):
    # numpy >= 2 imports numpy.random on first use; an in-range seed never reaches it.
    src = Path(shorphase.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", COLD_RUN, str(src), str(tmp_path / "grid.csv")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    if result == "preloaded":
        pytest.skip("import numpy alone loads numpy.random on this numpy")
    assert result == [[0, 0, 0, 0], []]
