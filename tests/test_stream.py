"""The batched seeded draw against numpy's own ``default_rng(seed).random()`` stream.

Every report's draws must be the stream a lone ``np.random.default_rng(seed)``
gives, so these tests compare with numpy directly: a change in numpy's
``SeedSequence`` or PCG64 stream fails here first.
"""

import random

import numpy as np
import pytest

from shorphase import _pcg64, cli, shor
from shorphase.config import DelaySchedule, ExperimentConfig

#: Word and range boundaries of the batched stream's seeds, all in [0, 2**128).
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96, 2**128 - 1]

#: Seeds outside [0, 2**128), which keep numpy's generator.
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
    stream = _pcg64.Pcg64(seeds)
    rows = np.arange(len(seeds))
    return np.stack([stream.random(rows) for _ in range(draws)], axis=1)


def test_stream_matches_default_rng_on_100k_seeds():
    seeds = drawn_seeds(100_000, salt=1)
    np.testing.assert_array_equal(stream_draws(seeds, 2), numpy_draws(seeds, 2))


def test_stream_matches_default_rng_at_every_retry_depth():
    seeds = drawn_seeds(2_000, salt=2)
    np.testing.assert_array_equal(stream_draws(seeds, DEEPEST), numpy_draws(seeds, DEEPEST))


def test_stream_advances_only_the_rows_drawn():
    seeds = drawn_seeds(40, salt=3)
    expected = numpy_draws(seeds, 3)
    stream = _pcg64.Pcg64(seeds)
    odd = np.arange(1, len(seeds), 2)
    np.testing.assert_array_equal(stream.random(odd), expected[odd, 0])
    np.testing.assert_array_equal(stream.random(odd), expected[odd, 1])
    # Even rows have not drawn yet: their first draw comes next, odd rows' third.
    first = stream.random(np.arange(len(seeds)))
    np.testing.assert_array_equal(first[odd], expected[odd, 2])
    np.testing.assert_array_equal(first[::2], expected[::2, 0])


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


#: Batch sizes at both sides of the crossover, plus 21, 22, 31 and 32, which stay
#: on the stream wherever the crossover sits at or below 21.
SIZES = sorted({1, shor._STREAM_MIN_ROWS - 1, shor._STREAM_MIN_ROWS, 21, 22, 31, 32, 700})


@pytest.mark.parametrize("size", SIZES)
def test_seeded_draws_match_one_generator_per_config(size):
    # Below the crossover numpy's generator draws, from it the stream. Rows mix
    # the edge seeds, x = 0 shares from never to almost always, and the retry caps.
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


@pytest.mark.parametrize("copies", sorted({1, 2 * shor._STREAM_MIN_ROWS // DEEPEST + 1, 3, 4}))
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
    seeds = drawn_seeds(2 * shor._STREAM_MIN_ROWS, salt=5) + OUTSIDE_SEEDS
    marginals = np.tile([0.5, 0.0, 0.5, 0.0], (len(seeds), 1))
    caps = [16] * len(seeds)
    assert shor._seeded_draws(seeds, caps, marginals) == reference_draws(seeds, caps, marginals)


def config_with_seed(seed: int) -> ExperimentConfig:
    return ExperimentConfig(delays=DelaySchedule(0.3, 0.1), seed=seed)


def outcomes(reports) -> list:
    return [(r.measured_x, r.retries, r.period, r.factor, r.diagnostic, r.error) for r in reports]


def test_a_negative_seed_fails_alone_in_a_mixed_batch():
    configs = [config_with_seed(seed) for seed in drawn_seeds(2 * shor._STREAM_MIN_ROWS, salt=4)]
    alone = [shor.run_experiment(config) for config in configs]
    # The batch draws from the stream, a lone run from numpy's generator.
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
