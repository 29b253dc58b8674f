"""The bulk-decoded draw stream against numpy's ``Generator``.

The renderer draws every phrase and title through
:class:`repro.corpus.draws.DrawStream`, which re-implements how numpy
decodes PCG64 words. These tests require the same value at every step
as ``np.random.Generator(np.random.PCG64(seed))``; on an unpinned numpy
they are what notices a change to numpy's streams.
"""

import numpy as np
import pytest

from repro.corpus import CorpusGenerator
from repro.corpus import generator as generator_module
from repro.corpus.draws import CHUNK_WORDS, DrawStream

#: Bounds the renderer uses (1, 18) and edge cases: 2**31 + 1 rejects
#: about half of its 32-bit draws, so Lemire's loop runs.
BOUNDS = (1, 2, 3, 18, 2**31 + 1, 2**32 - 1)


def pair(seed: int) -> tuple[DrawStream, np.random.Generator]:
    return (
        DrawStream(np.random.PCG64(seed)),
        np.random.Generator(np.random.PCG64(seed)),
    )


def assert_same_draws(stream, generator, steps) -> None:
    """Replay ``steps`` (``None`` = ``random()``, else ``integers(n)``)."""
    for index, n in enumerate(steps):
        if n is None:
            expected, got = generator.random(), stream.random()
        else:
            expected, got = int(generator.integers(n)), stream.integers(n)
        assert got == expected, (index, n)


class TestDecodingMatchesNumpy:
    def test_random_only(self):
        stream, generator = pair(7)
        assert_same_draws(stream, generator, [None] * 1000)

    @pytest.mark.parametrize("n", BOUNDS)
    def test_integers_only(self, n):
        stream, generator = pair(11)
        assert_same_draws(stream, generator, [n] * 1001)

    @pytest.mark.parametrize("seed", [0, 20180417])
    def test_odd_runs_of_32_bit_draws_between_64_bit_draws(self, seed):
        # Runs of 1..5 integer draws leave a high half buffered after
        # odd runs; the random() after them must not consume it. Three
        # chunks' worth of steps crosses at least two refills.
        pattern = np.random.default_rng(seed)
        steps: list[int | None] = []
        while len(steps) < 3 * CHUNK_WORDS:
            run = int(pattern.integers(1, 6))
            steps.extend(
                BOUNDS[int(pattern.integers(len(BOUNDS)))] for _ in range(run)
            )
            steps.append(None)
        stream, generator = pair(seed)
        assert_same_draws(stream, generator, steps)

    def test_buffered_half_survives_a_refill(self):
        # The chunk's last word gives its low half to an integer draw;
        # the random() after it refills, and the next integer draw takes
        # the old word's high half.
        steps = [None] * (CHUNK_WORDS - 1) + [18, None, 18, 18, None]
        stream, generator = pair(3)
        assert_same_draws(stream, generator, steps)

    def test_integer_draws_refill_mid_pair(self):
        steps = [None] * (CHUNK_WORDS - 1) + [3, 3, 3, 3, None]
        stream, generator = pair(5)
        assert_same_draws(stream, generator, steps)

    def test_n_of_one_draws_nothing(self):
        stream, generator = pair(13)
        assert stream.integers(1) == int(generator.integers(1)) == 0
        assert stream.random() == generator.random()

    @pytest.mark.parametrize("n", [0, -1, 2**32, 2**40])
    def test_n_outside_range_raises(self, n):
        stream, _ = pair(1)
        with pytest.raises(ValueError):
            stream.integers(n)


class TestCorpusMatchesGeneratorDraws:
    def test_every_region_renders_the_same_recipes(self, monkeypatch):
        """Each region's phrases and titles, drawn through the stream and
        through a numpy ``Generator`` on the same bit generator."""
        streamed = CorpusGenerator(recipe_scale=0.02).generate()
        monkeypatch.setattr(
            generator_module, "DrawStream", np.random.Generator
        )
        drawn = CorpusGenerator(recipe_scale=0.02).generate()
        assert streamed.region_codes() == drawn.region_codes()
        assert len(streamed.region_codes()) == 26
        assert streamed.raw_recipes == drawn.raw_recipes
