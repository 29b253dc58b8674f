"""The region walk's decoding against numpy's ``Generator``.

The renderer decodes every phrase and title draw from raw PCG64 words
(:func:`repro.corpus.renderer.decode_draws`, with Lemire's bounded method
in :func:`repro.corpus.renderer.bounded`), fetching them in blocks with
:func:`repro.corpus.renderer.refill`. These tests require the same value
at every draw as ``np.random.Generator(np.random.PCG64(seed))`` and the
same rejections; on an unpinned numpy they are what notices a change to
numpy's streams.
"""

import numpy as np
import pytest

from repro.corpus import CorpusGenerator, PhraseRenderer
from repro.corpus.renderer import bounded, decode_draws, refill

#: Bounds the renderer uses (1, 18) and edge cases: 2**31 + 1 rejects
#: about half of its 32-bit draws, so numpy draws again.
BOUNDS = (1, 2, 3, 18, 2**31 + 1, 2**32 - 1)

#: Every bound the renderer and the title draw use, and the largest.
RENDER_BOUNDS = (1, 2, 3, 4, 8, 14, 17, 18, 19, 2**32 - 1)

#: Draws per block in the replays below.
BLOCK = 4096

_LOW32 = 0xFFFFFFFF


def decoded(steps, seed: int, block: int = BLOCK):
    """``steps`` (``None`` = ``random()``, else ``integers(n)``) decoded
    from ``PCG64(seed)``'s words, ``block`` draws at a time."""
    bounds = np.array([0 if n is None else n for n in steps], dtype=np.int64)
    bit_generator = np.random.PCG64(seed)
    words = np.empty(0, dtype=np.uint64)
    position, buffered = 0, -1
    values, rejected = [], []
    for start in range(0, len(bounds), block):
        run = bounds[start : start + block]
        words, position, buffered = refill(
            bit_generator, words, position, buffered, len(run)
        )
        value, reject, position, buffered = decode_draws(
            words, run, position, buffered
        )
        values.append(value)
        rejected.append(reject)
    return np.concatenate(values), np.concatenate(rejected)


def assert_same_draws(steps, seed: int, block: int = BLOCK) -> bool:
    """Compare each decoded draw with numpy's up to the first rejected
    one, after which numpy reads elsewhere; return whether one was."""
    values, rejected = decoded(steps, seed, block)
    generator = np.random.Generator(np.random.PCG64(seed))
    stop = int(np.argmax(rejected)) if rejected.any() else len(steps)
    for index, n in enumerate(steps[:stop]):
        if n is None:
            expected, got = generator.random(), int(values[index]) * 2.0**-53
        else:
            expected, got = int(generator.integers(n)), int(values[index])
        assert got == expected, (index, n)
    return bool(rejected.any())


class TestDecodingMatchesNumpy:
    def test_random_only(self):
        assert not assert_same_draws([None] * 1000, 7)

    @pytest.mark.parametrize("n", BOUNDS)
    def test_integers_only(self, n):
        assert assert_same_draws([n] * 1001, 11) == (n == 2**31 + 1)

    @pytest.mark.parametrize("n", [3, 18, 2**31 + 1])
    def test_rejected_draws_are_the_ones_numpy_redraws(self, n):
        # Integer draws alone read each word's low half, then its high
        # half. numpy's values are the draws ``bounded`` accepts.
        words = np.random.PCG64(5).random_raw(2000)
        halves = np.empty(2 * len(words), dtype=np.uint64)
        halves[0::2], halves[1::2] = words & _LOW32, words >> 32
        values, rejected = bounded(halves, n)
        generator = np.random.Generator(np.random.PCG64(5))
        expected = [int(generator.integers(n)) for _ in range(1001)]
        assert values[~rejected][:1001].tolist() == expected
        assert rejected.any() == (n == 2**31 + 1)

    @pytest.mark.parametrize("seed", [0, 20180417])
    def test_odd_runs_of_32_bit_draws_between_64_bit_draws(self, seed):
        # Runs of 1..5 integer draws leave a high half buffered after
        # odd runs; the random() after them must not consume it. Three
        # blocks' worth of steps crosses at least two refills.
        pattern = np.random.default_rng(seed)
        steps: list[int | None] = []
        while len(steps) < 3 * BLOCK:
            run = int(pattern.integers(1, 6))
            steps.extend(
                RENDER_BOUNDS[int(pattern.integers(len(RENDER_BOUNDS)))]
                for _ in range(run)
            )
            steps.append(None)
        assert not assert_same_draws(steps, seed)
        assert not assert_same_draws(steps, seed, block=7)

    def test_buffered_half_survives_a_refill(self):
        # The block's last draw takes a word's low half; the next block
        # opens with a random(), and its integer draw after that takes
        # the old word's high half.
        steps = [None] * (BLOCK - 1) + [18, None, 18, 18, None]
        assert not assert_same_draws(steps, 3)

    def test_integer_draws_refill_mid_pair(self):
        steps = [None] * (BLOCK - 1) + [3, 3, 3, 3, None]
        assert not assert_same_draws(steps, 5)

    def test_n_of_one_draws_nothing(self):
        values, rejected = decoded([1, None, 1, 5, 1, 5], 13)
        assert values[0] == values[2] == values[4] == 0
        assert not assert_same_draws([1, None, 1, 5, 1, 5], 13)

    @pytest.mark.parametrize("n", [0, -1, 2**32, 2**40])
    def test_n_outside_range_raises(self, n):
        with pytest.raises(ValueError):
            bounded(np.zeros(1, dtype=np.uint64), n)


class TestCorpusMatchesGeneratorDraws:
    def test_every_region_renders_the_same_recipes(self, monkeypatch):
        """Each region's phrases and titles from the walk, and drawn one
        by one through ``render`` and ``_title`` on a numpy ``Generator``
        over the same bit generator."""
        walked = CorpusGenerator(recipe_scale=0.02).generate()
        monkeypatch.setattr(
            PhraseRenderer, "render_lines", lambda self, *args: None
        )
        drawn = CorpusGenerator(recipe_scale=0.02).generate()
        assert walked.region_codes() == drawn.region_codes()
        assert len(walked.region_codes()) == 26
        assert walked.raw_recipes == drawn.raw_recipes
        assert np.array_equal(walked.intended_ids, drawn.intended_ids)
