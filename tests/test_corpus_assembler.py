"""Tests for affinity-biased recipe assembly."""

import dataclasses

import numpy as np
import pytest

from repro.corpus import (
    REGION_GENERATOR_PROFILES,
    WORLD_ONLY_PROFILES,
    CorpusGenerator,
    RecipeAssembler,
    RegionPantry,
    build_pantry,
    overlap_matrix,
    sample_recipe_sizes,
)
from repro.flavordb import stable_seed


def int32_overlap_matrix(ingredients):
    """The integer matmul :func:`overlap_matrix` replaced with float64."""
    width = 1 + max(
        (max(i.flavor_profile) for i in ingredients if i.flavor_profile),
        default=0,
    )
    membership = np.zeros((len(ingredients), width), dtype=np.int32)
    for row, ingredient in enumerate(ingredients):
        if ingredient.flavor_profile:
            membership[row, list(ingredient.flavor_profile)] = 1
    matrix = membership @ membership.T
    np.fill_diagonal(matrix, 0)
    return matrix


@pytest.fixture(scope="module")
def ita_pantry(catalog_module):
    return build_pantry(REGION_GENERATOR_PROFILES["ITA"], catalog_module)


@pytest.fixture(scope="module")
def catalog_module():
    from repro.flavordb import default_catalog

    return default_catalog()


class TestOverlapMatrix:
    def test_symmetric_zero_diagonal(self, ita_pantry):
        matrix = overlap_matrix(ita_pantry.ingredients)
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0)

    def test_values_match_set_intersections(self, ita_pantry):
        matrix = overlap_matrix(ita_pantry.ingredients)
        ingredients = ita_pantry.ingredients
        rng = np.random.default_rng(3)
        for _ in range(50):
            i, j = rng.integers(0, len(ingredients), 2)
            if i == j:
                continue
            expected = ingredients[int(i)].shared_molecules(
                ingredients[int(j)]
            )
            assert matrix[i, j] == expected

    def test_empty(self):
        assert overlap_matrix(()).shape == (0, 0)

    def test_reference_matmul_bit_identical(self, ita_pantry):
        fast = overlap_matrix(ita_pantry.ingredients)
        reference = int32_overlap_matrix(ita_pantry.ingredients)
        assert fast.dtype == reference.dtype
        assert np.array_equal(fast, reference)


class TestReferenceAssembler:
    """The inlined draw must reproduce ``rng.choice`` bit for bit.

    ``RecipeAssembler._draw`` inlines ``rng.choice``'s cdf+searchsorted
    draw (same uniform variate, same arithmetic). Here ``rng.choice``
    itself draws on one stream and the inline on an identically seeded
    other; whole assemblies must match — the corpus depends on it
    staying byte-stable across optimisations.
    """

    def test_assemble_bit_identical(self, ita_pantry, monkeypatch):
        inline_draw = RecipeAssembler._draw
        choice_stream = None
        choice_calls = 0

        def draw(rng, p):
            nonlocal choice_calls
            if rng is not choice_stream:
                return inline_draw(rng, p)
            choice_calls += 1
            return int(rng.choice(len(p), p=p))

        monkeypatch.setattr(RecipeAssembler, "_draw", staticmethod(draw))
        assembler = RecipeAssembler(ita_pantry)
        for seed in range(8):
            rng_fast = np.random.Generator(np.random.PCG64(seed))
            choice_stream = np.random.Generator(np.random.PCG64(seed))
            for size in (1, 2, 5, 9, 15):
                assert np.array_equal(
                    assembler.assemble(rng_fast, size),
                    assembler.assemble(choice_stream, size),
                ), (seed, size)
            # Both paths consumed the identical random stream.
            assert rng_fast.random() == choice_stream.random()
        assert choice_calls > 0


def _per_recipe(assembler, rng, sizes):
    return [assembler.assemble(rng, int(size)) for size in sizes]


def _assert_same_recipes(lockstep, oracle):
    assert len(lockstep) == len(oracle)
    for got, want in zip(lockstep, oracle):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestAssembleMany:
    """Lockstep draws must equal per-recipe ``assemble`` bit for bit.

    Each pair of generators is seeded identically; besides equal recipes,
    both must leave the generator in the same state, since the corpus
    generator keeps drawing from it (coverage enforcement).
    """

    @pytest.fixture(scope="class")
    def small_generator(self, catalog_module):
        return CorpusGenerator(catalog_module, recipe_scale=0.02)

    @pytest.mark.parametrize(
        "profile",
        (*REGION_GENERATOR_PROFILES.values(), *WORLD_ONLY_PROFILES),
        ids=lambda profile: profile.code,
    )
    def test_every_region_profile(
        self, profile, catalog_module, small_generator
    ):
        assembler = RecipeAssembler(build_pantry(profile, catalog_module))
        streams = []
        for _ in range(2):
            rng = np.random.Generator(
                np.random.PCG64(stable_seed("assemble", profile.code))
            )
            sizes = sample_recipe_sizes(
                rng,
                small_generator._region_recipe_count(profile),
                profile.mean_recipe_size,
            )
            streams.append((rng, sizes))
        (lockstep_rng, sizes), (oracle_rng, _) = streams
        _assert_same_recipes(
            assembler.assemble_many(lockstep_rng, sizes),
            _per_recipe(assembler, oracle_rng, sizes),
        )
        assert (
            lockstep_rng.bit_generator.state
            == oracle_rng.bit_generator.state
        )

    @pytest.mark.parametrize("bias", [0.0, -1.6, 1.25])
    def test_bias_and_clamped_sizes(self, ita_pantry, bias):
        profile = dataclasses.replace(ita_pantry.profile, pairing_bias=bias)
        assembler = RecipeAssembler(
            dataclasses.replace(ita_pantry, profile=profile)
        )
        # Mixed sizes across several blocks, some beyond the pantry.
        sizes = np.random.default_rng(5).integers(1, 30, size=700)
        sizes[:3] = ita_pantry.size + 40
        lockstep_rng = np.random.Generator(np.random.PCG64(11))
        oracle_rng = np.random.Generator(np.random.PCG64(11))
        _assert_same_recipes(
            assembler.assemble_many(lockstep_rng, sizes),
            _per_recipe(assembler, oracle_rng, sizes),
        )
        assert lockstep_rng.random() == oracle_rng.random()

    def test_non_positive_total_takes_the_fallback(self, ita_pantry):
        """A tilt summing to 0 sends the whole region through ``assemble``.

        Entry 0 carries all the popularity, entry 1 the smallest
        subnormal and the rest none. Every recipe starts with entry 0;
        unless the noise test fires, entry 1's tilt (a negative bias
        against a shared molecule) rounds to 0, so the total is 0 and
        ``assemble`` picks it with ``rng.integers``.
        """
        first, *others = ita_pantry.ingredients
        partner = next(i for i in others if first.shared_molecules(i) > 0)
        rest = [i for i in others if i is not partner][:4]
        ingredients = (first, partner, *rest)
        popularity = np.zeros(len(ingredients))
        popularity[0] = 1.0
        popularity[1] = 5e-324
        pantry = RegionPantry(
            dataclasses.replace(ita_pantry.profile, pairing_bias=-3.0),
            ingredients,
            popularity,
        )
        assembler = RecipeAssembler(pantry)
        sizes = np.asarray([2, 1, 2, 2, 2, 2, 1, 2] * 8)
        lockstep_rng = np.random.Generator(np.random.PCG64(2))
        oracle_rng = np.random.Generator(np.random.PCG64(2))
        calls = 0
        assemble = assembler.assemble

        def counting_assemble(rng, size):
            nonlocal calls
            calls += 1
            return assemble(rng, size)

        assembler.assemble = counting_assemble
        lockstep = assembler.assemble_many(lockstep_rng, sizes)
        assert calls == len(sizes)  # the whole region fell back
        _assert_same_recipes(
            lockstep, _per_recipe(assembler, oracle_rng, sizes)
        )
        pairs = [recipe.tolist() for recipe in lockstep if len(recipe) == 2]
        assert pairs and all(pair == [0, 1] for pair in pairs)
        assert (
            lockstep_rng.bit_generator.state
            == oracle_rng.bit_generator.state
        )


class TestAssemble:
    def test_size_and_uniqueness(self, ita_pantry, rng):
        assembler = RecipeAssembler(ita_pantry)
        for size in (2, 5, 9, 15):
            recipe = assembler.assemble(rng, size)
            assert len(recipe) == size
            assert len(set(recipe.tolist())) == size

    def test_indices_within_pantry(self, ita_pantry, rng):
        assembler = RecipeAssembler(ita_pantry)
        recipe = assembler.assemble(rng, 10)
        assert recipe.min() >= 0
        assert recipe.max() < ita_pantry.size

    def test_size_clamped_to_pantry(self, catalog_module, rng):
        profile = dataclasses.replace(
            REGION_GENERATOR_PROFILES["KOR"],
            ingredient_count=5,
            signature_ingredients=("garlic", "rice"),
        )
        pantry = build_pantry(profile, catalog_module)
        assembler = RecipeAssembler(pantry)
        recipe = assembler.assemble(rng, 50)
        assert len(recipe) == 5

    def test_pins_exceeding_pantry_rejected(self, catalog_module):
        from repro.datamodel import ConfigurationError

        profile = dataclasses.replace(
            REGION_GENERATOR_PROFILES["KOR"], ingredient_count=5
        )
        with pytest.raises(ConfigurationError):
            build_pantry(profile, catalog_module)

    def test_assemble_many(self, ita_pantry, rng):
        assembler = RecipeAssembler(ita_pantry)
        sizes = np.asarray([3, 7, 9])
        recipes = assembler.assemble_many(rng, sizes)
        assert [len(recipe) for recipe in recipes] == [3, 7, 9]

    def test_popular_ingredients_dominate(self, ita_pantry, rng):
        assembler = RecipeAssembler(ita_pantry)
        usage = np.zeros(ita_pantry.size)
        for _ in range(400):
            for index in assembler.assemble(rng, 9):
                usage[index] += 1
        head_usage = usage[:40].sum()
        assert head_usage > usage.sum() * 0.4

    def test_positive_bias_raises_pairing(self, catalog_module):
        """Recipes from a positive-bias assembler share more molecules than
        recipes from the same pantry with the bias turned off."""
        base_profile = REGION_GENERATOR_PROFILES["ITA"]
        biased = RecipeAssembler(
            build_pantry(base_profile, catalog_module)
        )
        neutral_profile = dataclasses.replace(base_profile, pairing_bias=0.0)
        neutral = RecipeAssembler(
            build_pantry(neutral_profile, catalog_module)
        )

        def mean_pair_overlap(assembler, seed):
            rng = np.random.default_rng(seed)
            matrix = overlap_matrix(assembler.pantry.ingredients)
            total, pairs = 0.0, 0
            for _ in range(300):
                recipe = assembler.assemble(rng, 8)
                block = matrix[np.ix_(recipe, recipe)]
                total += block.sum() / 2
                pairs += len(recipe) * (len(recipe) - 1) / 2
            return total / pairs

        assert mean_pair_overlap(biased, 1) > mean_pair_overlap(neutral, 1)

    def test_deterministic_given_rng(self, ita_pantry):
        assembler = RecipeAssembler(ita_pantry)
        first = assembler.assemble(np.random.default_rng(9), 9)
        second = assembler.assemble(np.random.default_rng(9), 9)
        assert np.array_equal(first, second)
