"""Tests for the assembled ingredient catalog and its curation protocol."""

import numpy as np
import pytest

from repro.datamodel import Category, LookupFailure
from repro.flavordb import (
    PROFILE_FREE_ADDITIVES,
    REMOVED_GENERIC_ENTITIES,
    SYNONYMS,
    curate_names,
    membership_matrix,
    raw_flavordb_names,
    shared_molecule_counts,
)


class TestCurationProtocol:
    def test_raw_list_contains_noisy_entities(self):
        raw = raw_flavordb_names()
        for noisy in REMOVED_GENERIC_ENTITIES:
            assert noisy in raw

    def test_raw_list_lacks_manual_additions(self):
        raw = set(raw_flavordb_names())
        assert "cayenne" not in raw  # Ahn addition
        assert "anise oil" not in raw  # paper addition
        assert "gelatin" not in raw  # manual additive

    def test_curation_removes_noise_and_restores_additions(self):
        curated = set(curate_names(raw_flavordb_names()))
        assert not curated & set(REMOVED_GENERIC_ENTITIES)
        assert "cayenne" in curated
        assert "anise oil" in curated
        assert "gelatin" in curated

    def test_curated_count_is_840(self):
        assert len(curate_names(raw_flavordb_names())) == 840


class TestCatalogStructure:
    def test_totals(self, catalog):
        assert len(catalog.basic_ingredients()) == 840
        assert len(catalog.compound_ingredients()) == 103
        assert len(catalog) == 943

    def test_ids_contiguous(self, catalog):
        ids = [ingredient.ingredient_id for ingredient in catalog]
        assert ids == list(range(len(catalog)))

    def test_by_id_round_trip(self, catalog):
        for ingredient in list(catalog)[:50]:
            assert catalog.by_id(ingredient.ingredient_id) is ingredient

    def test_by_id_unknown(self, catalog):
        with pytest.raises(LookupFailure):
            catalog.by_id(10**6)

    def test_get_unknown(self, catalog):
        with pytest.raises(LookupFailure):
            catalog.get("unobtainium")

    def test_contains(self, catalog):
        assert "tomato" in catalog
        assert "whisky" in catalog  # synonym
        assert "unobtainium" not in catalog

    def test_by_category(self, catalog):
        herbs = catalog.by_category(Category.HERB)
        assert all(i.category is Category.HERB for i in herbs)
        assert any(i.name == "basil" for i in herbs)

    def test_noisy_entities_absent(self, catalog):
        for noisy in REMOVED_GENERIC_ENTITIES:
            assert catalog.resolve(noisy) is None


class TestSynonyms:
    def test_synonym_resolution(self, catalog):
        assert catalog.get("whisky").name == "whiskey"
        assert catalog.get("aubergine").name == "eggplant"
        assert catalog.get("bun").name == "bread"

    def test_synonyms_recorded_on_ingredient(self, catalog):
        bread = catalog.get("bread")
        assert "bun" in bread.synonyms

    def test_known_names_include_synonyms(self, catalog):
        names = catalog.known_names()
        assert set(SYNONYMS) <= names


class TestProfiles:
    def test_profile_free_additives(self, catalog):
        for name in PROFILE_FREE_ADDITIVES:
            assert not catalog.get(name).has_flavor_profile

    def test_pairable_excludes_profile_free(self, catalog):
        pairable = catalog.pairable_ingredients()
        assert len(pairable) == len(catalog) - len(PROFILE_FREE_ADDITIVES)

    def test_compound_profile_is_union_of_constituents(self, catalog):
        half_half = catalog.get("half half")
        milk = catalog.get("milk")
        cream = catalog.get("cream")
        assert half_half.flavor_profile == (
            milk.flavor_profile | cream.flavor_profile
        )

    def test_nested_compound_pooling(self, catalog):
        # tartar sauce contains mayonnaise, itself a compound.
        tartar = catalog.get("tartar sauce")
        mayonnaise = catalog.get("mayonnaise")
        assert mayonnaise.flavor_profile <= tartar.flavor_profile

    def test_compound_flagged(self, catalog):
        assert catalog.get("mayonnaise").is_compound
        assert not catalog.get("tomato").is_compound


class TestFamilyOf:
    def test_basic_ingredient(self, catalog):
        assert catalog.family_of(catalog.get("garlic")) == "allium-sulfur"

    def test_compound_inherits_first_constituent(self, catalog):
        half_half = catalog.get("half half")
        milk = catalog.get("milk")
        assert catalog.family_of(half_half) == catalog.family_of(milk)

    def test_computed_once_per_ingredient(self, monkeypatch):
        from repro.flavordb import IngredientCatalog
        from repro.flavordb import catalog as catalog_module

        fresh = IngredientCatalog()
        original = catalog_module.primary_family
        calls = []

        def counting(name, category):
            calls.append(name)
            return original(name, category)

        monkeypatch.setattr(catalog_module, "primary_family", counting)
        garlic = fresh.get("garlic")
        families = {fresh.family_of(garlic) for _ in range(3)}
        assert families == {"allium-sulfur"}
        assert calls == ["garlic"]

    def test_deterministic_rebuild(self):
        from repro.flavordb import IngredientCatalog

        first = IngredientCatalog()
        second = IngredientCatalog()
        for left, right in zip(first.ingredients, second.ingredients):
            assert left == right


class TestSharedMoleculeCounts:
    def test_slices_equal_each_subset_matmul(self, catalog):
        """Every region's pantry (the assembler), the pairable
        ingredients (the retrieval index), random subsets in random
        order (the views), one ingredient and none."""
        from repro.corpus import (
            REGION_GENERATOR_PROFILES,
            WORLD_ONLY_PROFILES,
            build_pantry,
        )

        profiles = (*REGION_GENERATOR_PROFILES.values(), *WORLD_ONLY_PROFILES)
        subsets = [
            build_pantry(profile, catalog).ingredient_ids()
            for profile in profiles
        ]
        subsets.append(
            [
                ingredient.ingredient_id
                for ingredient in catalog.pairable_ingredients()
            ]
        )
        rng = np.random.default_rng(4)
        subsets.extend(
            rng.choice(len(catalog), size=size, replace=False)
            for size in (2, 50, 400)
        )
        subsets.extend([[7], []])
        for ids in subsets:
            expected = shared_molecule_counts(
                membership_matrix([catalog.by_id(int(i)) for i in ids])
            )
            counts = catalog.shared_molecule_counts(ids)
            assert counts.dtype == np.uint8
            assert np.array_equal(counts, expected)

    def test_kept_in_the_narrowest_dtype(self, catalog):
        counts = catalog.shared_molecule_counts(range(len(catalog)))
        assert counts.dtype == np.min_scalar_type(int(counts.max()))
        assert np.all(np.diag(counts) == 0)

    def test_one_matmul_per_catalog(self, monkeypatch):
        from repro.flavordb import IngredientCatalog
        from repro.flavordb import catalog as catalog_module

        fresh = IngredientCatalog()
        original = catalog_module.shared_molecule_counts
        calls = []

        def counting(membership):
            calls.append(membership.shape)
            return original(membership)

        monkeypatch.setattr(catalog_module, "shared_molecule_counts", counting)
        for ids in ([1, 2, 3], [5], range(40)):
            fresh.shared_molecule_counts(ids)
        assert calls == [(len(fresh), calls[0][1])]
