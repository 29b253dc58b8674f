"""Tests for the retrieval index: structure, stage, fingerprints."""

import numpy as np
import pytest

from repro.engine import STAGE_ORDER, Engine, RunConfig, clear_memory_tier
from repro.retrieval import NEIGHBOR_LIST_LIMIT, build_retrieval_index


@pytest.fixture(scope="module")
def index(workspace):
    return workspace.retrieval()


class TestStructure:
    def test_rows_cover_pairable_catalog(self, index, workspace):
        pairable = [
            ingredient
            for ingredient in workspace.catalog
            if ingredient.has_flavor_profile
        ]
        assert index.size == len(pairable)
        assert list(index.ingredient_ids) == sorted(
            ingredient.ingredient_id for ingredient in pairable
        )

    def test_neighbor_lists_sorted_and_padded(self, index):
        for row in range(index.size):
            partners = index.neighbor_rows[row]
            shared = index.neighbor_shared[row]
            valid = partners >= 0
            # padding is contiguous at the tail, zero-shared
            count = int(valid.sum())
            assert valid[:count].all() and not valid[count:].any()
            assert (shared[count:] == 0).all()
            # entries: positive overlap, no self, (-shared, name) order
            assert (shared[:count] > 0).all()
            assert row not in partners[:count]
            keys = [
                (-int(shared[i]), index.names[int(partners[i])])
                for i in range(count)
            ]
            assert keys == sorted(keys)

    def test_postings_match_profiles(self, index, workspace):
        catalog = workspace.catalog
        for row in (0, index.size // 2, index.size - 1):
            ingredient = catalog.by_id(int(index.ingredient_ids[row]))
            for molecule in ingredient.flavor_profile:
                rows = index.molecule_postings[molecule]
                assert row in rows
                assert list(rows) == sorted(rows)

    def test_cuisine_vectors_unit_norm(self, index):
        norms = np.linalg.norm(index.cuisine_vectors, axis=1)
        assert np.allclose(norms, 1.0)
        assert index.cuisine_codes == tuple(sorted(index.cuisine_codes))
        assert index.cuisine_row == {
            code: row for row, code in enumerate(index.cuisine_codes)
        }

    def test_neighbor_limit_shape(self, index):
        assert index.neighbor_rows.shape == (index.size, NEIGHBOR_LIST_LIMIT)
        assert index.neighbor_shared.shape == index.neighbor_rows.shape


class TestStage:
    SCALE = 0.02

    def test_registered_as_fifth_stage(self):
        assert STAGE_ORDER[-1] == "retrieval_index"
        assert len(STAGE_ORDER) == 5

    def test_fingerprint_worker_invariant(self):
        base = RunConfig(recipe_scale=self.SCALE, include_world_only=False)
        serial = Engine(base).fingerprints()
        parallel = Engine(base.replace(workers=4)).fingerprints()
        assert serial["retrieval_index"] == parallel["retrieval_index"]
        assert serial == parallel

    def test_artifact_matches_direct_build(self):
        config = RunConfig(
            recipe_scale=self.SCALE,
            include_world_only=False,
            no_disk_cache=True,
        )
        engine = Engine(config)
        artifact = engine.artifact("retrieval_index")
        cuisines = engine.artifact("cuisines")
        views = engine.artifact("pairing_views")
        from repro.flavordb import default_catalog

        direct = build_retrieval_index(
            default_catalog(),
            {code: cuisines[code] for code in sorted(views)},
        )
        assert artifact.names == direct.names
        assert np.array_equal(artifact.neighbor_rows, direct.neighbor_rows)
        assert np.array_equal(
            artifact.neighbor_shared, direct.neighbor_shared
        )
        assert artifact.cuisine_codes == direct.cuisine_codes
        assert np.array_equal(
            artifact.cuisine_vectors, direct.cuisine_vectors
        )
        clear_memory_tier()


class TestWorkspaceCaching:
    def test_retrieval_memoized(self, workspace):
        assert workspace.retrieval() is workspace.retrieval()

    def test_engine_built_workspace_carries_stage_artifact(self, workspace):
        # Every workspace comes from the engine path, so its index is
        # the stage artifact.
        assert workspace.retrieval_index is not None
        assert workspace.retrieval() is workspace.retrieval_index
