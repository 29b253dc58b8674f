"""Tests for the shared-memory cuisine view transport."""

import pickle
import threading

import numpy as np
import pytest
from multiprocessing import resource_tracker, shared_memory

from repro.datamodel import Cuisine, Ingredient, Recipe
from repro.pairing import (
    build_cuisine_view,
    chi_values,
    cuisine_mean_score,
    scores_from_view,
)
from repro.parallel import AttachedView, SharedViewStore


@pytest.fixture(scope="module")
def view(catalog):
    names_per_recipe = [
        ("tomato", "basil", "garlic", "olive oil"),
        ("tomato", "basil", "oregano"),
        ("tomato", "garlic", "onion", "olive oil", "oregano"),
        ("milk", "butter", "flour"),
        ("tomato", "basil", "milk"),
        ("garlic", "onion", "butter", "thyme"),
    ]
    recipes = [
        Recipe(
            index,
            "ITA",
            frozenset(catalog.get(name).ingredient_id for name in names),
        )
        for index, names in enumerate(names_per_recipe, start=1)
    ]
    return build_cuisine_view(Cuisine("ITA", recipes), catalog)


class TestRoundTrip:
    def test_arrays_survive_the_roundtrip(self, view):
        with SharedViewStore() as store:
            spec = store.publish(view)
            with AttachedView(spec) as attached:
                kernel = attached.view
                assert kernel.region_code == view.region_code
                assert np.array_equal(kernel.overlap, view.overlap)
                assert np.array_equal(kernel.frequencies, view.frequencies)
                assert kernel.categories == view.categories
                assert len(kernel.recipes) == len(view.recipes)
                for mine, theirs in zip(kernel.recipes, view.recipes):
                    assert np.array_equal(mine, theirs)

    def test_kernel_view_has_no_ingredient_objects(self, view):
        with SharedViewStore() as store:
            with AttachedView(store.publish(view)) as attached:
                # Ingredient ids cross the process boundary; ingredient
                # objects are resolved from the catalog on access.
                assert not any(
                    isinstance(value, tuple)
                    and any(isinstance(item, Ingredient) for item in value)
                    for value in vars(attached.view).values()
                )
                assert np.array_equal(
                    attached.view.ingredient_ids, view.ingredient_ids
                )
                assert attached.view.ingredients == view.ingredients
                # ingredient_count must still reflect the matrix size.
                assert (
                    attached.view.ingredient_count == view.ingredient_count
                )

    def test_numeric_pipeline_matches_on_kernel_view(self, view):
        with SharedViewStore() as store:
            with AttachedView(store.publish(view)) as attached:
                assert np.allclose(
                    scores_from_view(attached.view), scores_from_view(view)
                )
                assert cuisine_mean_score(attached.view) == pytest.approx(
                    cuisine_mean_score(view)
                )
                assert np.allclose(
                    chi_values(attached.view), chi_values(view)
                )

    def test_zero_copy_attachment(self, view):
        # Writing through the parent's block must be visible through the
        # attachment: both alias the same memory, nothing was pickled.
        with SharedViewStore() as store:
            spec = store.publish(view)
            block = spec.blocks["frequencies"]
            segment = shared_memory.SharedMemory(name=block.name)
            try:
                parent_array = np.ndarray(
                    block.shape,
                    dtype=np.dtype(block.dtype),
                    buffer=segment.buf,
                )
                with AttachedView(spec) as attached:
                    before = attached.view.frequencies[0]
                    parent_array[0] = before + 41
                    assert attached.view.frequencies[0] == before + 41
                    parent_array[0] = before
            finally:
                segment.close()


class TestSpecSize:
    def test_spec_pickles_small(self, view):
        # The whole point of the transport: a task spec stays a few
        # hundred bytes regardless of the overlap matrix size.
        with SharedViewStore() as store:
            spec = store.publish(view)
            assert len(pickle.dumps(spec)) < 4096
            assert view.overlap.nbytes > len(pickle.dumps(spec))


class TestLifetime:
    def test_close_unlinks_blocks(self, view):
        store = SharedViewStore()
        spec = store.publish(view)
        store.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=spec.blocks["overlap"].name)

    def test_close_is_idempotent(self, view):
        store = SharedViewStore()
        store.publish(view)
        store.close()
        store.close()

    def test_attachment_close_keeps_blocks_alive(self, view):
        with SharedViewStore() as store:
            spec = store.publish(view)
            attached = AttachedView(spec)
            attached.close()
            # The store still owns the blocks: re-attaching must work.
            with AttachedView(spec) as again:
                assert np.array_equal(again.view.overlap, view.overlap)

    def test_empty_cuisineless_arrays_roundtrip(self, catalog):
        # A single-recipe cuisine exercises the minimum-size block path.
        recipe = Recipe(
            1,
            "ITA",
            frozenset(
                catalog.get(name).ingredient_id
                for name in ("tomato", "basil")
            ),
        )
        view = build_cuisine_view(Cuisine("ITA", [recipe]), catalog)
        with SharedViewStore() as store:
            with AttachedView(store.publish(view)) as attached:
                assert np.array_equal(
                    attached.view.recipes[0], view.recipes[0]
                )


class TestConcurrentAttach:
    def test_overlapping_attaches_leave_the_tracker_hook_alone(
        self, view, monkeypatch
    ):
        """Two threads attach at once in the process that owns the blocks.

        A gated ``SharedMemory`` forces the order that used to leave
        ``resource_tracker.register`` swapped for a no-op for good: A
        swaps it, B saves the no-op as the original, A restores, B
        restores the no-op. Every later block would then go unregistered
        and its unlink would make the tracker print a ``KeyError``.
        """
        register = resource_tracker.register
        real = shared_memory.SharedMemory
        a_inside, b_inside, a_done = (threading.Event() for _ in range(3))

        def gated(*args, **kwargs):
            thread = threading.current_thread().name
            if thread == "attach-a" and not a_inside.is_set():
                a_inside.set()
                b_inside.wait(timeout=10)
            elif thread == "attach-b" and not b_inside.is_set():
                b_inside.set()
                a_done.wait(timeout=10)
            return real(*args, **kwargs)

        def attach(spec, done):
            try:
                AttachedView(spec).close()
            finally:
                done.set()

        with SharedViewStore() as store:
            spec = store.publish(view)
            monkeypatch.setattr(shared_memory, "SharedMemory", gated)
            first = threading.Thread(
                target=attach, args=(spec, a_done), name="attach-a"
            )
            second = threading.Thread(
                target=attach,
                args=(spec, threading.Event()),
                name="attach-b",
            )
            try:
                first.start()
                assert a_inside.wait(timeout=10)
                second.start()
                first.join(timeout=30)
                second.join(timeout=30)
            finally:
                hook = resource_tracker.register
                resource_tracker.register = register
        assert not first.is_alive() and not second.is_alive()
        assert b_inside.is_set()
        assert hook is register
