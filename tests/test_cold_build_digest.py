"""The cold build's values, pinned across commits.

Other tests compare fast paths with oracles inside one commit, and CI
compares worker counts. This one compares the corpus and aliasing
stages with the values an earlier commit produced: it builds both at a
small scale and hashes a value-level serialisation of everything they
output. Pickle bytes are not hashed, since they depend on object
sharing and on how numpy reduces arrays, not only on values.

A change to numpy's random streams would also trip this test. If that
happens, re-pin ``EXPECTED_DIGEST`` in a change that says so.
"""

import hashlib
import json

from repro.aliasing import AliasingPipeline, MatchKind
from repro.corpus import CorpusGenerator
from repro.flavordb import default_catalog

SCALE = 0.05

EXPECTED_DIGEST = (
    "456590da1e937cd238603009e0c765adfa3ecf9c68a5a96dd9545ef87da43ea8"
)


def cold_build_values(scale: float) -> dict:
    corpus = CorpusGenerator(recipe_scale=scale).generate()
    result = AliasingPipeline(default_catalog()).resolve_corpus(
        corpus.raw_recipes
    )
    report = result.report
    return {
        "raw_recipes": [
            [
                raw.recipe_id,
                raw.region_code,
                raw.title,
                raw.source,
                list(raw.ingredient_phrases),
                raw.instructions,
            ]
            for raw in corpus.raw_recipes
        ],
        "intended": [
            [recipe_id, sorted(ids)]
            for recipe_id, ids in sorted(corpus.intended_ingredients.items())
        ],
        "recipes": [
            [
                recipe.recipe_id,
                recipe.region_code,
                sorted(recipe.ingredient_ids),
                recipe.title,
                recipe.source,
            ]
            for recipe in result.recipes
        ],
        "phrase_counts": {
            kind.value: report.phrase_counts[kind] for kind in MatchKind
        },
        "recipes_total": report.recipes_total,
        "recipes_resolved": report.recipes_resolved,
        "top_unmatched": report.top_unmatched(200),
    }


def test_cold_build_values_are_pinned():
    values = cold_build_values(SCALE)
    blob = json.dumps(values, sort_keys=True, ensure_ascii=False)
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    assert digest == EXPECTED_DIGEST
