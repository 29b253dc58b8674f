"""CulinaryDB's saved files, pinned across commits.

``tests/test_cold_build_digest.py`` pins the values of the corpus and
aliasing stages. This test pins what a user of the database sees: it
builds CulinaryDB from a small cold build, saves it, and hashes every
CSV and ``_catalog.json``. The recipes table carries each recipe's
title, source and instructions, so a change to how the corpus stores
them that changes any value, or the order of rows, trips this test.

A change to numpy's random streams would also trip it, as it would the
cold-build digest. If that happens, re-pin ``EXPECTED_DIGEST`` in a
change that says so.
"""

import hashlib
from pathlib import Path

from repro.aliasing import AliasingPipeline
from repro.corpus import CorpusGenerator
from repro.culinarydb import CulinaryDB, build_culinarydb
from repro.flavordb import default_catalog

SCALE = 0.05

EXPECTED_DIGEST = (
    "7963dec0a6002fa851e388528e4695b69e6404622b55794da237e8658cd4814d"
)


def saved_database_digest(directory: Path) -> str:
    """SHA-256 over each saved file's name and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode("utf-8") + b"\n")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_saved_culinarydb_is_pinned(tmp_path):
    catalog = default_catalog()
    corpus = CorpusGenerator(recipe_scale=SCALE).generate()
    result = AliasingPipeline(catalog).resolve_corpus(corpus.raw_recipes)
    database = build_culinarydb(
        result.recipes,
        catalog,
        instructions=corpus.raw_recipes.instructions,
    )
    CulinaryDB(database).save(tmp_path)
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "_catalog.json",
        "categories.csv",
        "ingredient_molecules.csv",
        "ingredient_synonyms.csv",
        "ingredients.csv",
        "molecules.csv",
        "recipe_ingredients.csv",
        "recipes.csv",
        "regions.csv",
        "sources.csv",
    ]
    assert saved_database_digest(tmp_path) == EXPECTED_DIGEST
