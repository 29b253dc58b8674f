"""Worker-count invariance of the parallel corpus/aliasing stage builds.

The cold-build fast path fans the ``corpus`` and ``aliasing`` stages
across the process pool; these tests pin the contract that parallelism
is *unobservable* in the results: identical artifact values, identical
pickled bytes (what the disk store writes), and — because ``workers``
is in no stage's ``config_fields`` — identical fingerprints.
"""

from __future__ import annotations

import pickle

import pytest

from repro.aliasing import AliasingPipeline
from repro.engine.config import RunConfig
from repro.engine.engine import Engine
from repro.engine.stages import STAGES
from tests.oracles import NGramMatcher

SCALE = 0.02


def _config(workers):
    return RunConfig(recipe_scale=SCALE, workers=workers)


@pytest.fixture(scope="module")
def serial_artifacts():
    corpus = STAGES["corpus"].build(_config(None), {})
    aliasing = STAGES["aliasing"].build(_config(None), {"corpus": corpus})
    return corpus, aliasing


@pytest.fixture(scope="module")
def parallel_artifacts():
    corpus = STAGES["corpus"].build(_config(2), {})
    aliasing = STAGES["aliasing"].build(_config(2), {"corpus": corpus})
    return corpus, aliasing


class TestWorkerCountInvariance:
    def test_corpus_artifact_bytes_identical(
        self, serial_artifacts, parallel_artifacts
    ):
        assert pickle.dumps(serial_artifacts[0]) == pickle.dumps(
            parallel_artifacts[0]
        )

    def test_aliasing_artifact_bytes_identical(
        self, serial_artifacts, parallel_artifacts
    ):
        assert pickle.dumps(serial_artifacts[1]) == pickle.dumps(
            parallel_artifacts[1]
        )

    def test_aliasing_values_identical(
        self, serial_artifacts, parallel_artifacts
    ):
        serial, parallel = serial_artifacts[1], parallel_artifacts[1]
        assert serial.recipes == parallel.recipes
        assert (
            serial.report.phrase_counts == parallel.report.phrase_counts
        )
        assert serial.report.top_unmatched(
            1000
        ) == parallel.report.top_unmatched(1000)

    def test_workers_never_enter_fingerprints(self):
        assert (
            Engine(_config(None)).fingerprints()
            == Engine(_config(4)).fingerprints()
        )
        for stage in STAGES.values():
            assert "workers" not in stage.config_fields


class TestTrieMatchesReferenceOnCorpus:
    def test_full_corpus_equivalence(self, serial_artifacts, catalog):
        """Trie and the n-gram oracle alias a corpus identically."""
        corpus = serial_artifacts[0]
        reference = AliasingPipeline(catalog)
        reference._matcher = NGramMatcher(reference._normalized_map.get)
        expected = reference.resolve_corpus(corpus.raw_recipes)
        actual = serial_artifacts[1]
        assert actual.recipes == expected.recipes
        assert (
            actual.report.phrase_counts == expected.report.phrase_counts
        )
        assert actual.report.top_unmatched(
            1000
        ) == expected.report.top_unmatched(1000)
