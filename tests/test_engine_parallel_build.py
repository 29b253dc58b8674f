"""The cold stage builds: byte-stable across processes, blind to workers.

The ``corpus``, ``aliasing`` and ``cuisines`` stages build in one
process, so their pickled bytes (what the disk store writes) depend
only on the values and on the order the build made them in. These
tests pin that a fresh interpreter under another string-hash seed
writes the same bytes, that a build configured with more workers
makes the same bytes and values, that ``workers`` is in no stage's
``config_fields``, and that the trie aliases a corpus as the n-gram
oracle does.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.aliasing import AliasingPipeline
from repro.engine.config import RunConfig
from repro.engine.engine import Engine
from repro.engine.stages import STAGES
from tests.oracles import NGramMatcher

SCALE = 0.02

#: The stages whose payloads the cross-process check hashes.
HASHED_STAGES = ("corpus", "aliasing", "cuisines")

ROOT = Path(__file__).resolve().parent.parent


def _config(workers=None):
    return RunConfig(recipe_scale=SCALE, workers=workers)


def build_stages(config: RunConfig) -> dict:
    """Build :data:`HASHED_STAGES` in order, in this process."""
    artifacts: dict = {}
    for name in HASHED_STAGES:
        stage = STAGES[name]
        artifacts[name] = stage.build(
            config, {dep: artifacts[dep] for dep in stage.deps}
        )
    return artifacts


def payload_digests(artifacts: dict) -> dict[str, str]:
    """SHA-256 of each artifact's pickle, as the disk store writes it."""
    return {
        name: hashlib.sha256(
            pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        ).hexdigest()
        for name, artifact in artifacts.items()
    }


_CHILD = (
    "import json\n"
    "from tests.test_engine_parallel_build import (\n"
    "    _config, build_stages, payload_digests,\n"
    ")\n"
    "print(json.dumps(payload_digests(build_stages(_config()))))\n"
)


def _digests_in_child(hash_seed: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def artifacts():
    return build_stages(_config())


@pytest.fixture(scope="module")
def two_worker_artifacts():
    return build_stages(_config(2))


class TestCrossProcessByteStability:
    def test_payloads_identical_under_two_hash_seeds(self, artifacts):
        expected = payload_digests(artifacts)
        assert set(expected) == set(HASHED_STAGES)
        assert _digests_in_child("1") == expected
        assert _digests_in_child("2") == expected


class TestWorkerCountInvariance:
    """``workers`` sizes the Monte Carlo pool and reaches no stage build."""

    def test_corpus_artifact_bytes_identical(
        self, artifacts, two_worker_artifacts
    ):
        assert pickle.dumps(artifacts["corpus"]) == pickle.dumps(
            two_worker_artifacts["corpus"]
        )

    def test_aliasing_artifact_bytes_identical(
        self, artifacts, two_worker_artifacts
    ):
        assert pickle.dumps(artifacts["aliasing"]) == pickle.dumps(
            two_worker_artifacts["aliasing"]
        )

    def test_aliasing_values_identical(
        self, artifacts, two_worker_artifacts
    ):
        serial = artifacts["aliasing"]
        parallel = two_worker_artifacts["aliasing"]
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
    def test_full_corpus_equivalence(self, artifacts, catalog):
        """Trie and the n-gram oracle alias a corpus identically."""
        corpus = artifacts["corpus"]
        reference = AliasingPipeline(catalog)
        reference._matcher = NGramMatcher(reference._normalized_map.get)
        expected = reference.resolve_corpus(corpus.raw_recipes)
        actual = artifacts["aliasing"]
        assert actual.recipes == expected.recipes
        assert (
            actual.report.phrase_counts == expected.report.phrase_counts
        )
        assert actual.report.top_unmatched(
            1000
        ) == expected.report.top_unmatched(1000)
