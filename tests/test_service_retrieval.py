"""Tests for the retrieval endpoints (/similar, /complete, /recommend,
/pairings) and the shared ingredient-resolution helper's error envelope."""

import pytest

from repro.obs import get_registry
from repro.service import QueryService, ResultCache, ServiceApp
from tests.oracles import scan_similar


@pytest.fixture(scope="module")
def service(workspace):
    return QueryService(workspace)


@pytest.fixture()
def app(service):
    return ServiceApp(service, cache=ResultCache(capacity=64))


class TestSimilar:
    def test_ingredient_matches(self, app):
        status, body = app.dispatch(
            "POST", "/similar", {"ingredient": "garlic", "k": 5}
        )
        assert status == 200
        assert body["ingredient"] == "garlic"
        assert 0 < len(body["matches"]) <= 5
        shared = [m["shared_molecules"] for m in body["matches"]]
        assert shared == sorted(shared, reverse=True)
        assert all(count > 0 for count in shared)

    def test_cuisine_matches(self, app):
        status, body = app.dispatch(
            "POST", "/similar", {"cuisine": "ita", "k": 3}
        )
        assert status == 200
        assert body["cuisine"] == "ITA"
        assert len(body["matches"]) == 3
        similarities = [m["similarity"] for m in body["matches"]]
        assert similarities == sorted(similarities, reverse=True)
        assert "ITA" not in {m["region_code"] for m in body["matches"]}

    def test_requires_exactly_one_subject(self, app):
        for payload in (
            {},
            {"ingredient": "garlic", "cuisine": "ITA"},
        ):
            status, body = app.dispatch("POST", "/similar", payload)
            assert status == 400
            assert body["error"]["code"] == "invalid_field"

    def test_unknown_cuisine_is_404(self, app):
        status, body = app.dispatch(
            "POST", "/similar", {"cuisine": "NOPE"}
        )
        assert status == 404
        assert body["error"]["code"] == "unknown_region"

    def test_profileless_ingredient_is_422(self, app, workspace):
        unpairable = next(
            i.name for i in workspace.catalog if not i.has_flavor_profile
        )
        status, body = app.dispatch(
            "POST", "/similar", {"ingredient": unpairable}
        )
        assert status == 422
        assert body["error"]["code"] == "not_pairable"

    def test_counts_retrieval_metrics(self, app):
        def hits():
            total = 0.0
            for series in get_registry().collect():
                if (
                    series.name == "repro_retrieval_hit_total"
                    and series.labels.get("kind") == "similar"
                ):
                    total += series.metric.value
            return total

        before = hits()
        status, _body = app.dispatch(
            "POST", "/similar", {"ingredient": "onion"}
        )
        assert status == 200
        assert hits() == before + 1


class TestPairingsOracle:
    @pytest.mark.parametrize("limit", [1, 10, 50])
    def test_partners_match_scan(self, service, workspace, limit):
        """/pairings ranks every pairable ingredient's partners exactly
        as the brute-force scan does."""
        catalog = workspace.catalog
        for ingredient in catalog.pairable_ingredients():
            body = service.handle_pairings(
                {"ingredient": ingredient.name, "limit": limit}
            )
            target = catalog.get(body["ingredient"])
            assert body["partners"] == [
                {
                    "name": match.name,
                    "category": catalog.by_id(
                        match.ingredient_id
                    ).category.value,
                    "shared_molecules": match.shared_molecules,
                }
                for match in scan_similar(catalog, target, limit)
            ], ingredient.name


class TestKValidation:
    """The retrieval endpoints cap k exactly like /pairings' limit."""

    @pytest.mark.parametrize(
        "path,payload",
        [
            ("/similar", {"ingredient": "garlic"}),
            ("/complete", {"ingredients": ["garlic", "onion"]}),
        ],
    )
    @pytest.mark.parametrize("k", [0, 51, "ten", True])
    def test_bad_k_is_400(self, app, path, payload, k):
        status, body = app.dispatch("POST", path, {**payload, "k": k})
        assert status == 400
        assert body["error"]["code"] == "invalid_field"


class TestUnresolvableEnvelope:
    """One resolution helper, one error envelope — across every
    ingredient-taking endpoint, old and new."""

    @pytest.mark.parametrize(
        "path,payload",
        [
            ("/score", {"ingredients": ["florbnorb", "garlic"]}),
            ("/classify", {"ingredients": ["florbnorb"]}),
            ("/pairings", {"ingredient": "florbnorb"}),
            ("/similar", {"ingredient": "florbnorb"}),
            ("/complete", {"ingredients": ["florbnorb", "garlic"]}),
        ],
    )
    def test_unresolvable_name_is_404(self, app, path, payload):
        status, body = app.dispatch("POST", path, payload)
        assert status == 404
        assert body["error"]["code"] == "unknown_ingredient"
        assert "florbnorb" in body["error"]["message"]
        assert body["status"] == 404


class TestComplete:
    def test_completions_ranked(self, app):
        status, body = app.dispatch(
            "POST",
            "/complete",
            {"ingredients": ["garlic", "onion", "tomato"], "k": 5},
        )
        assert status == 200
        assert body["resolved"] == ["garlic", "onion", "tomato"]
        assert body["pairable"] == 3
        assert len(body["completions"]) == 5
        shared = [c["shared_molecules"] for c in body["completions"]]
        assert shared == sorted(shared, reverse=True)
        names = {c["name"] for c in body["completions"]}
        assert names.isdisjoint({"garlic", "onion", "tomato"})
        for completion in body["completions"]:
            assert completion["delta"] == pytest.approx(
                completion["score"] - body["completions"][0]["score"]
                + body["completions"][0]["delta"],
                abs=5e-4,
            )

    def test_profileless_partial_is_422(self, app, workspace):
        unpairable = [
            i.name for i in workspace.catalog if not i.has_flavor_profile
        ][:2]
        status, body = app.dispatch(
            "POST", "/complete", {"ingredients": unpairable}
        )
        assert status == 422
        assert body["error"]["code"] == "not_pairable"


class TestRecommend:
    def test_response_shape(self, app):
        status, body = app.dispatch(
            "POST", "/recommend", {"region": "ITA", "count": 2, "seed": 7}
        )
        assert status == 200
        assert body["region"] == "ITA"
        assert len(body["proposals"]) == 2
        for proposal in body["proposals"]:
            assert len(proposal["ingredients"]) >= 2
            assert 0.0 <= proposal["novelty"] <= 1.0
        assert len(body["similar_cuisines"]) == 5
        assert "ITA" not in {
            m["region_code"] for m in body["similar_cuisines"]
        }

    def test_deterministic_per_payload(self, service):
        payload = {"region": "ITA", "count": 2, "seed": 11}
        assert service.handle_recommend(payload) == service.handle_recommend(
            payload
        )
        different = service.handle_recommend({**payload, "seed": 12})
        assert different != service.handle_recommend(payload)

    def test_size_respected(self, service):
        body = service.handle_recommend(
            {"region": "ITA", "count": 1, "size": 6}
        )
        assert len(body["proposals"][0]["ingredients"]) == 6

    def test_unknown_region_is_404(self, app):
        status, body = app.dispatch(
            "POST", "/recommend", {"region": "XX"}
        )
        assert status == 404
        assert body["error"]["code"] == "unknown_region"

    def test_bad_count_is_400(self, app):
        status, body = app.dispatch(
            "POST", "/recommend", {"region": "ITA", "count": 11}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_field"
