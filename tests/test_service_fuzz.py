"""Fuzz every endpoint from its declared request spec.

The strategies are derived from each route's spec
(:mod:`repro.service.requests`, found through ``ROUTES[path].handler``):
valid values for each field kind, and payloads with exactly one thing
wrong. Every request goes through :meth:`ServiceApp.dispatch` on the
session workspace, as the transport would send it.

Fields that set how much work a request does draw from the bottom of
their range, which keeps the suite to seconds.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel import REGIONS
from repro.flavordb import default_catalog
from repro.service import ROUTES, QueryService, ResultCache, ServiceApp
from repro.service.requests import (
    BOOL,
    CODE,
    INT,
    LIST,
    NUMBER,
    STRING,
    STRINGS,
    fields_of,
)

#: path -> request spec, for every route whose handler declares one.
SPECS = {
    path: getattr(QueryService, route.handler).spec
    for path, route in ROUTES.items()
    if hasattr(getattr(QueryService, route.handler, None), "spec")
}

#: The GET routes that take no field and ignore any object payload
#: (``/metrics`` checks its ``format`` in the app layer).
FIELDLESS = ("/healthz", "/readyz", "/regions", "/stats")

#: Upper ends drawn for the fields that set how much work a request does.
WORK_CAPS = {
    "n_samples": 200,
    "count": 2,
    "seconds": 0.03,
}

#: The codes a payload with one thing wrong may be refused with.
MUTATION_CODES = {"invalid_payload", "unknown_field", "invalid_field"}

NAMES = sorted(ingredient.name for ingredient in default_catalog())
CODES = [region.code for region in REGIONS]
SQL = [
    "SELECT COUNT(*) AS n FROM recipes",
    "SELECT region_code, COUNT(*) AS n FROM recipes GROUP BY region_code",
    "SELECT recipe_id FROM recipes WHERE n_ingredients >= ?",
    "DELETE FROM recipes",
]

TEXT = st.text(max_size=12)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1000, 1000),
    st.floats(allow_nan=False, allow_infinity=False),
    TEXT,
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)


def _nullable(item):
    return item.default is None and not item.metadata["required"]


def valid_value(item):
    """Values the field's kind accepts (the endpoint may still refuse)."""
    kind, low, high = (
        item.metadata["kind"],
        item.metadata["low"],
        item.metadata["high"],
    )
    if item.name in WORK_CAPS:
        high = WORK_CAPS[item.name]
    if kind == STRING:
        values = st.sampled_from(NAMES + SQL) | TEXT.filter(str.strip)
    elif kind == CODE:
        values = (
            st.sampled_from(CODES + [code.lower() for code in CODES])
            | TEXT.filter(str.strip)
        )
    elif kind == STRINGS:
        values = st.lists(
            st.sampled_from(NAMES) | TEXT.filter(str.strip),
            min_size=1,
            max_size=5,
        )
    elif kind == LIST:
        values = st.lists(SCALARS, max_size=3)
    elif kind == BOOL:
        values = st.booleans()
    elif kind == INT:
        values = st.integers(low, high)
    elif kind == NUMBER:
        numbers = st.floats(low, high)
        values = numbers | numbers.map(str)
    else:
        values = st.sampled_from([member.value for member in kind])
    return values | st.none() if _nullable(item) else values


def _not_a_number(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


def wrong_value(item):
    """Values of a type the field's kind refuses."""
    kind = item.metadata["kind"]
    if kind in (STRING, CODE):
        values = st.one_of(
            st.integers(), st.booleans(), st.lists(TEXT), st.just("  ")
        )
    elif kind == STRINGS:
        values = st.one_of(
            TEXT,
            st.just([]),
            st.lists(st.integers(), min_size=1),
            st.lists(st.sampled_from(NAMES), max_size=2).map(
                lambda names: names + [" "]
            ),
        )
    elif kind == LIST:
        values = st.one_of(TEXT, st.integers(), st.booleans())
    elif kind == BOOL:
        values = st.one_of(st.integers(), TEXT, st.lists(st.booleans()))
    elif kind == INT:
        values = st.one_of(
            st.booleans(),
            st.floats(),
            TEXT,
            st.lists(st.integers(), max_size=2),
        )
    elif kind == NUMBER:
        values = st.one_of(
            st.booleans(),
            TEXT.filter(_not_a_number),
            st.lists(st.floats(), max_size=2),
        )
    else:
        known = {member.value for member in kind}
        values = st.one_of(
            TEXT.filter(lambda text: text not in known), st.integers()
        )
    values = values | st.dictionaries(TEXT, SCALARS, max_size=2)
    return values if _nullable(item) else values | st.none()


def out_of_bounds(item):
    """Numbers just outside the field's bounds, or far outside a float's
    range (``None`` if unbounded)."""
    kind, low, high = (
        item.metadata["kind"],
        item.metadata["low"],
        item.metadata["high"],
    )
    if kind not in (INT, NUMBER) or low is None:
        return None
    if kind == INT:
        return st.sampled_from([low - 1, high + 1])
    return st.sampled_from(
        [
            math.nextafter(low, -math.inf),
            math.nextafter(high, math.inf),
            -(10**400),
            10**400,
        ]
    )


@st.composite
def valid_bodies(draw, spec):
    """Valid values: required and work fields, one ONE_OF, some others."""
    one_of = getattr(spec, "ONE_OF", ())
    chosen = draw(st.sampled_from(one_of)) if one_of else None
    body = {}
    for name, item in fields_of(spec).items():
        if name in one_of:
            if name != chosen:
                continue
        elif (
            not item.metadata["required"]
            and name not in WORK_CAPS
            and not draw(st.booleans())
        ):
            continue
        body[name] = draw(valid_value(item))
    return body


@st.composite
def mutated_bodies(draw, spec):
    """A valid payload with exactly one thing wrong."""
    body = draw(valid_bodies(spec))
    table = fields_of(spec)
    one_of = getattr(spec, "ONE_OF", ())
    bounded = [
        name
        for name, item in table.items()
        if out_of_bounds(item) is not None
    ]
    required = [
        name
        for name, item in table.items()
        if item.metadata["required"] and name not in one_of
    ]
    mutations = ["wrong_type", "unknown_field", "not_an_object"]
    if bounded:
        mutations.append("out_of_bounds")
    if required or one_of:
        mutations.append("missing")
    mutation = draw(st.sampled_from(mutations))
    if mutation == "wrong_type":
        name = draw(st.sampled_from(sorted(table)))
        if name in one_of:
            # Replace whichever of the pair is present, keeping one.
            body.pop(next(key for key in one_of if key in body))
        body[name] = draw(wrong_value(table[name]))
    elif mutation == "out_of_bounds":
        name = draw(st.sampled_from(bounded))
        body[name] = draw(out_of_bounds(table[name]))
    elif mutation == "unknown_field":
        name = draw(TEXT.filter(lambda text: text not in table))
        body[name] = draw(JSON)
    elif mutation == "missing":
        if one_of and (not required or draw(st.booleans())):
            # Neither, or both, of the exactly-one-of pair.
            present = next(key for key in one_of if key in body)
            if draw(st.booleans()):
                del body[present]
            else:
                other = next(key for key in one_of if key != present)
                body[other] = draw(valid_value(table[other]))
        else:
            del body[draw(st.sampled_from(required))]
    else:
        return draw(
            st.one_of(
                st.lists(JSON, max_size=3),
                TEXT,
                st.integers(),
                st.floats(allow_nan=False),
                st.booleans(),
            )
        )
    return body


@pytest.fixture(scope="module")
def app(workspace):
    service = QueryService(workspace)
    service.warm()
    return ServiceApp(service, cache=ResultCache(capacity=256))


def assert_envelope(status, body):
    body = dict(body)
    assert isinstance(body.pop("request_id"), str)
    assert body == {
        "error": {
            "code": body["error"]["code"],
            "message": body["error"]["message"],
        },
        "status": status,
    }
    assert isinstance(body["error"]["code"], str)
    assert isinstance(body["error"]["message"], str)


def test_every_field_taking_route_declares_a_spec():
    assert sorted(SPECS) == sorted(
        path
        for path in ROUTES
        if path not in FIELDLESS and path != "/metrics"
    )


@pytest.mark.parametrize("path", sorted(SPECS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_valid_payloads_get_an_answer_or_an_envelope(app, path, data):
    body = data.draw(valid_bodies(SPECS[path]))
    status, response = app.dispatch(ROUTES[path].method, path, body)
    assert status != 500, response
    if status != 200:
        assert_envelope(status, response)


@pytest.mark.parametrize("path", sorted(SPECS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_mutation_is_a_400(app, path, data):
    body = data.draw(mutated_bodies(SPECS[path]))
    status, response = app.dispatch(ROUTES[path].method, path, body)
    assert status == 400, (body, response)
    assert_envelope(status, response)
    assert response["error"]["code"] in MUTATION_CODES


@pytest.mark.parametrize("path", FIELDLESS)
@settings(max_examples=20, deadline=None)
@given(body=st.dictionaries(TEXT, JSON, max_size=4))
def test_fieldless_gets_answer_any_object(app, path, body):
    status, response = app.dispatch("GET", path, body)
    assert status == 200, response
