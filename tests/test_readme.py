"""README tables that must match the code: endpoints and request fields."""

import json
import re
from pathlib import Path

from repro.service import ROUTES, QueryService
from repro.service.requests import INT, NUMBER, fields_of

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8"
)


def _default(spec, item):
    one_of = getattr(spec, "ONE_OF", ())
    if item.name in one_of:
        return "exactly one of " + " or ".join(f"`{name}`" for name in one_of)
    if item.metadata["required"]:
        return "required"
    default = getattr(item.default, "value", item.default)
    return f"`{json.dumps(default)}`"


def _kind_and_bounds(item):
    kind, low, high = (
        item.metadata["kind"],
        item.metadata["low"],
        item.metadata["high"],
    )
    if isinstance(kind, type):
        return "enum", ", ".join(f"`{member.value}`" for member in kind)
    if kind == INT:
        return kind, "any" if low is None else f"{low}–{high}"
    if kind == NUMBER:
        return kind, f"{low:g}–{high:g}"
    return kind, ""


def render_request_fields():
    """The README's "Request fields" table, from the request specs."""
    lines = [
        "| Endpoint | Field | Kind | Default | Bounds |",
        "|---|---|---|---|---|",
    ]
    for path, route in ROUTES.items():
        handler = getattr(QueryService, route.handler, None)
        spec = getattr(handler, "spec", None)
        if spec is None:
            continue
        for name, item in fields_of(spec).items():
            kind, bounds = _kind_and_bounds(item)
            lines.append(
                f"| `{path}` | `{name}` | {kind} | {_default(spec, item)} "
                f"| {bounds} |"
            )
    return "\n".join(lines) + "\n"


def test_request_fields_table_matches_the_specs():
    assert render_request_fields() in README


def test_endpoint_table_methods_match_the_routes():
    rows = dict(
        re.findall(r"^\| `(/[^`]*)` \| (GET|POST) \|", README, re.MULTILINE)
    )
    assert rows == {path: route.method for path, route in ROUTES.items()}
