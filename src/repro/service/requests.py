"""One request spec per endpoint, and the one check behind them all.

Each field-taking endpoint declares its fields once, as a frozen
dataclass whose field metadata carries kind, default and bounds
(:func:`field`). :func:`parse` checks a decoded payload against a spec
and returns the typed request. The service's handlers, the CLI's
``similar`` and ``recommend``, the README's request table and the fuzz
suite all read these specs.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re
from typing import Any, Callable, ClassVar, TypeVar

from ..datamodel import REGIONS, ReproError
from ..pairing import NullModel
from ..retrieval import DEFAULT_TOPK, MAX_TOPK

#: Field kinds. An :class:`enum.Enum` subclass is a kind too: the
#: field takes one of its values.
STRING = "string"  # a non-empty string, stripped
CODE = "code"  # the same, upper-cased (region codes)
STRINGS = "strings"  # a non-empty list of such strings
LIST = "list"  # any JSON list (SQL parameters)
BOOL = "bool"
INT = "int"  # bounded by low..high when given
NUMBER = "number"  # a bounded float; numeric strings parse (query strings)

Spec = TypeVar("Spec")


class RequestError(ReproError):
    """A request the service refuses; carries an HTTP status and a code.

    Attributes:
        status: HTTP status to respond with (4xx).
        code: stable machine-readable error code for the envelope.
    """

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


def _invalid(message: str) -> RequestError:
    return RequestError(400, "invalid_field", message)


def payload_dict(payload: Any) -> dict[str, Any]:
    """The payload as an object; ``None`` (no body) reads as ``{}``."""
    if payload is None:
        return {}
    if not isinstance(payload, dict):
        raise RequestError(
            400, "invalid_payload", "request body must be a JSON object"
        )
    return payload


def field(
    kind: Any,
    default: Any = None,
    low: float | None = None,
    high: float | None = None,
    *,
    required: bool = False,
) -> Any:
    """Declare one request field: its kind, default and bounds."""
    return dataclasses.field(
        default=default,
        metadata=dict(kind=kind, low=low, high=high, required=required),
    )


@functools.cache
def fields_of(spec: type) -> dict[str, dataclasses.Field]:
    """Name -> field of ``spec``, in declaration order."""
    return {item.name: item for item in dataclasses.fields(spec)}


def _check(item: dataclasses.Field, value: Any) -> Any:
    """The checked value of one present field; raises ``invalid_field``."""
    name, kind = item.name, item.metadata["kind"]
    if kind in (STRING, CODE):
        if not isinstance(value, str) or not value.strip():
            raise _invalid(f"{name!r} must be a non-empty string")
        return value.strip().upper() if kind == CODE else value.strip()
    if kind == STRINGS:
        if (
            not isinstance(value, list)
            or not value
            or not all(isinstance(v, str) and v.strip() for v in value)
        ):
            raise _invalid(
                f"{name!r} must be a non-empty list of non-empty strings"
            )
        return [v.strip() for v in value]
    if kind == LIST:
        if not isinstance(value, list):
            raise _invalid(
                f"field {name!r} must be a list, got {type(value).__name__}"
            )
        return value
    if kind == BOOL:
        if not isinstance(value, bool):
            raise _invalid(f"{name!r} must be a boolean")
        return value
    low, high = item.metadata["low"], item.metadata["high"]
    if kind == INT:
        if isinstance(value, bool) or not isinstance(value, int):
            raise _invalid(f"{name!r} must be an integer")
        if low is not None and not low <= value <= high:
            raise _invalid(
                f"{name!r} must be between {low} and {high}, got {value}"
            )
        return value
    if kind == NUMBER:
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise _invalid(f"{name!r} must be a number")
        try:
            value = float(value)
        except ValueError:
            raise _invalid(f"{name!r} must be a number") from None
        except OverflowError:  # an int past the float range
            value = math.inf if value > 0 else -math.inf
        if not low <= value <= high:
            raise _invalid(
                f"{name!r} must be between {low:g} and {high:g}, "
                f"got {value:g}"
            )
        return value
    try:
        return kind(value)
    except ValueError:
        noun = re.sub(r"(?<!^)(?=[A-Z])", " ", kind.__name__).lower()
        known = ", ".join(member.value for member in kind)
        raise _invalid(
            f"unknown {noun} {value!r} (known: {known})"
        ) from None


def parse(spec: type[Spec], payload: Any) -> Spec:
    """``payload`` checked against ``spec``, as a typed request.

    Checks, in order, stopping at the first failure: the payload is an
    object (``None`` reads as ``{}``); it names no unknown field; exactly
    one of the spec's ``ONE_OF`` fields is present, by key; then each
    field in declaration order. An absent field takes its default
    unchecked, and an absent required field is checked as ``null``.
    ``null`` is accepted only where the default is ``None`` and the field
    is not required.

    Raises:
        RequestError: ``400`` with code ``invalid_payload``,
            ``unknown_field`` or ``invalid_field``.
    """
    body = payload_dict(payload)
    table = fields_of(spec)
    unknown = sorted(body.keys() - table.keys())
    if unknown:
        raise RequestError(
            400,
            "unknown_field",
            f"unknown field(s): {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(table))})",
        )
    one_of = getattr(spec, "ONE_OF", ())
    if one_of and sum(name in body for name in one_of) != 1:
        raise _invalid(
            "provide exactly one of " + " or ".join(map(repr, one_of))
        )
    values = {}
    for name, item in table.items():
        required = item.metadata["required"]
        if name not in body and (not required or name in one_of):
            continue
        value = body.get(name)
        if value is None and item.default is None and not required:
            continue
        values[name] = _check(item, value)
    return spec(**values)


def parses(spec: type) -> Callable[[Callable], Callable]:
    """Decorate a handler to take ``spec`` parsed from its raw payload.

    The result still takes the raw payload, and records ``.spec``.
    """

    def decorate(handler: Callable) -> Callable:
        @functools.wraps(handler)
        def handle(self: Any, payload: Any) -> Any:
            return handler(self, parse(spec, payload))

        handle.spec = spec
        return handle

    return decorate


@dataclasses.dataclass(frozen=True)
class AliasRequest:
    """``/alias``: one raw ingredient phrase."""

    phrase: str = field(STRING, required=True)
    fuzzy: bool = field(BOOL, False)


@dataclasses.dataclass(frozen=True)
class ScoreRequest:
    """``/score``: an ad-hoc ingredient list."""

    fuzzy: bool = field(BOOL, False)
    ingredients: list[str] = field(STRINGS, required=True)


@dataclasses.dataclass(frozen=True)
class ClassifyRequest:
    """``/classify``: an ingredient list and how many regions to rank."""

    fuzzy: bool = field(BOOL, False)
    top: int = field(INT, 5, 1, len(REGIONS))
    ingredients: list[str] = field(STRINGS, required=True)


@dataclasses.dataclass(frozen=True)
class PairingsRequest:
    """``/pairings``: one ingredient and how many partners to return."""

    fuzzy: bool = field(BOOL, False)
    limit: int = field(INT, DEFAULT_TOPK, 1, MAX_TOPK)
    ingredient: str = field(STRING, required=True)


@dataclasses.dataclass(frozen=True)
class SimilarRequest:
    """``/similar``: neighbours of one ingredient, or of one cuisine."""

    ONE_OF: ClassVar[tuple[str, ...]] = ("ingredient", "cuisine")

    k: int = field(INT, DEFAULT_TOPK, 1, MAX_TOPK)
    fuzzy: bool = field(BOOL, False)
    ingredient: str | None = field(STRING, required=True)
    cuisine: str | None = field(CODE, required=True)


@dataclasses.dataclass(frozen=True)
class CompleteRequest:
    """``/complete``: a partial ingredient list."""

    k: int = field(INT, DEFAULT_TOPK, 1, MAX_TOPK)
    fuzzy: bool = field(BOOL, False)
    ingredients: list[str] = field(STRINGS, required=True)


@dataclasses.dataclass(frozen=True)
class RecommendRequest:
    """``/recommend``: proposals for one region; ``size=None`` samples it."""

    region: str = field(CODE, required=True)
    count: int = field(INT, 3, 1, 10)
    size: int | None = field(INT, None, 2, 20)
    seed: int = field(INT, 0, 0, 2**31 - 1)


@dataclasses.dataclass(frozen=True)
class SqlRequest:
    """``/sql``: one read-only statement, as ``sql`` or ``query``."""

    ONE_OF: ClassVar[tuple[str, ...]] = ("sql", "query")

    sql: str | None = field(STRING, required=True)
    query: str | None = field(STRING, required=True)
    params: list[Any] | tuple[()] = field(LIST, ())
    reference: bool = field(BOOL, False)
    max_rows: int = field(INT, 200, 1, 1000)


@dataclasses.dataclass(frozen=True)
class MonteCarloRequest:
    """``/montecarlo``: one (region, null model) Z-score estimate.

    The sample-count bounds are generous enough for real estimates and
    tight enough that one request cannot monopolise the server.
    """

    region: str = field(CODE, required=True)
    model: NullModel = field(NullModel, NullModel.RANDOM)
    n_samples: int = field(INT, 10_000, 100, 50_000)
    seed: int | None = field(INT)


@dataclasses.dataclass(frozen=True)
class ProfileRequest:
    """``/debug/profile``: capture length in seconds.

    Long enough to catch a slow endpoint in the act, short enough that
    the request thread (which blocks for the duration) frees up promptly.
    """

    seconds: float = field(NUMBER, 2.0, 0.01, 30.0)
