"""Result-cache keys for the serving layer.

Handler results are pure functions of ``(endpoint, request payload)`` for
a fixed workspace, so the app caches them in a
:class:`~repro.lru.ResultCache` keyed by the canonicalised request.
"""

from __future__ import annotations

import json
from typing import Any


def canonical_key(endpoint: str, payload: Any) -> str:
    """Canonical cache key for one request.

    Two payloads that differ only in dict ordering produce the same key;
    the endpoint name is prefixed so handlers never collide.
    """
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return f"{endpoint}:{body}"
