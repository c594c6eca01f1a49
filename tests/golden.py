"""Golden-output digests for tier-1 result pins.

A pinned result is compared through the sha256 of its canonical JSON:
floats are written by ``repr`` (exact round-trip), dict items are sorted by
their encoded key, and dataclasses encode as their class name plus a field
dict. Any change to any number in a pinned result changes its digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any


def _canonical(value: Any) -> Any:
    if isinstance(value, float):
        return ["@f", repr(value)]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return ["@" + type(value).__name__, _canonical({
            item.name: getattr(value, item.name)
            for item in dataclasses.fields(value)
        })]
    if isinstance(value, dict):
        return ["@dict", sorted(
            [json.dumps(_canonical(key)), _canonical(item)]
            for key, item in value.items()
        )]
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"cannot pin a {type(value).__name__}")


def digest(result: Any) -> str:
    """sha256 of the canonical JSON of ``result``."""
    text = json.dumps(_canonical(result), separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
