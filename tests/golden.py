"""Golden-output digests for tier-1 result pins.

A pinned result is compared through the sha256 of its canonical JSON:
floats are written by ``repr`` (exact round-trip), dict items are sorted by
their encoded key, and dataclasses encode as their class name plus a field
dict. Any change to any number in a pinned result changes its digest.

The pins live in one table keyed by ``CACHE_SCHEMA_VERSION``. A cache key
hashes a task's arguments and that version, not the simulator's code, so a
change that moves a pinned number under an unchanged version would let a
filled result cache serve the old numbers. :func:`assert_golden` therefore
fails such a change with the instruction to bump the version and pin the
new digest under it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict

from repro.experiments.runner import CACHE_SCHEMA_VERSION

#: ``{CACHE_SCHEMA_VERSION: {pin name: digest}}``.
GOLDEN_DIGESTS: Dict[int, Dict[str, str]] = {
    6: {
        "fig02": "70a9d44c7c025dceb8c1a4b8b8d5d58971fe43b14b14ce78c57241e2ff3f4ecf",
        "table08": "d1d455c0978767ce4de318d40690be7ba46e89aca5136bae63868ae1eb086301",
        "fig08": "d55ed064c34c7ee22bf71fa0e4fbb5cd1624e6081ff7c45ed4512292156acac5",
        "fig08rep": "b67ce972f40ced725696f1d1b6b9b8f347a53b2328db9e5ae0baa81840ea3ac2",
        "fig09": "b195cb818886287e1b8af160cf9515d3b34796a7b8b3a9f708ec063033e597c5",
        "fig10": "6262c2345bf5f3f2deaf58370dd2b27bab67b1dd6e1d87864f1c9d8d318ab009",
        "fig10rep": "93f1957d65ed4feed0cb5936efe9608c50145930873725af7da62c320aeeec6c",
        # At the smoke test's trace length neither hierarchy fills its L2,
        # so Fig 11 pins Fig 8's digest.
        "fig11": "d55ed064c34c7ee22bf71fa0e4fbb5cd1624e6081ff7c45ed4512292156acac5",
        "fig12": "9bbbd709f67f423a91d28408f62c403f18c0a16b7faaabd8b60d191868a0ddbf",
        "fig14": "5572002d942d5eaea8a0402ea04f0d5b8ea93646365422c7535b861c9a9cc2d8",
        "fig05": "9d149ac77bc82327a652d57153724289f3015f755097fb67ec5a2aa0caad2596",
        "table09": "6ec5c727875f931a3c9457e5aedf0c1daebaf92bc86022af273921b1dc7d0701",
        "fig13": "5c7d410544ac2f22f9043c23c45d9fb98ac1e258c9a4afaffecd52123a3ee8f6",
        "fig15": "8dcc6878ac9ecc1c4757f686390d0710f5b76977a129c15d81fb6e69463c1667",
        "fig07": "00d164c918382ae2be8bb8fb446b2e135d7032e7f6da278381c63676be6f36c4",
        "sec65": "28bfecc4fd6fd72023f04c94bfe7509a41f0e5444642f6314a4a4536a6b721ed",
        "joint_l1_l2": "a307c645ed45d6864b10515f0d4d0d262c57c807ab752ffb58e133868b70b96d",
        "joint_prefetch_replacement": "098065a62717bb55d80e616d4d5d5f2f15541405232a1cd00466673c6a85c9f5",
    },
}


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


def assert_golden(name: str, result: Any) -> None:
    """Assert that ``result`` reproduces the pin ``name`` of this version."""
    actual = digest(result)
    pins = GOLDEN_DIGESTS.get(CACHE_SCHEMA_VERSION, {})
    if name not in pins:
        raise AssertionError(
            f"no golden digest {name!r} is pinned under CACHE_SCHEMA_VERSION "
            f"{CACHE_SCHEMA_VERSION} in tests/golden.py; this run gives {actual}"
        )
    if actual != pins[name]:
        raise AssertionError(
            f"golden digest {name!r} changed under CACHE_SCHEMA_VERSION "
            f"{CACHE_SCHEMA_VERSION}: pinned {pins[name]}, got {actual}; bump "
            "CACHE_SCHEMA_VERSION in experiments/runner.py and pin the new "
            "digest under the new version"
        )
