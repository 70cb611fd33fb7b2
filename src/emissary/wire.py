"""Versioned wire contract shared by the HTTP surface and the results cache.

Every payload that crosses a process boundary — a ``SimRequest`` posted
to the serving layer (:mod:`emissary.serve`), a ``SimResult`` /
``HierarchyResult`` coming back, and the config/result dicts stored in
``.results_cache/`` — is the ``to_dict()`` encoding of a typed
dataclass.  This module pins that encoding to an explicit schema
version and gives ``from_dict`` implementations one strict decoding
discipline:

* ``schema_version`` is emitted by every top-level ``to_dict()``
  (:data:`WIRE_SCHEMA_VERSION`).  The results cache *strips* it before
  hashing (:func:`emissary.results_cache.config_key`), so every cache
  key minted before versioning is byte-identical today.
* ``from_dict`` rejects unknown keys (:func:`check_known_keys`) — a
  typo'd or injected field fails loudly instead of being silently
  dropped, which matters once payloads arrive from the network.
* Version-0 dicts (minted before ``schema_version`` existed, e.g. old
  cache entries or pinned test fixtures) are still accepted:
  :func:`check_wire_version` treats a missing field as version 0, whose
  layout is version 1 minus the version field.  Payloads declaring a
  *newer* version than this process understands are refused rather than
  half-parsed.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable, Mapping
from typing import Any

#: Version of the ``to_dict`` wire payloads (``SimRequest``,
#: ``SimResult``, ``HierarchyResult``).  Version 0 is the retroactive
#: name for the pre-versioned layout: identical fields, no
#: ``schema_version`` key.
WIRE_SCHEMA_VERSION = 1

#: The field name carrying the version.  It is versioning metadata, not
#: content: the results cache strips it before hashing so legacy cache
#: keys stay stable (see :func:`emissary.results_cache.strip_advisory`).
WIRE_SCHEMA_KEY = "schema_version"


def check_wire_version(d: Mapping[str, Any], kind: str,
                       max_version: int = WIRE_SCHEMA_VERSION) -> int:
    """Validate and return ``d``'s declared schema version.

    Missing means version 0 (the pre-versioned layout, accepted as the
    migration path); anything newer than ``max_version`` (the top-level
    :data:`WIRE_SCHEMA_VERSION` by default — payload families with their
    own version stream, e.g. :mod:`emissary.telemetry`, pass their own
    ceiling) is refused — a half-understood payload must not be silently
    decoded.
    """
    version = d.get(WIRE_SCHEMA_KEY, 0)
    if isinstance(version, bool) or not isinstance(version, int):
        raise ValueError(f"{kind}: {WIRE_SCHEMA_KEY} must be an int, "
                         f"got {type(version).__name__}")
    if version < 0:
        raise ValueError(f"{kind}: {WIRE_SCHEMA_KEY} must be >= 0, got {version}")
    if version > max_version:
        raise ValueError(
            f"{kind}: {WIRE_SCHEMA_KEY} {version} is newer than this process "
            f"supports ({max_version}); upgrade before decoding")
    return version


def check_known_keys(d: Mapping[str, Any], allowed: Iterable[str],
                     kind: str) -> None:
    """Reject keys outside ``allowed`` (``_``-prefixed advisory keys are
    always allowed — they carry location hints, never content)."""
    unknown = sorted(k for k in d
                     if k not in allowed and not k.startswith("_"))
    if unknown:
        raise ValueError(f"{kind}: unknown wire keys {unknown}; "
                         f"allowed: {sorted(allowed)}")


def check_int(value: Any, what: str) -> int:
    """Return ``value`` as a Python ``int`` or raise ``TypeError``.

    Python and NumPy integers pass; ``bool``, floats (even integral
    ones), strings and everything else are refused rather than cast, so
    a wire ``"n": 5.7`` can never silently decode as ``5``.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{what} must be an int, got "
                        f"{type(value).__name__} {value!r}")
    return int(value)


def migrate_wire_dict(d: Mapping[str, Any], kind: str) -> dict[str, Any]:
    """Normalize a validated v0/v1 payload to the current version.

    Version 0 differs from version 1 only by the absence of the version
    field, so migration is stamping it in; future versions slot their
    field rewrites here.  Returns a copy — the caller's mapping (which
    may be a cached entry shared elsewhere) is never mutated.
    """
    check_wire_version(d, kind)
    out = dict(d)
    out[WIRE_SCHEMA_KEY] = WIRE_SCHEMA_VERSION
    return out
