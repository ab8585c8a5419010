"""Seed derivation and configuration hashing.

Runs are configured with the frozen dataclasses that validate their own
fields (``SyntheticSpec``, ``GnnConfig``, ``PgmConfig``).  This module gives
every component its own seed, derived from one master seed, and a stable
hash that identifies a configuration in a run's report.
"""

from __future__ import annotations

import hashlib
import json
import numbers


def json_default(obj):
    """A numpy integer, which ``check_int`` accepts, as its int; anything else as its str."""
    return int(obj) if isinstance(obj, numbers.Integral) else str(obj)


def stable_hash(obj) -> str:
    """sha256 of the canonical JSON encoding; stable across runs and platforms."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=json_default)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def derive_seed(master_seed: int, label: str) -> int:
    """Deterministic per-component child seed from one master seed."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")
