"""Persistent content-addressed run store, cross-run index, and CLI.

The store turns one-shot study sweeps into a serveable system: every
executed cell lands on disk under a content-addressed run ID
(:mod:`repro.store.hashing`), described by an atomic manifest
(:mod:`repro.store.manifest`, :mod:`repro.store.artifacts`); a
:class:`StoreCache` plugs the store into ``Study(cache=...)`` so repeated
sweeps execute zero simulator tasks (:mod:`repro.store.cache`); a SQLite
index answers cross-run queries (:mod:`repro.store.index`); and
``python -m repro`` drives it all from the command line
(:mod:`repro.store.cli`).
"""

from repro.store.artifacts import (
    RunStore,
    StoreCorruptionWarning,
    StorePayload,
    decode_value,
    encode_value,
    resolve_store_root,
)
from repro.store.cache import StoreCache
from repro.store.hashing import (
    canonical_json,
    canonical_payload,
    digest,
    run_id_for_task,
    task_fingerprint,
)
from repro.store.index import RunIndex
from repro.store.manifest import (
    DEFAULT_TIER,
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
)

__all__ = [
    "RunStore",
    "StoreCache",
    "RunIndex",
    "RunManifest",
    "StoreCorruptionWarning",
    "StorePayload",
    "DEFAULT_TIER",
    "MANIFEST_SCHEMA_VERSION",
    "canonical_json",
    "canonical_payload",
    "digest",
    "run_id_for_task",
    "task_fingerprint",
    "encode_value",
    "decode_value",
    "resolve_store_root",
]
