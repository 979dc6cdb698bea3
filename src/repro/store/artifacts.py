"""The on-disk run store: one artifact directory per content-addressed run.

Layout (root defaults to ``~/.repro_store``, overridable via the
``REPRO_STORE_DIR`` environment variable or an explicit path)::

    <root>/
      runs/<run_id>/columns.npy      # dynamic runs only: the per-step traces
      runs/<run_id>/result.json      # encoded result payload (or its header)
      runs/<run_id>/manifest.json    # RunManifest; written last
      index.sqlite                   # cross-run index (see repro.store.index)

A dynamic run is stored in two files: ``columns.npy`` holds its traces as
one structured array (:mod:`repro.store.columns`), and ``result.json`` is
a header with its scalars, its derived ``summary`` and a ``columns`` entry
carrying the layout version, the row count and the sha256 of the column
bytes.  Every other value is one JSON payload in ``result.json``.
Dynamic-run payloads written before the columnar layout (schema 1 and 2,
traces inline) still load; nothing writes them any more.

Every file is written atomically (temp file in the target directory, then
``os.replace``): the columns first, then the result, and the manifest
*last*, so a run directory is complete exactly when it holds a valid
manifest.  Two processes writing the same run ID race harmlessly — both
write identical content (the ID is content-addressed) and the last rename
wins file-whole; readers never see a torn manifest.  Corrupted or
truncated manifests are detected on read and skipped with a
:class:`StoreCorruptionWarning` instead of poisoning sweeps; a result
whose header or columns fail validation raises :class:`StoreError`, which
:class:`~repro.store.cache.StoreCache` turns into a warned re-run.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
import warnings
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Type, Union

from repro.common.codec import (
    RESULT_SCHEMA_VERSION,
    SCHEMA_KEY,
    Codec,
    check_schema_version,
    encode,
)
from repro.common.errors import StoreError
from repro.sim.metrics import DynamicRunResult, RunResult
from repro.store.columns import COLUMN_FIELDS, decode_columns, encode_columns
from repro.store.manifest import RunManifest

#: Environment variable overriding the default store location.
STORE_DIR_ENV = "REPRO_STORE_DIR"

#: Store directory under the user's home when nothing else is configured.
DEFAULT_STORE_DIRNAME = ".repro_store"

RESULT_FILENAME = "result.json"
MANIFEST_FILENAME = "manifest.json"
COLUMNS_FILENAME = "columns.npy"

#: Header key of a columnar payload's ``columns`` entry.
COLUMNS_KEY = "columns"


class StoreCorruptionWarning(UserWarning):
    """A stored artifact failed validation and was skipped."""


def resolve_store_root(root: Union[str, Path, None] = None) -> Path:
    """The store root: explicit path > ``REPRO_STORE_DIR`` > ``~/.repro_store``."""
    if root is not None:
        return Path(root).expanduser()
    env = os.environ.get(STORE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / DEFAULT_STORE_DIRNAME


# -- value codec -----------------------------------------------------------------------


class StorePayload(Dict[str, Any]):
    """One encoded value: the ``result.json`` object, plus the
    ``columns.npy`` bytes of a columnar value (``None`` otherwise)."""

    def __init__(
        self, header: Dict[str, Any], columns: Optional[bytes] = None
    ) -> None:
        super().__init__(header)
        self.columns = columns


@lru_cache(maxsize=None)
def _store_codecs() -> Dict[str, Type[Codec]]:
    """Store codec name -> the result type it persists.

    Every type here is a :class:`~repro.common.codec.Codec`, so encoding is
    its ``to_dict`` and decoding its ``from_dict``.  Registering a new
    result type is one entry in this table.
    """
    from repro.analysis.optimize import OptimizationResult
    from repro.variation.population import (
        PopulationCellResult,
        PopulationResult,
        SpecBinningResult,
    )
    from repro.variation.streaming import (
        StreamingBinningResult,
        StreamingCellResult,
        StreamingCellShard,
    )

    return {
        "run_result": RunResult,
        "optimization": OptimizationResult,
        "population_cell": PopulationCellResult,
        "spec_binning": SpecBinningResult,
        "streaming_shard": StreamingCellShard,
        "streaming_cell": StreamingCellResult,
        "streaming_binning": StreamingBinningResult,
        "population": PopulationResult,
    }


def encode_value(value: Any) -> StorePayload:
    """Encode a study-task result into a store payload.

    A dynamic run becomes a header plus its column bytes
    (:mod:`repro.store.columns`).  Other registered result types
    (:func:`_store_codecs`) serialise through the shared codec; anything
    else must already be a faithful JSON value (tuples are rejected: they
    would silently come back as lists).
    """
    columns = None
    for codec, result_type in _store_codecs().items():
        if isinstance(value, result_type):
            header: Dict[str, Any] = {"codec": codec}
            if isinstance(value, DynamicRunResult):
                header[COLUMNS_KEY], columns = encode_columns(value)
                header["value"] = encode(value, omit=COLUMN_FIELDS)
            else:
                header["value"] = value.to_dict()
            break
    else:
        try:
            faithful = (
                json.loads(json.dumps(value, sort_keys=True, allow_nan=False))
                == value
            )
        except (TypeError, ValueError):
            faithful = False
        if not faithful:
            raise StoreError(
                f"cannot persist {type(value).__name__!s}: not an engine "
                "result and not a faithful JSON value"
            )
        header = {"codec": "json", "value": value}
    header[SCHEMA_KEY] = RESULT_SCHEMA_VERSION
    return StorePayload(header, columns)


def decode_value(payload: Any) -> Any:
    """Decode a store payload back into the value :func:`encode_value` saw.

    A columnar payload must be a :class:`StorePayload` carrying its column
    bytes.  Any payload that does not decode (a newer schema, an unknown
    codec, columns that fail their header, or a value of the wrong shape)
    raises :class:`StoreError`.
    """
    if not isinstance(payload, dict):
        raise StoreError("a store payload must be a JSON object")
    check_schema_version(payload, "stored result")
    codec = payload.get("codec")
    if codec == "json":
        return payload.get("value")
    result_type = _store_codecs().get(codec)
    if result_type is None:
        raise StoreError(f"unknown store codec {codec!r}")
    value = payload.get("value")
    if COLUMNS_KEY in payload:
        columns = getattr(payload, "columns", None)
        if columns is None:
            raise StoreError("a columnar payload needs its column bytes")
        if not isinstance(value, dict) or value.keys() & set(COLUMN_FIELDS):
            raise StoreError("a columnar header must be an object without traces")
        value = {**value, **decode_columns(payload[COLUMNS_KEY], columns)}
    return result_type.from_dict(value)


# -- the store -------------------------------------------------------------------------


def _json_bytes(document: Dict[str, Any]) -> bytes:
    return json.dumps(document, sort_keys=True, allow_nan=False).encode()


class RunStore:
    """Persistent, content-addressed storage of completed runs.

    Parameters
    ----------
    root:
        Store root; ``None`` resolves through :func:`resolve_store_root`
        (``REPRO_STORE_DIR`` or ``~/.repro_store``).
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self._root = resolve_store_root(root)

    @property
    def root(self) -> Path:
        """The store root directory."""
        return self._root

    @property
    def runs_dir(self) -> Path:
        """The directory holding one subdirectory per run."""
        return self._root / "runs"

    def run_dir(self, run_id: str) -> Path:
        """The artifact directory of one run."""
        return self.runs_dir / run_id

    # -- writing -----------------------------------------------------------------------

    def _write_atomic(self, path: Path, data: bytes) -> None:
        """Write *data* to *path* via a same-directory temp file + rename."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / (
            f".{path.name}.{os.getpid()}."
            f"{uuid.uuid4().hex}.tmp"  # repro-lint: disable=RPR002 -- temp-file name uniqueness only; the name never reaches a result, manifest, or fingerprint
        )
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                tmp.unlink()

    def put(self, manifest: RunManifest, value: Any) -> RunManifest:
        """Persist one run: encoded *value* (columns, then result) first,
        *manifest* last.

        Returns the manifest as written.  Concurrent writers of the same
        run ID each complete their own atomic renames; because the ID is
        content-addressed both wrote equivalent artifacts, so whichever
        rename lands last leaves a consistent directory.
        """
        run_dir = self.run_dir(manifest.run_id)
        payload = encode_value(value)
        if payload.columns is not None:
            self._write_atomic(run_dir / COLUMNS_FILENAME, payload.columns)
        self._write_atomic(run_dir / RESULT_FILENAME, _json_bytes(payload))
        self._write_atomic(run_dir / MANIFEST_FILENAME, _json_bytes(manifest.to_dict()))
        return manifest

    # -- reading -----------------------------------------------------------------------

    def __contains__(self, run_id: str) -> bool:
        """True when *run_id* has a complete (manifest + result) directory."""
        run_dir = self.run_dir(run_id)
        return (run_dir / MANIFEST_FILENAME).exists() and (
            run_dir / RESULT_FILENAME
        ).exists()

    def load_manifest(self, run_id: str) -> RunManifest:
        """The manifest of one run (raises :class:`StoreError` if invalid)."""
        path = self.run_dir(run_id) / MANIFEST_FILENAME
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            raise StoreError(f"run {run_id!r} is not in the store") from None
        except (json.JSONDecodeError, OSError) as error:
            raise StoreError(
                f"run {run_id!r} has a corrupted manifest: {error}"
            ) from None
        manifest = RunManifest.from_dict(data)
        if manifest.run_id != run_id:
            raise StoreError(
                f"manifest of run {run_id!r} claims run_id "
                f"{manifest.run_id!r} (torn or misplaced write)"
            )
        return manifest

    def load_value(self, run_id: str) -> Any:
        """The decoded result value of one run."""
        path = self.run_dir(run_id) / RESULT_FILENAME
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            raise StoreError(f"run {run_id!r} is not in the store") from None
        except (json.JSONDecodeError, OSError) as error:
            raise StoreError(
                f"run {run_id!r} has a corrupted result payload: {error}"
            ) from None
        if isinstance(payload, dict) and COLUMNS_KEY in payload:
            try:
                columns = (path.parent / COLUMNS_FILENAME).read_bytes()
            except OSError as error:
                raise StoreError(
                    f"run {run_id!r} has unreadable columns: {error}"
                ) from None
            payload = StorePayload(payload, columns)
        return decode_value(payload)

    def run_ids(self) -> List[str]:
        """IDs of every run directory currently on disk, sorted."""
        if not self.runs_dir.is_dir():
            return []
        return sorted(
            entry.name for entry in self.runs_dir.iterdir() if entry.is_dir()
        )

    def iter_manifests(self) -> Iterator[RunManifest]:
        """Yield the manifest of every complete run, skipping corrupt ones.

        In-flight directories (no manifest yet) are silently ignored;
        corrupted or truncated manifests raise a
        :class:`StoreCorruptionWarning` and are skipped, so one damaged
        artifact never poisons an index rebuild or a sweep.
        """
        for run_id in self.run_ids():
            if not (self.run_dir(run_id) / MANIFEST_FILENAME).exists():
                continue
            try:
                yield self.load_manifest(run_id)
            except StoreError as error:
                warnings.warn(
                    f"skipping run {run_id}: {error}",
                    StoreCorruptionWarning,
                    stacklevel=2,
                )

    def __len__(self) -> int:
        return len(self.run_ids())

    # -- maintenance -------------------------------------------------------------------

    def delete(self, run_id: str) -> None:
        """Remove one run's artifact directory (missing runs are a no-op)."""
        run_dir = self.run_dir(run_id)
        if run_dir.is_dir():
            shutil.rmtree(run_dir)

    def gc(
        self,
        *,
        keep_engine_version: Optional[str] = None,
        tier: Optional[str] = None,
        delete_all: bool = False,
        apply: bool = False,
    ) -> List[RunManifest]:
        """Collect runs and (optionally) delete them.

        Returns the manifests of the runs selected for collection: every
        run when *delete_all* is set, otherwise runs whose engine version
        differs from *keep_engine_version* and/or whose tier matches
        *tier*.  Nothing is removed unless *apply* is true — the default
        is a dry run, mirroring the ``--update-baseline``-style workflow
        of the benchmark gate (inspect first, then apply explicitly).
        """
        selected: List[RunManifest] = []
        for manifest in self.iter_manifests():
            if delete_all:
                selected.append(manifest)
                continue
            stale_engine = (
                keep_engine_version is not None
                and manifest.engine_version != keep_engine_version
            )
            tier_match = tier is not None and manifest.tier == tier
            if stale_engine or tier_match:
                selected.append(manifest)
        if apply:
            for manifest in selected:
                self.delete(manifest.run_id)
        return selected
