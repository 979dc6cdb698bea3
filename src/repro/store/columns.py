"""The columnar layout of a stored dynamic run: ``columns.npy``.

A :class:`~repro.sim.metrics.DynamicRunResult` keeps its per-step traces
in one structured ``.npy`` array, one row per step, beside a
``result.json`` header that holds everything else.  The columns are the
five float traces (:data:`~repro.sim.metrics.TRACE_FIELDS`, ``<f8``) and
two ``int8`` code columns: the limiting factor, coded by
:data:`~repro.pmu.dvfs.LIMITING_FACTOR_CODES`, and the package C-state,
coded by its position in the header's name list.  The header's
``columns`` entry describes the file::

    {"layout": 1, "rows": <steps>, "sha256": <digest of the .npy bytes>,
     "package_cstates": [<name of code 0>, <name of code 1>, ...]}

The file is written and read with ``allow_pickle=False``; a file whose
bytes, dtype, row count or codes disagree with its header is rejected
with a :class:`~repro.common.errors.StoreError`, never decoded.
"""

from __future__ import annotations

import hashlib
import io
from typing import Any, Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.common.errors import StoreError
from repro.pmu.dvfs import LIMITING_FACTOR_CODES, LIMITING_FACTOR_ORDER
from repro.sim.metrics import TRACE_FIELDS, DynamicRunResult

#: Version of the column layout, stamped in the header's ``columns`` entry.
COLUMN_LAYOUT = 1

#: Every field of a dynamic run stored in the columns, not the header.
COLUMN_FIELDS: Tuple[str, ...] = TRACE_FIELDS + ("limiting_factors", "package_cstates")

COLUMN_DTYPE = np.dtype(
    [(name, "<f8") for name in TRACE_FIELDS]
    + [("limiting_factor", "i1"), ("package_cstate", "i1")]
)

_LIMITING_CODES = {
    factor.value: code for factor, code in LIMITING_FACTOR_CODES.items()
}
_LIMITING_NAMES = np.array(
    [factor.value for factor in LIMITING_FACTOR_ORDER], dtype=object
)


def _codes(values: Sequence[str], codes: Mapping[str, int], what: str) -> np.ndarray:
    try:
        return np.fromiter(
            map(codes.__getitem__, values), dtype=np.int8, count=len(values)
        )
    except KeyError as error:
        raise StoreError(
            f"cannot store {what} {error.args[0]!r} as a column code"
        ) from None


def _names(codes: np.ndarray, names: np.ndarray, what: str) -> list:
    if codes.size and (codes.min() < 0 or codes.max() >= len(names)):
        raise StoreError(f"{what} column holds codes outside 0..{len(names) - 1}")
    return names[codes].tolist()


def encode_columns(result: DynamicRunResult) -> Tuple[Dict[str, Any], bytes]:
    """The header's ``columns`` entry and the ``.npy`` bytes of *result*."""
    cstates = list(dict.fromkeys(result.package_cstates))
    table = np.empty(len(result.times_s), dtype=COLUMN_DTYPE)
    for name in TRACE_FIELDS:
        table[name] = getattr(result, name)
    table["limiting_factor"] = _codes(
        result.limiting_factors, _LIMITING_CODES, "limiting factor"
    )
    table["package_cstate"] = _codes(
        result.package_cstates, {name: i for i, name in enumerate(cstates)}, "C-state"
    )
    buffer = io.BytesIO()
    np.save(buffer, table, allow_pickle=False)
    data = buffer.getvalue()
    entry = {
        "layout": COLUMN_LAYOUT,
        "rows": len(table),
        "sha256": hashlib.sha256(data).hexdigest(),
        "package_cstates": cstates,
    }
    return entry, data


def decode_columns(entry: Any, data: bytes) -> Dict[str, Any]:
    """The :data:`COLUMN_FIELDS` of a run, from its header *entry* and bytes."""
    if not isinstance(entry, dict) or entry.get("layout") != COLUMN_LAYOUT:
        raise StoreError(f"unknown column layout in header entry {entry!r}")
    if hashlib.sha256(data).hexdigest() != entry.get("sha256"):
        raise StoreError("the columns do not match the sha256 in their header")
    try:
        table = np.load(io.BytesIO(data), allow_pickle=False)
    except (ValueError, OSError, EOFError) as error:
        raise StoreError(f"unreadable columns: {error}") from None
    if table.dtype != COLUMN_DTYPE or table.ndim != 1:
        raise StoreError(
            f"columns have dtype {table.dtype} and {table.ndim} dimension(s), "
            f"expected one dimension of {COLUMN_DTYPE}"
        )
    if len(table) != entry.get("rows"):
        raise StoreError(
            f"columns hold {len(table)} rows, the header says {entry.get('rows')!r}"
        )
    cstates = entry.get("package_cstates")
    if not isinstance(cstates, list) or not all(isinstance(s, str) for s in cstates):
        raise StoreError("the header's C-state names must be a list of strings")
    decoded: Dict[str, Any] = {name: table[name] for name in TRACE_FIELDS}
    decoded["limiting_factors"] = _names(
        table["limiting_factor"], _LIMITING_NAMES, "limiting factor"
    )
    decoded["package_cstates"] = _names(
        table["package_cstate"], np.array(cstates, dtype=object), "C-state"
    )
    return decoded
