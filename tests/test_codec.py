"""Tests for the shared dataclass codec behind every stored result.

The golden digests pin the exact bytes the run store writes for one seeded
value of every store codec, and the exact ``to_json`` documents of the
top-level study results.  They were recorded before the hand-written
per-class serialisers were replaced by :mod:`repro.common.codec`, so they
prove the payload format did not move.  The one exception is the dynamic
run, whose store payload became a header plus ``columns.npy``
(:mod:`repro.store.columns`); its inline payloads of schema 1 and 2 are
committed under ``payloads/`` and must keep loading.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict

import numpy as np
import pytest

from repro.analysis.optimize import Constraint, Objective, OptimizationSpec
from repro.analysis.study import Study
from repro.common.codec import RESULT_SCHEMA_VERSION, PayloadError
from repro.common.errors import ConfigurationError, StoreError
from repro.core.spec import SystemSpec, get_spec
from repro.fleet.arrivals import DutyCycleArrivals, PoissonArrivals
from repro.fleet.profiles import FleetProfile
from repro.pdn.transients import paper_transient_scenarios
from repro.pmu.dvfs import CpuDemand
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import RunResult
from repro.store import (
    RunStore,
    StoreCorruptionWarning,
    StorePayload,
    decode_value,
    encode_value,
)
from repro.store.cli import main
from repro.variation.distributions import skylake_process_variation
from repro.variation.population import PopulationResult
from repro.variation.streaming import StreamingCellShard, TraceHistogram
from repro.workloads.dynamics import build_scenario
from repro.workloads.energy import energy_star_scenario
from repro.workloads.graphics import three_dmark_suite
from repro.workloads.spec import spec_benchmark

PAYLOAD_DIR = Path(__file__).parent / "payloads"

SEED = 3


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _store_text(payload: Any) -> str:
    """The exact ``result.json`` text the run store writes for *payload*."""
    return json.dumps(payload, sort_keys=True, allow_nan=False)


def _dynamic_scenario():
    return build_scenario("sustained", duration_s=4.0, time_step_s=1.0)


def _population_study(method: str, cache: dict, **kwargs: Any):
    return Study.over_population(
        ("darkgates",),
        (_dynamic_scenario(),),
        skylake_process_variation(),
        count=16,
        tdp_levels_w=(65.0,),
        seed=SEED,
        method=method,
        cache=cache,
        **kwargs,
    )


def _cached_values(cache: dict, kind: type) -> list:
    return [value for value in cache.values() if isinstance(value, kind)]


def _fleet_profile() -> FleetProfile:
    arrivals = DutyCycleArrivals(
        duration_s=12.0, period_s=6.0, on_fraction=0.5, load=3.0
    ).overlay(PoissonArrivals(duration_s=12.0, rate_hz=1.0))
    return FleetProfile(name="tiny", arrivals=arrivals, slot_s=3.0)


def _min_tdp_query() -> OptimizationSpec:
    return OptimizationSpec(
        name="min-tdp",
        method="bisect",
        objectives=(Objective("tdp_w", "min"),),
        constraints=(Constraint("sustained_frequency_hz", ">=", 3.0e9),),
        variables={"tdp_w": tuple(float(t) for t in range(10, 92, 3))},
    )


@lru_cache(maxsize=None)
def _samples() -> Dict[str, Any]:
    """One seeded value per store codec, plus the top-level results."""
    engine = SimulationEngine(get_spec("darkgates", tdp_w=35.0).build())
    fast_result = _population_study("fast", {}).run()
    streaming: Dict[Any, Any] = {}
    streaming_result = _population_study("streaming", streaming, shard_size=8).run()
    optimization = Study.optimize(
        ("darkgates",), _min_tdp_query(), demand=CpuDemand(active_cores=4)
    ).run()
    study = Study(
        ("darkgates", "baseline"),
        {
            "spec": [spec_benchmark("416.gamess")],
            "dynamics": [_dynamic_scenario()],
        },
    ).run()
    fleet = Study.over_fleet(
        ("darkgates",), (_fleet_profile(),), ensemble=2, tdp_levels_w=(35.0,),
        seed=SEED,
    ).run()
    return {
        "run_result/cpu": engine.run(spec_benchmark("416.gamess")),
        "run_result/graphics": engine.run(three_dmark_suite()[0]),
        "run_result/energy": engine.run(energy_star_scenario()),
        "run_result/transient": engine.run(paper_transient_scenarios()[0]),
        "run_result/dynamic": engine.run(_dynamic_scenario()),
        "population_cell": fast_result.cells[0],
        "spec_binning": fast_result.binning[0],
        "streaming_shard": _cached_values(streaming, StreamingCellShard)[1],
        "streaming_cell": streaming_result.cells[0],
        "streaming_binning": streaming_result.binning[0],
        "population": fast_result,
        "optimization": optimization,
        "json/StudyResult": study,
        "json/PopulationResult": streaming_result,
        "json/FleetStudyResult": fleet,
        "json/OptimizationResult": optimization,
    }


#: sha256 of the run store's ``result.json`` text, one seeded value per codec.
STORE_DIGESTS = {
    "run_result/cpu": (
        "d3b037e340261b0c12b28891a90c480f0cb2ea02e3fcf6f409d665096fd12e69"
    ),
    "run_result/graphics": (
        "4d9a17c92f20097efa964e9fcb329ef5cd013a47fbb9ceb012d77af8a4d13e70"
    ),
    "run_result/energy": (
        "9995436e542b026e6c56e6f54760cb7fbc4208b998462ecee44260ad4e88488c"
    ),
    "run_result/transient": (
        "d68bda26a2e3f891221af1130b0418e02121d0b932f7c0a77f59002b6a37c5a5"
    ),
    "run_result/dynamic": (
        "6335408b06818003c313beb352a7d47577e40944b366a272d7847366ec1e81d5"
    ),
    "population_cell": (
        "e7181478374c7e7f24bbd4693d3540fb46bf417792e8f903c4493eea8a8503f2"
    ),
    "spec_binning": (
        "956dcfc7e7621162a61dc4cfae62f01c1876f09aea9510657229a710d4aab168"
    ),
    "streaming_shard": (
        "1fe7566fa998b6f21e895e1d4eb1e4b813ee6c4245c9411485690be26fb70f89"
    ),
    "streaming_cell": (
        "78420a64de83c3d618849763962fe7611cb95e2ef2d2867638ae389e3f50cef0"
    ),
    "streaming_binning": (
        "dcdf26f9fb949017bdc346dcedc3fe30ead12b5a42a3749f792c96a7d37f0a48"
    ),
    "population": (
        "c4afcfd650946e04c653cefa283d46b640e4798cdd3dcd62127ec1afad96bc8f"
    ),
    "optimization": (
        "d339f5a692f68cda856248bd90facbc76710e7ea6432eb67711dce39ab7cc311"
    ),
}

#: sha256 of the run store's ``columns.npy`` bytes, for the columnar codecs.
COLUMN_DIGESTS = {
    "run_result/dynamic": (
        "857c787fc91869b0c5784189e56cbc624895531d53cbcbca0753132e37993065"
    ),
}

#: sha256 of the inline schema-2 dynamic payload (the store's ``result.json``
#: before the columnar layout), recorded when the file was committed.
V2_PAYLOAD_DIGEST = "a9aaef78c23bea070c5c9e6f127594263d4dcb5d09d95403c00fb3b0944d8e43"

#: sha256 of ``to_json()`` of each top-level study result.
JSON_DIGESTS = {
    "json/StudyResult": (
        "522fa8995be15fb4e46ae668f3c9aed18bb136c8bb666dff52d1e643878c359e"
    ),
    "json/PopulationResult": (
        "e170e8b89e6b4eddfa6ff966b5ea8d302462e91fbfad13539f6ee97c2afd719f"
    ),
    "json/FleetStudyResult": (
        "60079582173cdd8908fb2f4e0b9881c9007eae6fd5a0e99f853dafa6e5caf525"
    ),
    "json/OptimizationResult": (
        "15103013b3e0b4f28b94ff766ec93ce6d84854bc1a60aa268df16341d03ce72d"
    ),
}


@pytest.mark.parametrize("name", sorted(STORE_DIGESTS))
def test_store_payload_bytes_match_golden_digest(name):
    payload = encode_value(_samples()[name])
    text = _store_text(payload)
    assert _sha256(text) == STORE_DIGESTS[name]
    if name in COLUMN_DIGESTS:
        assert hashlib.sha256(payload.columns).hexdigest() == COLUMN_DIGESTS[name]
    else:
        assert payload.columns is None
    decoded = decode_value(StorePayload(json.loads(text), payload.columns))
    assert _store_text(encode_value(decoded)) == text


@pytest.mark.parametrize("name", sorted(JSON_DIGESTS))
def test_top_level_json_matches_golden_digest(name):
    value = _samples()[name]
    text = value.to_json()
    assert _sha256(text) == JSON_DIGESTS[name]
    assert type(value).from_json(text).to_json() == text


# -- older schema versions -------------------------------------------------------------


def test_schema_v1_dynamic_payload_still_loads():
    payload = json.loads((PAYLOAD_DIR / "dynamic_run_result_v1.json").read_text())
    assert payload["schema_version"] == 1 and "summary" not in payload
    result = RunResult.from_dict(payload)
    assert result == _samples()["run_result/dynamic"]
    upgraded = result.to_dict()
    assert upgraded["schema_version"] == RESULT_SCHEMA_VERSION
    assert upgraded["summary"] == result.summary()


def test_schema_v2_inline_store_is_served_warm(tmp_path, monkeypatch, capsys, recwarn):
    """A store filled before the columnar layout keeps serving its runs."""
    text = (PAYLOAD_DIR / "dynamic_run_result_v2.json").read_text()
    assert _sha256(text) == V2_PAYLOAD_DIGEST
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
    run = [
        "run", "--spec", "darkgates", "--scenario", "sustained", "--tdp", "35",
        "--opt", "duration_s=4", "--opt", "time_step_s=1",
    ]
    assert main(run) == 0
    assert "1 task(s) executed, 0 served" in capsys.readouterr().out
    (run_dir,) = (tmp_path / "runs").iterdir()
    (run_dir / "columns.npy").unlink()
    (run_dir / "result.json").write_text(text)

    assert main(run) == 0
    assert "0 task(s) executed, 1 served" in capsys.readouterr().out
    assert not [w for w in recwarn if issubclass(w.category, StoreCorruptionWarning)]
    served = RunStore(tmp_path).load_value(run_dir.name)
    fresh = SimulationEngine(get_spec("darkgates", tdp_w=35.0).build()).run(
        _dynamic_scenario()
    )
    assert served == fresh
    assert not served.frequencies_hz.flags.writeable


# -- payload shape rules ---------------------------------------------------------------


def _dynamic_payload():
    return _samples()["run_result/dynamic"].to_dict()


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda p: p.pop("pl1_w"), "missing fields"),
        (lambda p: p.update(surprise=1), "unknown fields"),
        (lambda p: p.update(frequencies_hz=7), "frequencies_hz: expected a list"),
        (lambda p: p.update(pl1_w="35"), "pl1_w: expected float"),
        (lambda p: p.update(times_s=p["times_s"][:-1]), "equal length"),
        (lambda p: p.update(kind="quantum"), "unknown RunResult kind"),
        (lambda p: p.update(schema_version=RESULT_SCHEMA_VERSION + 1), "newer"),
    ],
    ids=["missing", "unknown", "container", "scalar", "post-init", "kind", "newer"],
)
def test_damaged_payloads_raise_payload_error(damage, message):
    payload = _dynamic_payload()
    damage(payload)
    with pytest.raises(PayloadError, match=message) as caught:
        RunResult.from_dict(payload)
    assert isinstance(caught.value, StoreError)
    assert isinstance(caught.value, ConfigurationError)


def test_store_decode_rejects_damaged_values_as_store_errors():
    payload = encode_value(_samples()["run_result/dynamic"])
    payload["value"]["operating_point"] = {}
    with pytest.raises(StoreError, match="unknown fields"):
        decode_value(payload)
    with pytest.raises(StoreError, match="unknown store codec"):
        decode_value({"codec": "bogus", "value": {}})


def test_array_fields_decode_with_their_annotated_dtype():
    shard = _samples()["streaming_shard"]
    restored = StreamingCellShard.from_dict(json.loads(json.dumps(shard.to_dict())))
    assert restored.power.counts.dtype == np.int64
    assert restored.power.minima.dtype == np.float64
    assert restored.active_steps.dtype == np.bool_
    assert np.array_equal(restored.power.counts, shard.power.counts)
    assert restored.sustained.shard_sums == shard.sustained.shard_sums
    ragged = shard.power.to_dict()
    ragged["counts"] = [[1, 2], [3]]
    with pytest.raises(PayloadError, match="counts"):
        TraceHistogram.from_dict(ragged)


def test_union_fields_dispatch_on_the_kind_tag():
    fast, streaming = _samples()["population"], _samples()["json/PopulationResult"]
    for result in (fast, streaming):
        restored = PopulationResult.from_json(result.to_json())
        assert [type(c) for c in restored.cells] == [type(c) for c in result.cells]
        assert [type(b) for b in restored.binning] == [
            type(b) for b in result.binning
        ]
    payload = streaming.to_dict()
    payload["cells"][0]["kind"] = "bogus"
    with pytest.raises(PayloadError, match="unknown kind 'bogus'"):
        PopulationResult.from_dict(payload)


def test_specs_decode_nested_enums_and_optional_records():
    spec = get_spec("baseline").variant(
        die_variation={"leakage_scale": 1.2, "vf_offset_v": 0.01}
    )
    assert SystemSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
    assert spec.to_dict()["power_delivery"] == "normal"
    with pytest.raises(PayloadError, match="not a valid PowerDeliveryMode"):
        SystemSpec.from_dict({**spec.to_dict(), "power_delivery": "warp"})


# -- damaged artifacts in a warm CLI run -----------------------------------------------

FLEET_RUN = [
    "run", "--spec", "darkgates", "--profile", "datacenter", "--ensemble", "2",
    "--tdp", "35", "--seed", "3",
]


def _edit_header(run_dir: Path, edit) -> None:
    path = run_dir / "result.json"
    header = json.loads(path.read_text())
    edit(header)
    path.write_text(json.dumps(header, sort_keys=True))


def _load_columns(run_dir: Path) -> np.ndarray:
    return np.load(run_dir / "columns.npy", allow_pickle=False)


def _rewrite_columns(run_dir: Path, table: np.ndarray) -> None:
    """Replace a run's columns with *table* and re-sign them in the header,
    so only the check under test can catch the damage."""
    path = run_dir / "columns.npy"
    np.save(path, table, allow_pickle=table.dtype.hasobject)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    _edit_header(run_dir, lambda header: header["columns"].update(sha256=digest))


def _truncate_column(run_dir):
    _rewrite_columns(run_dir, _load_columns(run_dir)[:-1])


def _int_column(run_dir):
    table = _load_columns(run_dir)
    descr = [
        (name, "<i8" if name == "frequencies_hz" else kind)
        for name, kind in table.dtype.descr
    ]
    _rewrite_columns(run_dir, table.astype(descr))


def _drop_pl1(run_dir):
    _edit_header(run_dir, lambda header: header["value"].pop("pl1_w"))


class _PickleTrap:
    """Records any attempt to unpickle it."""

    unpickled = False

    def __reduce__(self):
        return _spring_trap, ()


def _spring_trap():
    _PickleTrap.unpickled = True


def _truncate_file(run_dir):
    path = run_dir / "columns.npy"
    path.write_bytes(path.read_bytes()[:-100])


def _flip_byte(run_dir):
    path = run_dir / "columns.npy"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def _delete_file(run_dir):
    (run_dir / "columns.npy").unlink()


def _miscount_rows(run_dir):
    _edit_header(run_dir, lambda header: header["columns"].update(rows=7))


def _object_dtype(run_dir):
    _rewrite_columns(run_dir, np.array([_PickleTrap()], dtype=object))


@pytest.mark.parametrize(
    "damage, reason",
    [
        (_truncate_column, "rows, the header says"),
        (_int_column, "columns have dtype"),
        (_drop_pl1, "missing fields ['pl1_w']"),
        (_truncate_file, "do not match the sha256"),
        (_flip_byte, "do not match the sha256"),
        (_delete_file, "unreadable columns"),
        (_miscount_rows, "the header says 7"),
        (_object_dtype, "allow_pickle=False"),
    ],
    ids=[
        "truncated-trace", "int-trace", "missing-pl1", "truncated-file",
        "flipped-byte", "missing-file", "row-count", "object-dtype",
    ],
)
def test_damaged_result_is_a_warned_cache_miss(
    damage, reason, tmp_path, monkeypatch, capsys
):
    """Damage one stored run: the warm run warns once, for *reason*, and
    re-runs only that run; nothing stored is ever unpickled."""
    _PickleTrap.unpickled = False
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
    assert main(FLEET_RUN) == 0
    assert "2 task(s) executed, 0 served" in capsys.readouterr().out
    run_dir = sorted((tmp_path / "runs").iterdir())[0]
    damage(run_dir)

    with pytest.warns(StoreCorruptionWarning) as record:
        assert main(FLEET_RUN) == 0
    assert len(record) == 1
    assert run_dir.name[:12] in str(record[0].message)
    assert reason in str(record[0].message)
    assert "1 task(s) executed, 1 served" in capsys.readouterr().out

    assert main(FLEET_RUN) == 0
    assert "0 task(s) executed, 2 served" in capsys.readouterr().out
    assert not _PickleTrap.unpickled
