"""What the traced run wraps, and the per-layer metrics derived from it.

``TARGETS`` names the public functions of ``repro`` that the tracer wraps
from outside the program (see ``tracer.py``).  Every call becomes a span
``(name, start, end, parent)``.  ``LAYER_METRICS`` is the metric map: each
per-layer metric names the spans it is computed from, the command it is
measured on (``cold``, ``warm`` or ``setup``), the end-to-end metric it
should move and the workloads on which it should move it.  Later changes
cite these names.  Nothing in a command runs concurrently, so a faster
layer can save at most its own share of the command's wall time.

Self time is a span's duration minus the durations of its child spans;
spans nest strictly (one thread), so children never overlap.  Inclusive
time sums only the outermost span of a name, so a recursive call is not
counted twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

PAPER = "paper-tdp-sweep"
FLEET = "fleet-qos"
POPULATION = "die-population"
ALL_WORKLOADS = (PAPER, FLEET, POPULATION)

#: Spans the tracer opens itself; together they cover a traced command.
TOP_LEVEL = ("import", "trace.install", "cli")

#: ``(span name, module, attribute path)`` of every wrapped callable.  The
#: attribute path is ``function`` or ``Class.method``.  Several targets may
#: share a span name; their calls and times add up.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("core.build_engine", "repro.core.spec", "build_engine"),
    ("pmu.resolve", "repro.pmu.dvfs", "DvfsPolicy.resolve"),
    ("pmu.candidate_table", "repro.pmu.dvfs", "DvfsPolicy.candidate_table"),
    ("sim.run_batch", "repro.sim.dynamics", "BatchedDynamicsSimulator.run_batch"),
    (
        "sim.run_population",
        "repro.sim.dynamics",
        "BatchedDynamicsSimulator.run_population",
    ),
    ("sim.engine_run", "repro.sim.engine", "SimulationEngine.run"),
    ("sim.summary", "repro.sim.metrics", "DynamicRunResult.summary"),
    ("variation.shard", "repro.variation.streaming", "run_cell_shard"),
    ("variation.finalize", "repro.variation.streaming", "StreamingCellShard.finalize"),
    ("fleet.ensemble", "repro.fleet.profiles", "ScenarioGenerator.ensemble"),
    ("fleet.qos", "repro.fleet.qos", "QosReport.from_result"),
    ("fleet.qos", "repro.fleet.qos", "aggregate_reports"),
    ("analysis.study_run", "repro.analysis.study", "Study.run"),
    ("analysis.study_run", "repro.analysis.fleet", "FleetStudy.run"),
    ("analysis.study_run", "repro.variation.population", "PopulationStudy.run"),
    ("store.run_id", "repro.store.hashing", "run_id_for_task"),
    ("store.lookup", "repro.store.cache", "StoreCache.__contains__"),
    ("store.encode", "repro.store.artifacts", "encode_value"),
    ("store.put", "repro.store.artifacts", "RunStore.put"),
    ("store.load", "repro.store.artifacts", "RunStore.load_value"),
    ("store.decode", "repro.store.artifacts", "decode_value"),
    ("store.index_rebuild", "repro.store.index", "RunIndex.rebuild"),
)

@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and the prediction it carries.

    ``name`` is the layer metric without its command prefix; the reported
    name is ``<phase>.<name>`` for each phase in ``phases`` (``setup`` and
    ``trace`` metrics carry no prefix).  ``spans`` are the wrapped calls
    it is derived from: on each workload in ``workloads`` and each phase,
    every one of them must fire at least once.
    """

    name: str
    unit: str
    better: str
    phases: Tuple[str, ...]
    moves: str
    workloads: Tuple[str, ...]
    spans: Tuple[str, ...] = ()

    def reported_names(self) -> List[str]:
        if self.phases in (("setup",), ("trace",)):
            return [self.name]
        return [f"{phase}.{self.name}" for phase in self.phases]


COLD = ("cold",)
WARM = ("warm",)
BOTH = ("cold", "warm")

LAYER_METRICS: Tuple[LayerMetric, ...] = (
    LayerMetric("import.self_s", "s", "lower", ("setup",), "setup_s", ALL_WORKLOADS),
    LayerMetric("cli.self_s", "s", "lower", BOTH, "cold_s/warm_s", ALL_WORKLOADS),
    LayerMetric("unattributed_s", "s", "lower", BOTH, "cold_s/warm_s", ALL_WORKLOADS),
    LayerMetric(
        "core.build_engine_calls", "count", "lower", COLD, "cold_s", (PAPER,),
        ("core.build_engine",),
    ),
    LayerMetric("core.build_engine_s", "s", "lower", COLD, "cold_s", (PAPER,)),
    LayerMetric(
        "pmu.resolve_calls", "count", "lower", COLD, "cold_s", (PAPER,),
        ("pmu.resolve",),
    ),
    LayerMetric("pmu.resolve_s", "s", "lower", COLD, "cold_s", (PAPER,)),
    LayerMetric(
        "pmu.candidate_table_calls", "count", "lower", COLD, "cold_s", (FLEET,),
        ("pmu.candidate_table",),
    ),
    LayerMetric("pmu.candidate_table_s", "s", "lower", COLD, "cold_s", (FLEET,)),
    LayerMetric(
        "sim.run_batch_self_s", "s", "lower", COLD, "cold_s", (FLEET,),
        ("sim.run_batch",),
    ),
    LayerMetric(
        "sim.run_population_s", "s", "lower", COLD, "cold_s", (POPULATION,),
        ("sim.run_population",),
    ),
    LayerMetric(
        "sim.engine_run_self_s", "s", "lower", COLD, "cold_s", (PAPER,),
        ("sim.engine_run",),
    ),
    LayerMetric(
        "sim.summary_calls", "count", "lower", COLD, "cold_s", (FLEET,),
        ("sim.summary",),
    ),
    LayerMetric("sim.summary_s", "s", "lower", COLD, "cold_s", (FLEET,)),
    LayerMetric("sim.steps", "count", "higher", COLD, "cold_s", (FLEET, POPULATION)),
    LayerMetric(
        "sim.host_ns_per_step", "ns", "lower", COLD, "cold_s", (FLEET, POPULATION)
    ),
    LayerMetric(
        "variation.shard_self_s", "s", "lower", COLD, "cold_s", (POPULATION,),
        ("variation.shard",),
    ),
    LayerMetric(
        "variation.finalize_s", "s", "lower", WARM, "warm_s", (POPULATION,),
        ("variation.finalize",),
    ),
    LayerMetric(
        "fleet.ensemble_s", "s", "lower", BOTH, "cold_s/warm_s", (FLEET,),
        ("fleet.ensemble",),
    ),
    LayerMetric(
        "fleet.qos_calls", "count", "lower", WARM, "warm_s", (FLEET,), ("fleet.qos",)
    ),
    LayerMetric("fleet.qos_s", "s", "lower", WARM, "warm_s", (FLEET,)),
    LayerMetric(
        "analysis.study_run_self_s", "s", "lower", BOTH, "cold_s/warm_s", (PAPER,),
        ("analysis.study_run",),
    ),
    LayerMetric(
        "store.run_id_calls", "count", "lower", BOTH, "cold_s/warm_s", (PAPER,),
        ("store.run_id",),
    ),
    LayerMetric("store.run_id_s", "s", "lower", BOTH, "cold_s/warm_s", (PAPER,)),
    LayerMetric(
        "store.lookups", "count", "lower", BOTH, "cold_s/warm_s", ALL_WORKLOADS,
        ("store.lookup",),
    ),
    LayerMetric("store.hits", "count", "higher", BOTH, "cold_s/warm_s", ALL_WORKLOADS),
    LayerMetric(
        "store.hit_ratio", "1", "higher", BOTH, "cold_s/warm_s", ALL_WORKLOADS
    ),
    LayerMetric(
        "store.encode_s", "s", "lower", COLD, "cold_s", (FLEET,), ("store.encode",)
    ),
    LayerMetric(
        "store.put_calls", "count", "lower", COLD, "cold_s", (PAPER,), ("store.put",)
    ),
    LayerMetric("store.put_self_s", "s", "lower", COLD, "cold_s", (PAPER,)),
    LayerMetric(
        "store.bytes_written", "B", "lower", COLD, "store_bytes_per_cell",
        ALL_WORKLOADS,
    ),
    LayerMetric(
        "store.files_written", "count", "lower", COLD, "store_bytes_per_cell",
        ALL_WORKLOADS,
    ),
    LayerMetric(
        "store.load_calls", "count", "lower", WARM, "warm_s", (FLEET,),
        ("store.load",),
    ),
    LayerMetric("store.load_self_s", "s", "lower", WARM, "warm_s", (FLEET,)),
    LayerMetric(
        "store.decode_s", "s", "lower", WARM, "warm_s", (FLEET,), ("store.decode",)
    ),
    LayerMetric(
        "store.index_rebuild_s", "s", "lower", BOTH, "cold_s/warm_s", (PAPER,),
        ("store.index_rebuild",),
    ),
    LayerMetric(
        "trace.overhead_s", "s", "lower", ("trace",), "none (traced minus untraced "
        "cold_s)", ALL_WORKLOADS,
    ),
)


def per_layer_units() -> Dict[str, Tuple[str, str]]:
    """Reported name -> ``(unit, better)``, in map order."""
    return {
        name: (metric.unit, metric.better)
        for metric in LAYER_METRICS
        for name in metric.reported_names()
    }


# -- span arithmetic -------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    return [span.duration - child for span, child in zip(spans, covered)]


def outermost(spans: Sequence[Span]) -> List[bool]:
    """Whether each span has no ancestor of the same name."""
    flags: List[bool] = []
    for span in spans:
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        flags.append(parent < 0)
    return flags


@dataclass(frozen=True)
class SpanTotals:
    """Calls, inclusive time and self time of every span name."""

    calls: Mapping[str, int]
    inclusive_s: Mapping[str, float]
    self_s: Mapping[str, float]

    @classmethod
    def of(cls, spans: Sequence[Span]) -> "SpanTotals":
        calls: Dict[str, int] = {}
        inclusive: Dict[str, float] = {}
        own: Dict[str, float] = {}
        for span, self_s, top in zip(spans, self_times(spans), outermost(spans)):
            calls[span.name] = calls.get(span.name, 0) + 1
            own[span.name] = own.get(span.name, 0.0) + self_s
            if top:
                inclusive[span.name] = inclusive.get(span.name, 0.0) + span.duration
        return cls(calls, inclusive, own)

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def total(self, name: str) -> float:
        return self.inclusive_s.get(name, 0.0)

    def own(self, name: str) -> float:
        return self.self_s.get(name, 0.0)


def unattributed_s(spans: Sequence[Span], wall_s: float) -> float:
    """The command's wall time not covered by its top-level spans."""
    return wall_s - sum(span.duration for span in spans if span.parent < 0)


def command_metrics(
    spans: Sequence[Span],
    counters: Mapping[str, float],
    wall_s: float,
    store_bytes: int,
    store_files: int,
) -> Dict[str, float]:
    """Per-layer values of one traced command, before phase prefixing."""
    totals = SpanTotals.of(spans)
    lookups = totals.count("store.lookup")
    hits = counters.get("store.hits", 0)
    steps = counters.get("sim.steps", 0)
    stepping_s = totals.total("sim.run_batch") + totals.total("sim.run_population")
    return {
        "import.self_s": totals.own("import"),
        "cli.self_s": totals.own("cli"),
        "unattributed_s": unattributed_s(spans, wall_s),
        "core.build_engine_calls": totals.count("core.build_engine"),
        "core.build_engine_s": totals.total("core.build_engine"),
        "pmu.resolve_calls": totals.count("pmu.resolve"),
        "pmu.resolve_s": totals.total("pmu.resolve"),
        "pmu.candidate_table_calls": totals.count("pmu.candidate_table"),
        "pmu.candidate_table_s": totals.total("pmu.candidate_table"),
        "sim.run_batch_self_s": totals.own("sim.run_batch"),
        "sim.run_population_s": totals.total("sim.run_population"),
        "sim.engine_run_self_s": totals.own("sim.engine_run"),
        "sim.summary_calls": totals.count("sim.summary"),
        "sim.summary_s": totals.total("sim.summary"),
        "sim.steps": steps,
        "sim.host_ns_per_step": stepping_s * 1e9 / steps if steps else 0.0,
        "variation.shard_self_s": totals.own("variation.shard"),
        "variation.finalize_s": totals.total("variation.finalize"),
        "fleet.ensemble_s": totals.total("fleet.ensemble"),
        "fleet.qos_calls": totals.count("fleet.qos"),
        "fleet.qos_s": totals.total("fleet.qos"),
        "analysis.study_run_self_s": totals.own("analysis.study_run"),
        "store.run_id_calls": totals.count("store.run_id"),
        "store.run_id_s": totals.total("store.run_id"),
        "store.lookups": lookups,
        "store.hits": hits,
        "store.hit_ratio": hits / lookups if lookups else 0.0,
        "store.encode_s": totals.total("store.encode"),
        "store.put_calls": totals.count("store.put"),
        "store.put_self_s": totals.own("store.put"),
        "store.bytes_written": store_bytes,
        "store.files_written": store_files,
        "store.load_calls": totals.count("store.load"),
        "store.load_self_s": totals.own("store.load"),
        "store.decode_s": totals.total("store.decode"),
        "store.index_rebuild_s": totals.total("store.index_rebuild"),
    }


def silent_wrappers(
    spans: Sequence[Span], workload: str, phase: str
) -> List[str]:
    """Span names the map says fire on (*workload*, *phase*) but never did."""
    fired = {span.name for span in spans}
    return sorted(
        {
            name
            for metric in LAYER_METRICS
            if workload in metric.workloads and phase in metric.phases
            for name in metric.spans
            if name not in fired
        }
    )


def top_level_problems(spans: Sequence[Span], launch: float, exit: float) -> List[str]:
    """Why ``unattributed_s`` plus the top-level spans would not be the wall time.

    The identity holds when the top-level spans are the tracer's own, lie
    between the command's launch and exit, and do not overlap; the
    remainder is then interpreter start-up and shutdown.
    """
    top = sorted((span for span in spans if span.parent < 0), key=lambda s: s.start)
    problems = []
    names = [span.name for span in top]
    if names != list(TOP_LEVEL):
        problems.append(f"top-level spans {names}, expected {list(TOP_LEVEL)}")
    if top and (top[0].start < launch or top[-1].end > exit):
        problems.append("top-level spans reach outside the command's launch and exit")
    if any(later.start < earlier.end for earlier, later in zip(top, top[1:])):
        problems.append("top-level spans overlap")
    return problems
