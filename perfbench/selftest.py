"""Tests of the benchmark's own logic; no repro command is run.

Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import functools
import json
import sys
import tempfile
import types
import unittest
from pathlib import Path

import layers
import outputs
import run
import tracer
from layers import Span
from workloads import (
    PAPER_TDP_COUNT,
    WORKLOADS,
    Workload,
    paper_tdp_levels,
)

TABLE = """\
cli-study
system        | suite     | workload      | metric
--------------+-----------+---------------+-------
darkgates@35W | spec-base | 400.perlbench | 1.1000
darkgates@35W | spec-base | 401.bzip2     | 1.0000
baseline@35W  | spec-base | 400.perlbench | 1.0000
baseline@35W  | spec-base | 401.bzip2     | 1.0000
darkgates@35W | 3dmark    | gt1           | 0.5000
baseline@35W  | 3dmark    | gt1           | 1.0000"""


def run_text(executed: int, served: int, table: str = TABLE) -> str:
    return (
        f"{table}\n{executed} task(s) executed, {served} served from the store "
        f"(/tmp/store)\nindex: {executed + served} run(s)\n"
    )


class OutputParsing(unittest.TestCase):
    def test_task_line_splits_tables(self) -> None:
        output = outputs.parse_run_output(run_text(6, 0))
        self.assertEqual((output.executed, output.served), (6, 0))
        self.assertEqual(output.tables, tuple(TABLE.splitlines()))

    def test_no_task_line(self) -> None:
        self.assertIsNone(outputs.parse_run_output(TABLE))
        self.assertIsNone(outputs.parse_run_output("6 task(s) executed"))

    def test_digest_ignores_store_root_and_counts(self) -> None:
        cold = outputs.parse_run_output(run_text(6, 0))
        warm = outputs.parse_run_output(run_text(0, 6).replace("/tmp", "/var"))
        self.assertEqual(cold.digest, warm.digest)
        changed = TABLE.replace("1.1000", "1.1001")
        other = outputs.parse_run_output(run_text(6, 0, changed))
        self.assertNotEqual(cold.digest, other.digest)

    def test_table_rows(self) -> None:
        header, rows = outputs.parse_table(TABLE.splitlines())
        self.assertEqual(header, ["system", "suite", "workload", "metric"])
        self.assertEqual(len(rows), 6)
        self.assertEqual(
            rows[0], ["darkgates@35W", "spec-base", "400.perlbench", "1.1000"]
        )
        self.assertEqual(outputs.row_count_failures(TABLE.splitlines(), 6), [])
        self.assertEqual(len(outputs.row_count_failures(TABLE.splitlines(), 7)), 1)

    def test_spec_gain_is_the_mean_spec_base_ratio(self) -> None:
        gains = outputs.spec_gains(TABLE.splitlines())
        self.assertEqual(set(gains), {"35W"})
        self.assertAlmostEqual(gains["35W"], 0.05)
        self.assertEqual(outputs.paper_failures(TABLE.splitlines(), [35]), [])

    def test_spec_gain_failures(self) -> None:
        losing = TABLE.replace("1.1000", "0.8000").splitlines()
        self.assertIn("not positive", outputs.paper_failures(losing, [35])[0])
        missing = outputs.paper_failures(TABLE.splitlines(), [36])
        self.assertIn("no spec-base gain", missing[0])


class CommandFailures(unittest.TestCase):
    def test_clean_cold_and_warm(self) -> None:
        cold = outputs.RunOutput((), 6, 0)
        warm = outputs.RunOutput((), 0, 6)
        self.assertEqual(outputs.command_failures(0, cold, "cold"), [])
        self.assertEqual(outputs.command_failures(0, warm, "warm"), [])

    def test_each_failure(self) -> None:
        cases = [
            (1, outputs.RunOutput((), 6, 0), "cold", "exit code 1"),
            (0, None, "cold", "no task line"),
            (0, outputs.RunOutput((), 0, 0), "cold", "no tasks"),
            (0, outputs.RunOutput((), 5, 1), "cold", "served 1 of 6"),
            (0, outputs.RunOutput((), 1, 5), "warm", "executed 1 of 6"),
        ]
        for code, output, phase, reason in cases:
            with self.subTest(reason=reason):
                failures = outputs.command_failures(code, output, phase)
                self.assertEqual(len(failures), 1)
                self.assertIn(reason, failures[0])


def fake_command(
    label: str, phase: str, stdout: str, exit_code: int = 0
) -> run.Command:
    return run.Command(
        label, phase, exit_code, 0.0, 1.0, 10.0, stdout, "error: boom\n"
    )


class FailureCounting(unittest.TestCase):
    def setUp(self) -> None:
        self.work = tempfile.TemporaryDirectory()
        self.bench = run.Bench("fleet-qos", 1, Path(self.work.name))
        self.bench.workload = Workload(
            "fake", "", lambda seed: [], lambda tables, seed: []
        )

    def tearDown(self) -> None:
        self.work.cleanup()

    def pair(self, cold_text: str, warm_text: str) -> tuple:
        cold = fake_command("cold", "cold", cold_text)
        warm = fake_command("warm", "warm", warm_text)
        self.bench.commands += [cold, warm]
        self.bench.check(cold)
        self.bench.check(warm)
        return cold, warm

    def test_clean_pairs_count_no_failures(self) -> None:
        self.pair(run_text(6, 0), run_text(0, 6))
        self.pair(run_text(6, 0), run_text(0, 6))
        self.assertEqual(
            self.bench.result({}),
            {"correct": True, "attempted": 4, "failed": 0, "metrics": {}},
        )

    def test_warm_tables_differing_from_cold_fail_the_warm_command(self) -> None:
        cold, warm = self.pair(
            run_text(6, 0), run_text(0, 6, TABLE.replace("0.5000", "0.5001"))
        )
        self.assertEqual(cold.failures, [])
        self.assertIn("differ", warm.failures[0])

    def test_a_failed_exit_reports_the_last_stderr_line(self) -> None:
        cold = fake_command("cold", "cold", "", exit_code=2)
        self.bench.check(cold)
        self.assertEqual(cold.failures, ["exit code 2", "error: boom"])

    def test_a_command_with_several_reasons_counts_once(self) -> None:
        self.pair(run_text(6, 0), run_text(2, 4, TABLE.replace("0.5000", "0.5001")))
        self.pair(run_text(6, 0), "")
        result = self.bench.result({})
        self.assertEqual((result["attempted"], result["failed"]), (4, 2))
        self.assertFalse(result["correct"])

    def test_workload_check_runs_on_the_first_cold_command(self) -> None:
        seen = []
        def check(tables, seed):
            seen.append(seed)
            return ["bad"]

        self.bench.workload = Workload("fake", "", lambda seed: [], check)
        cold, warm = self.pair(run_text(6, 0), run_text(0, 6))
        self.assertEqual((seen, cold.failures, warm.failures), ([1], ["bad"], []))


def nested_spans() -> list:
    # cli [0, 10] > study [1, 9] > (lookup [2, 3] > run_id [2, 2.5]),
    # study [4, 8] (recursive) > put [5, 7]; import [-2, -1] before.
    return [
        Span("import", -2.0, -1.0, -1),
        Span("cli", 0.0, 10.0, -1),
        Span("analysis.study_run", 1.0, 9.0, 1),
        Span("store.lookup", 2.0, 3.0, 2),
        Span("store.run_id", 2.0, 2.5, 3),
        Span("analysis.study_run", 4.0, 8.0, 2),
        Span("store.put", 5.0, 7.0, 5),
    ]


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self) -> None:
        self.assertEqual(
            layers.self_times(nested_spans()), [1.0, 2.0, 3.0, 0.5, 0.5, 2.0, 2.0]
        )

    def test_inclusive_time_counts_recursion_once(self) -> None:
        totals = layers.SpanTotals.of(nested_spans())
        self.assertEqual(totals.count("analysis.study_run"), 2)
        self.assertEqual(totals.total("analysis.study_run"), 8.0)
        self.assertEqual(totals.own("analysis.study_run"), 5.0)
        self.assertEqual(totals.total("missing"), 0.0)

    def test_self_times_and_unattributed_add_up_to_wall_time(self) -> None:
        spans = nested_spans()
        wall = 13.0
        self.assertEqual(layers.unattributed_s(spans, wall), 2.0)
        attributed = sum(layers.self_times(spans))
        self.assertEqual(attributed + layers.unattributed_s(spans, wall), wall)

    def test_command_metrics(self) -> None:
        values = layers.command_metrics(
            nested_spans(), {"store.hits": 1, "sim.steps": 4}, 13.0, 100, 2
        )
        self.assertEqual(values["analysis.study_run_self_s"], 5.0)
        self.assertEqual(values["cli.self_s"], 2.0)
        self.assertEqual(values["store.hit_ratio"], 1.0)
        self.assertEqual(values["store.put_self_s"], 2.0)
        self.assertEqual(values["sim.host_ns_per_step"], 0.0)
        self.assertEqual(values["store.bytes_written"], 100)
        no_lookups = layers.command_metrics([], {}, 1.0, 0, 0)
        self.assertEqual(no_lookups["store.hit_ratio"], 0.0)

    def test_top_level_problems(self) -> None:
        good = [
            Span("import", 1.0, 2.0, -1),
            Span("trace.install", 2.0, 2.5, -1),
            Span("cli", 2.5, 9.0, -1),
        ]
        self.assertEqual(layers.top_level_problems(good, 0.0, 10.0), [])
        self.assertEqual(len(layers.top_level_problems(good, 1.5, 10.0)), 1)
        overlapping = good[:2] + [Span("cli", 2.4, 9.0, -1)]
        self.assertIn("overlap", layers.top_level_problems(overlapping, 0.0, 10.0)[0])
        self.assertEqual(len(layers.top_level_problems(good[1:], 0.0, 10.0)), 1)

    def test_silent_wrappers_follow_the_map(self) -> None:
        fired = [Span("store.lookup", 0.0, 1.0, -1)]
        silent = layers.silent_wrappers(fired, layers.FLEET, "warm")
        self.assertIn("store.load", silent)
        self.assertIn("fleet.qos", silent)
        self.assertNotIn("store.lookup", silent)
        self.assertNotIn("store.put", silent)


class Tracing(unittest.TestCase):
    def test_wrappers_record_parents_and_counters(self) -> None:
        tracing = tracer.Tracer()
        inner = tracing.wrap("store.lookup", lambda found: found)
        outer = tracing.wrap("cli", lambda: [inner(True), inner(False)])
        outer()
        names = [tracing.names[span[0]] for span in tracing.spans]
        self.assertEqual(names, ["cli", "store.lookup", "store.lookup"])
        self.assertEqual([span[3] for span in tracing.spans], [-1, 0, 0])
        self.assertEqual(tracing.counters, {"store.hits": 1})
        self.assertTrue(all(span[1] <= span[2] for span in tracing.spans))

    def test_patching_reaches_names_imported_elsewhere(self) -> None:
        @functools.lru_cache(maxsize=None)
        def build(key: int) -> int:
            return key * 2

        class Policy:
            def resolve(self) -> str:
                return "resolved"

            @classmethod
            def make(cls) -> str:
                return cls.__name__

        home = types.ModuleType("repro.selftest_home")
        home.build = build
        user = types.ModuleType("repro.selftest_user")
        user.build = build
        sys.modules.update({home.__name__: home, user.__name__: user})
        try:
            tracing = tracer.Tracer()
            tracer._patch_function(tracing, "core.build_engine", home, "build")
            tracer._patch_method(tracing, "pmu.resolve", Policy, "resolve")
            tracer._patch_method(tracing, "fleet.qos", Policy, "make")
            self.assertIs(home.build, user.build)
            self.assertEqual([user.build(3), home.build(3), user.build(4)], [6, 6, 8])
            self.assertEqual(Policy().resolve(), "resolved")
            self.assertEqual(Policy.make(), "Policy")
        finally:
            del sys.modules[home.__name__], sys.modules[user.__name__]
        names = [tracing.names[span[0]] for span in tracing.spans]
        # Two builds: the cached second call of build(3) is not a build.
        self.assertEqual(
            names,
            ["core.build_engine", "core.build_engine", "pmu.resolve", "fleet.qos"],
        )

    def test_every_target_has_a_metric(self) -> None:
        used = {name for metric in layers.LAYER_METRICS for name in metric.spans}
        self.assertEqual(used, {name for name, _, _ in layers.TARGETS})


class Pacing(unittest.TestCase):
    def test_minimum_then_only_what_fits_before_the_deadline(self) -> None:
        clock = [100.0]
        real = run.time.perf_counter
        run.time.perf_counter = lambda: clock[0]
        try:
            pacer = run.Pacer(deadline=130.0, minimum=2)
            started = []
            while pacer.more():
                started.append(clock[0])
                clock[0] += 9.0
        finally:
            run.time.perf_counter = real
        # Iterations take 9 s: the third ends at 127 s, a fourth would end at 136 s.
        self.assertEqual(started, [100.0, 109.0, 118.0])
        self.assertEqual(run.Pacer(deadline=0.0, minimum=3).more(), True)


class Contract(unittest.TestCase):
    def setUp(self) -> None:
        path = Path(run.ROOT) / "BENCHMARK.json"
        self.benchmark = json.loads(path.read_text())

    def test_per_layer_metrics_match_the_map(self) -> None:
        declared = {
            metric["name"]: (metric["unit"], metric["better"])
            for metric in self.benchmark["per_layer"]
        }
        self.assertEqual(list(declared), list(layers.per_layer_units()))
        self.assertEqual(declared, layers.per_layer_units())

    def test_workloads_and_end_to_end_metrics(self) -> None:
        self.assertEqual(
            [(w["name"], w["why"]) for w in self.benchmark["workloads"]],
            [(name, workload.why) for name, workload in WORKLOADS.items()],
        )
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in self.benchmark["end_to_end"]},
            run.END_TO_END,
        )

    def test_seeded_inputs(self) -> None:
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(workload.argv(7), workload.argv(7))
                self.assertNotEqual(workload.argv(7), workload.argv(8))
        levels = paper_tdp_levels(7)
        self.assertEqual(len(set(levels)), PAPER_TDP_COUNT)
        self.assertTrue(all(35 <= level <= 91 for level in levels))


if __name__ == "__main__":
    unittest.main()
