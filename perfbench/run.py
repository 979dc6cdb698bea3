"""Benchmark ``python -m repro run``: seeded workloads, cold and warm store.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-tdp-sweep --seed 1 \\
        --seconds 30 --trace 0

Every command runs in a fresh interpreter (``core.spec.build_engine`` and
the candidate tables are cached per process, so looping in one process
would hide costs a CLI user pays on every command), one at a time, each
against its own new store under ``.perfbench_work/``; ``REPRO_STORE_DIR``
and ``~/.repro_store`` are never read.  A pair is a cold command against an
empty store followed by warm re-runs against the store it filled.  Each
store is deleted as soon as its pair ends, so that every pair starts from
the same file-system state: on ext4 mounted with online discard, deleting
a whole run's stores at once made file creation in the next commands up to
2x slower for minutes.

``--trace 0`` repeats set-up probes and pairs until ``--seconds`` have
passed and reports the end-to-end metrics as medians.  ``--trace 1``
repeats an untraced cold command and a traced pair (``tracer.py``) and
reports the per-layer metrics of ``layers.LAYER_METRICS`` as medians, with
the tracing overhead.  Every command's output is checked (see
``outputs.py``).  The last line of standard output is the JSON result; the
lines before it give each metric's sample count and quartiles, the seed,
the argv and the result-table digests, which are also written to
``.perfbench_results/``.  No tail percentile is reported: a run has far
fewer than the ten samples beyond one that a tail percentile needs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import layers
import outputs
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"

#: A child still running after this many seconds is killed and fails.
COMMAND_TIMEOUT_S = 120.0
#: Fewest cold/warm pairs (traced iterations) a run measures, however short.
MIN_PAIRS = 2
MIN_TRACED = 1
#: Warm re-runs of each cold command's store.
WARM_RUNS_PER_PAIR = 2
#: Set-up probes per pair; the first probe of a run only warms the caches.
SETUP_PROBES_PER_PAIR = 2
#: End-to-end metric -> ``(unit, better)``, as ``BENCHMARK.json`` declares them.
#: ``ok_frac`` is the share of commands that passed every output check.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cold_s": ("s", "lower"),
    "warm_s": ("s", "lower"),
    "store_bytes_per_cell": ("B", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("1", "higher"),
}
#: Metric name -> (samples, unit).
Samples = Dict[str, Tuple[List[float], str]]
SETUP_CODE = "import repro, repro.store.cli; print('ready', flush=True)"
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@dataclass
class Command:
    """One finished child process."""

    label: str
    phase: str
    exit_code: int
    launch: float
    exit: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    failures: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.exit - self.launch


class Bench:
    """The children of one benchmark run and the checks on their outputs."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.repro_argv = self.workload.argv(seed)
        self.env = child_env(work)
        self.commands: List[Command] = []
        self.table_digest: Optional[str] = None
        self._serial = 0

    # -- launching ---------------------------------------------------------------------

    def _launch(self, label: str, phase: str, argv: List[str]) -> Command:
        out_path = self.work / f"{label}.out"
        err_path = self.work / f"{label}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            os.sync()  # earlier commands' writeback must not land in this one
            launch = time.perf_counter()
            process = subprocess.Popen(
                argv, stdout=out, stderr=err, env=self.env, cwd=self.work
            )
            killer = threading.Timer(COMMAND_TIMEOUT_S, process.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(process.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                process.kill()
                process.wait()
                raise
            finally:
                killer.cancel()
            finished = time.perf_counter()
        process.returncode = os.waitstatus_to_exitcode(status)
        return Command(
            label=label,
            phase=phase,
            exit_code=process.returncode,
            launch=launch,
            exit=finished,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def setup_probe(self) -> float:
        """Seconds from launching a fresh interpreter until ``repro`` is imported."""
        os.sync()
        launch = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE],
            stdout=subprocess.PIPE,
            env=self.env,
            cwd=self.work,
        )
        try:
            line = process.stdout.readline()
            ready = time.perf_counter()
            process.stdout.read()
        finally:
            process.stdout.close()
            code = process.wait(timeout=COMMAND_TIMEOUT_S)
        if code != 0 or line.strip() != b"ready":
            raise SystemExit(f"set-up probe failed (exit {code}): cannot import repro")
        return ready - launch

    def command(self, phase: str, store: Path, traced: bool = False) -> Command:
        self._serial += 1
        label = f"{phase}{'-traced' if traced else ''}-{self._serial}"
        repro_argv = self.repro_argv + ["--store", str(store)]
        if traced:
            spans = self.work / f"{label}.spans.json"
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), label, "--"]
        else:
            argv = [sys.executable, "-m", "repro"]
        command = self._launch(label, phase, argv + repro_argv)
        self.commands.append(command)
        return command

    # -- checking ----------------------------------------------------------------------

    def check(self, command: Command) -> None:
        """Output checks on a cold command or a warm re-run of its store."""
        output = outputs.parse_run_output(command.stdout)
        command.failures += outputs.command_failures(
            command.exit_code, output, command.phase
        )
        if command.exit_code and command.stderr.strip():
            command.failures.append(command.stderr.strip().splitlines()[-1])
        if output is not None:
            self.check_tables(command, output)

    def check_tables(self, command: Command, output: outputs.RunOutput) -> None:
        """Tables must pass the workload's check and match every earlier command."""
        digest = output.digest
        if self.table_digest is None:
            self.table_digest = digest
            command.failures += self.workload.check(output.tables, self.seed)
        elif digest != self.table_digest:
            command.failures.append(
                f"result tables differ from the run's first command ({digest[:12]} "
                f"vs {self.table_digest[:12]})"
            )

    # -- result ------------------------------------------------------------------------

    def result(self, metrics: Dict[str, Dict[str, float]]) -> Dict[str, object]:
        failed = sum(1 for command in self.commands if command.failures)
        return {
            "correct": failed == 0 and bool(self.commands),
            "attempted": len(self.commands),
            "failed": failed,
            "metrics": metrics,
        }


def child_env(home: Path) -> Dict[str, str]:
    """The environment of every child: this checkout's ``src``, one thread."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key != "REPRO_STORE_DIR" and not key.startswith("PYTHON")
    }
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["HOME"] = str(home)
    return env


class Pacer:
    """Counts loop iterations; starts another only if it should end by the deadline.

    The first *minimum* iterations always run.  After that an iteration
    starts only when the mean duration so far fits before *deadline*, so a
    run lasts about ``--seconds`` however long one iteration takes.
    """

    def __init__(self, deadline: float, minimum: int) -> None:
        self.deadline = deadline
        self.minimum = minimum
        self.done = -1
        self._start = time.perf_counter()

    def more(self) -> bool:
        self.done += 1
        if self.done < self.minimum:
            return True
        now = time.perf_counter()
        return now + (now - self._start) / self.done <= self.deadline


def tree_size(path: Path) -> Tuple[int, int]:
    """``(bytes, files)`` of every regular file under *path*."""
    sizes = [entry.stat().st_size for entry in path.rglob("*") if entry.is_file()]
    return sum(sizes), len(sizes)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of *values* (the quartiles of one value are itself)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure(bench: Bench, deadline: float) -> Samples:
    """Set-up probes and cold/warm pairs until *deadline*; end-to-end metrics."""
    setup: List[float] = []
    cold_s: List[float] = []
    warm_s: List[float] = []
    rss: List[float] = []
    per_cell: List[float] = []
    pairs = Pacer(deadline, MIN_PAIRS)
    while pairs.more():
        setup += [bench.setup_probe() for _ in range(SETUP_PROBES_PER_PAIR)]
        store = bench.work / f"store-{pairs.done}"
        cold = bench.command("cold", store)
        size, _ = tree_size(store)
        warms = [bench.command("warm", store) for _ in range(WARM_RUNS_PER_PAIR)]
        for command in [cold] + warms:
            bench.check(command)
        shutil.rmtree(store)
        output = outputs.parse_run_output(cold.stdout)
        if output is not None and output.executed:
            per_cell.append(size / output.executed)
        cold_s.append(cold.wall_s)
        warm_s += [warm.wall_s for warm in warms]
        rss.append(cold.peak_rss_mb)
    commands = len(bench.commands)
    ok = sum(1 for command in bench.commands if not command.failures) / commands
    samples = {
        "setup_s": setup,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "store_bytes_per_cell": per_cell or [0.0],
        "peak_rss_mb": rss,
        "ok_frac": [ok],
    }
    return {name: (samples[name], unit) for name, (unit, _) in END_TO_END.items()}


def load_spans(path: Path) -> Tuple[List[layers.Span], Dict[str, float]]:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    names = payload["names"]
    spans = [
        layers.Span(names[name], start, end, parent)
        for name, start, end, parent in payload["spans"]
    ]
    return spans, payload["counters"]


def traced_metrics(bench: Bench, command: Command, store: Path) -> Dict[str, float]:
    """Per-layer values of one traced command; failed checks go on *command*."""
    path = bench.work / f"{command.label}.spans.json"
    if not path.exists():
        command.failures.append("traced command wrote no spans")
        return {}
    spans, counters = load_spans(path)
    size, files = tree_size(store)
    for problem in layers.top_level_problems(spans, command.launch, command.exit):
        command.failures.append(problem)
    silent = layers.silent_wrappers(spans, bench.workload.name, command.phase)
    if silent:
        command.failures.append(f"wrappers that never fired: {', '.join(silent)}")
    if counters.get("process.starts", 0):
        command.failures.append(f"started {counters['process.starts']:g} process(es)")
    values = layers.command_metrics(spans, counters, command.wall_s, size, files)
    expected_ratio = 0.0 if command.phase == "cold" else 1.0
    if not values["store.lookups"] or values["store.hit_ratio"] != expected_ratio:
        command.failures.append(
            f"store hit ratio {values['store.hit_ratio']:g} over "
            f"{values['store.lookups']:g} lookup(s) on a {command.phase} run"
        )
    return values


def measure_traced(bench: Bench, deadline: float) -> Samples:
    """Untraced cold, traced cold, traced warm until *deadline*; per-layer metrics."""
    units = layers.per_layer_units()
    samples: Dict[str, List[float]] = {name: [] for name in units}
    iterations = Pacer(deadline, MIN_TRACED)
    while iterations.more():
        plain_store = bench.work / f"plain-{iterations.done}"
        plain = bench.command("cold", plain_store)
        shutil.rmtree(plain_store)
        bench.check(plain)
        store = bench.work / f"traced-{iterations.done}"
        cold = bench.command("cold", store, traced=True)
        cold_values = traced_metrics(bench, cold, store)
        warm = bench.command("warm", store, traced=True)
        bench.check(cold)
        bench.check(warm)
        warm_values = traced_metrics(bench, warm, store)
        shutil.rmtree(store)
        if not cold_values or not warm_values:
            continue
        for metric in layers.LAYER_METRICS:
            if metric.phases == ("setup",):
                samples[metric.name] += [
                    cold_values[metric.name], warm_values[metric.name]
                ]
            elif metric.phases == ("trace",):
                samples[metric.name].append(cold.wall_s - plain.wall_s)
            else:
                for phase in metric.phases:
                    values = cold_values if phase == "cold" else warm_values
                    samples[f"{phase}.{metric.name}"].append(values[metric.name])
    return {
        name: (values or [0.0], units[name][0]) for name, values in samples.items()
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work)
    try:
        bench.setup_probe()  # compiles bytecode and fills the page cache
        deadline = start + args.seconds
        measured = (measure_traced if args.trace else measure)(bench, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summaries = {name: summarize(values) for name, (values, _) in measured.items()}
    metrics = {
        name: {"value": summaries[name]["median"], "unit": unit}
        for name, (_, unit) in measured.items()
    }
    failures = [
        f"{command.label}: {reason}"
        for command in bench.commands
        for reason in command.failures
    ]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "argv": ["python", "-m", "repro"] + bench.repro_argv + ["--store", "STORE"],
        "table_sha256": bench.table_digest,
        "samples": {name: values for name, (values, _) in measured.items()},
        "failures": failures,
    }
    RESULTS.mkdir(exist_ok=True)
    record_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("argv: " + " ".join(record["argv"]))
    print(f"table sha256: {record['table_sha256']}")
    for name, (_, unit) in measured.items():
        summary = summaries[name]
        print(
            f"  {name:36s} {summary['median']:14.6g} {unit:5s} "
            f"n={summary['n']:<3d} q1={summary['q1']:.6g} q3={summary['q3']:.6g}"
        )
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(bench.result(metrics), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
