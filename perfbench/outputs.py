"""Parse what ``python -m repro run`` prints and decide whether it is correct.

A run prints its result tables, then ``N task(s) executed, M served from
the store (ROOT)``, then ``index: K run(s)``.  The tables are everything
before the task line; they carry the simulated results, so their sha256
identifies them across seeds, commands and commits.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

TASK_LINE = re.compile(
    r"^(\d+) task\(s\) executed, (\d+) served from the store \(.*\)$"
)


@dataclass(frozen=True)
class RunOutput:
    """The parts of one command's standard output the checks read."""

    tables: Tuple[str, ...]
    executed: int
    served: int

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.tables).encode()).hexdigest()


def parse_run_output(text: str) -> Optional[RunOutput]:
    """Split *text* at its task line; ``None`` when there is none."""
    lines = text.splitlines()
    for number, line in enumerate(lines):
        match = TASK_LINE.match(line)
        if match:
            return RunOutput(
                tables=tuple(lines[:number]),
                executed=int(match.group(1)),
                served=int(match.group(2)),
            )
    return None


def parse_table(lines: Sequence[str]) -> Tuple[List[str], List[List[str]]]:
    """Header and rows of every ``a | b | c`` line (the first one is the header).

    Separator lines (``---+---``) carry no ``|`` and are skipped.
    """
    rows = [[cell.strip() for cell in line.split("|")] for line in lines if "|" in line]
    if not rows:
        return [], []
    return rows[0], rows[1:]


def command_failures(
    exit_code: int, output: Optional[RunOutput], phase: str
) -> List[str]:
    """Why a cold or warm command failed; empty when it did not."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if output is None:
        return ["no task line"]
    total = output.executed + output.served
    if total == 0:
        return ["no tasks"]
    if phase == "cold" and output.served:
        return [f"cold run served {output.served} of {total} task(s) from the store"]
    if phase == "warm" and output.executed:
        return [f"warm run executed {output.executed} of {total} task(s)"]
    return []


def spec_gains(tables: Sequence[str]) -> Dict[str, float]:
    """Mean ``spec-base`` gain of ``darkgates`` over ``baseline`` at each TDP.

    The gain of one benchmark is ``darkgates / baseline - 1`` on the
    table's metric column; keys are the TDP labels (``35W``).
    """
    header, rows = parse_table(tables)
    if header != ["system", "suite", "workload", "metric"]:
        return {}
    metric: Dict[Tuple[str, str, str], float] = {}
    for system, suite, workload, value in rows:
        if suite == "spec-base":
            spec, _, tdp = system.partition("@")
            metric[(spec, tdp, workload)] = float(value)
    gains: Dict[str, List[float]] = {}
    for (spec, tdp, workload), value in metric.items():
        base = metric.get(("baseline", tdp, workload))
        if spec == "darkgates" and base:
            gains.setdefault(tdp, []).append(value / base - 1.0)
    return {tdp: sum(values) / len(values) for tdp, values in gains.items()}


def paper_failures(tables: Sequence[str], tdp_levels: Sequence[int]) -> List[str]:
    """DarkGates must gain on SPEC at every TDP level the sweep ran."""
    gains = spec_gains(tables)
    failures = []
    for tdp in tdp_levels:
        gain = gains.get(f"{tdp}W")
        if gain is None:
            failures.append(f"no spec-base gain at {tdp} W")
        elif not gain > 0.0:
            failures.append(f"spec-base gain {gain:+.4f} at {tdp} W is not positive")
    return failures


def row_count_failures(tables: Sequence[str], expected: int) -> List[str]:
    """The table must hold exactly *expected* result rows."""
    _, rows = parse_table(tables)
    if len(rows) != expected:
        return [f"{len(rows)} table row(s), expected {expected}"]
    return []
