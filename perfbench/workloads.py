"""The benchmark's workloads: seeded ``python -m repro run`` command lines.

Each workload has one fixed size.  The benchmark seed is the only input:
it picks the TDP levels of ``paper-tdp-sweep`` and is passed as ``--seed``
to the other two, and the program receives only the generated argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Sequence

import outputs
from layers import FLEET, PAPER, POPULATION

#: Integer TDP levels (W) the paper sweep draws from: the paper's 35-91 W.
PAPER_TDP_RANGE = range(35, 92)
#: TDP levels per paper sweep.  The full sweep (29 levels, 3828 cells) makes
#: each cold store about 11.5k small files; on a 2-vCPU VM whose ext4 file
#: system is mounted with online discard, creating and deleting that many
#: files per command made its wall time swing by 2x between runs.  Four
#: levels (528 cells, about 1k files) keep every cost the sweep is made of.
PAPER_TDP_COUNT = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: Callable[[int], List[str]]
    check: Callable[[Sequence[str], int], List[str]]


def paper_tdp_levels(seed: int) -> List[int]:
    return sorted(random.Random(seed).sample(PAPER_TDP_RANGE, PAPER_TDP_COUNT))


def _paper_argv(seed: int) -> List[str]:
    argv = ["run", "--spec", "darkgates", "--spec", "baseline"]
    for suite in ("spec-base", "spec-rate", "3dmark", "energy"):
        argv += ["--suite", suite]
    for tdp in paper_tdp_levels(seed):
        argv += ["--tdp", str(tdp)]
    return argv


def _paper_check(tables: Sequence[str], seed: int) -> List[str]:
    # 2 specs x PAPER_TDP_COUNT TDP levels x (29 spec-base + 29 spec-rate + 6 3dmark +
    # 2 energy) workloads.
    return outputs.row_count_failures(
        tables, 2 * PAPER_TDP_COUNT * 66
    ) + outputs.paper_failures(tables, paper_tdp_levels(seed))


def _fleet_argv(seed: int) -> List[str]:
    return [
        "run", "--spec", "darkgates", "--spec", "baseline",
        "--profile", "datacenter", "--ensemble", "32",
        "--tdp", "35", "--tdp", "65", "--seed", str(seed),
    ]


def _population_argv(seed: int) -> List[str]:
    return [
        "run", "--spec", "darkgates", "--scenario", "sustained", "--tdp", "65",
        "--seed", str(seed), "--population", "20000", "--shard-size", "4096",
        "--opt", "duration_s=30",
    ]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            PAPER,
            "the paper's SPEC/3DMark/energy sweep at 4 seeded TDPs: 528 small static "
            "cells, so pmu resolve, spec builds and per-cell store costs dominate",
            _paper_argv,
            _paper_check,
        ),
        Workload(
            FLEET,
            "128 runs x 4800 steps: few large cells, so lockstep stepping, "
            "summary, QoS and JSON encode/decode of big results dominate",
            _fleet_argv,
            lambda tables, seed: outputs.row_count_failures(tables, 4),
        ),
        Workload(
            POPULATION,
            "20k dice x 30 s in 5 streaming shards: the per-die stepping kernel "
            "and variation accumulators dominate; the store barely matters",
            _population_argv,
            lambda tables, seed: outputs.row_count_failures(tables, 1),
        ),
    )
}
