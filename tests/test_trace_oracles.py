"""Bit identity of the array-backed trace metrics against scalar oracles.

``DynamicRunResult.summary()`` and ``QosReport.from_result`` used to walk
tuples of Python floats one step at a time.  The oracles below keep those
formulas verbatim, as the reference the vectorised versions must match bit
for bit: every float compared with ``==`` and every dict in the same key
order, on random traces with idle steps, all-idle runs, and any chunking
and merge order of the QoS accumulator.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
from typing import Any, Dict, List, Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.fleet.qos import LATENCY_PERCENTILE, QosAccumulator, QosReport
from repro.pmu.dvfs import LimitingFactor
from repro.sim.metrics import THROTTLE_FACTORS, DynamicRunResult

# -- the scalar oracles ----------------------------------------------------------------


def _oracle_summary(result: DynamicRunResult) -> Dict[str, Any]:
    frequencies = tuple(result.frequencies_hz.tolist())
    powers = tuple(result.package_powers_w.tolist())
    temperatures = tuple(result.temperatures_c.tolist())
    factors = result.limiting_factors
    active = [i for i, f in enumerate(frequencies) if f > 0.0]
    if active:
        average = sum(frequencies[i] for i in active) / len(active)
        tail = active[-max(1, len(active) // 10) :]
        sustained = sum(frequencies[i] for i in tail) / len(tail)
        final = factors[active[-1]]
        counts: Dict[str, int] = {}
        for i in active:
            counts[factors[i]] = counts.get(factors[i], 0) + 1
        breakdown = {f: count / len(active) for f, count in counts.items()}
    else:
        average = sustained = 0.0
        final = LimitingFactor.NONE.value
        breakdown = {}
    residency = {f: breakdown.get(f, 0.0) for f in THROTTLE_FACTORS}
    return {
        "sustained_frequency_hz": sustained,
        "average_frequency_hz": average,
        "peak_frequency_hz": max(frequencies),
        "average_power_w": sum(powers) / len(powers),
        "peak_temperature_c": max(temperatures),
        "throttle_residency": residency,
        "throttled_fraction": sum(residency.values()),
        "final_limiting_factor": final,
        # Not in summary(): checked against the public methods.
        "limiting_breakdown": breakdown,
    }


def _oracle_cstate_residency(cstates: Sequence[str]) -> Dict[str, float]:
    counts: Dict[str, int] = {}
    for state in cstates:
        counts[state] = counts.get(state, 0) + 1
    return {state: count / len(cstates) for state, count in counts.items()}


def _oracle_qos(
    frequencies_hz: Sequence[float], factors: Sequence[str], name: str, slo: float
) -> QosReport:
    samples: List[float] = []
    limits: List[str] = []
    for frequency, factor in zip(frequencies_hz, factors):
        if frequency > 0.0:
            samples.append(float(frequency))
            limits.append(str(factor))
    n = len(samples)
    if n == 0:
        return QosReport(
            name=name,
            slo_frequency_hz=slo,
            active_steps=0,
            violation_rate=0.0,
            throttle_residency={f: 0.0 for f in THROTTLE_FACTORS},
            throttled_fraction=0.0,
            p99_latency_proxy=0.0,
            mean_frequency_hz=0.0,
        )
    violations = sum(1 for f in samples if f < slo)
    throttle_counts = {factor: 0 for factor in THROTTLE_FACTORS}
    for factor in limits:
        if factor in throttle_counts:
            throttle_counts[factor] += 1
    residency = {factor: count / n for factor, count in throttle_counts.items()}
    latencies = sorted(slo / f for f in samples)
    rank = min(n, max(1, math.ceil(LATENCY_PERCENTILE * n)))
    return QosReport(
        name=name,
        slo_frequency_hz=slo,
        active_steps=n,
        violation_rate=violations / n,
        throttle_residency=residency,
        throttled_fraction=sum(residency.values()),
        p99_latency_proxy=latencies[rank - 1],
        mean_frequency_hz=sum(samples) / n,
    )


# -- random traces ---------------------------------------------------------------------

_FACTORS = [factor.value for factor in LimitingFactor]
_active_hz = st.one_of(
    st.sampled_from([8e8, 1.2e9, 2.0e9, 2.6e9, 3.1e9, 4.2e9]),
    st.floats(min_value=1e8, max_value=5e9),
)
_step = st.tuples(
    st.one_of(st.just(0.0), _active_hz),
    st.floats(min_value=0.5, max_value=120.0),
    st.floats(min_value=20.0, max_value=105.0),
    st.sampled_from(_FACTORS),
)
_ALL_IDLE = [(0.0, 2.0, 40.0, "none")] * 7


def _run(steps) -> DynamicRunResult:
    frequencies = [f for f, _, _, _ in steps]
    return DynamicRunResult(
        scenario_name="random",
        time_step_s=0.1,
        pl1_w=35.0,
        pl2_w=43.75,
        times_s=[0.1 * (i + 1) for i in range(len(steps))],
        frequencies_hz=frequencies,
        package_powers_w=[p for _, p, _, _ in steps],
        temperatures_c=[t for _, _, t, _ in steps],
        average_powers_w=[p for _, p, _, _ in steps],
        limiting_factors=tuple(factor for _, _, _, factor in steps),
        package_cstates=tuple("C0" if f > 0.0 else "C6" for f in frequencies),
    )


def _same(a: Any, b: Any) -> bool:
    """Equal, with every float bit-equal and dict keys in the same order."""
    if isinstance(a, dict):
        return (
            isinstance(b, dict)
            and list(a) == list(b)
            and all(_same(a[k], b[k]) for k in a)
        )
    return type(a) is type(b) and a == b


@given(steps=st.lists(_step, min_size=1, max_size=300))
@example(steps=_ALL_IDLE)
@example(steps=[(2.6e9, 40.0, 60.0, "tdp")])
@settings(max_examples=150, deadline=None)
def test_summary_matches_scalar_oracle(steps):
    result = _run(steps)
    oracle = _oracle_summary(result)
    breakdown = oracle.pop("limiting_breakdown")
    assert _same(result.summary(), oracle)
    assert _same(result.limiting_breakdown(), breakdown)
    assert _same(
        result.cstate_residency(), _oracle_cstate_residency(result.package_cstates)
    )
    for name in ("sustained_frequency_hz", "average_frequency_hz", "average_power_w"):
        assert _same(getattr(result, name), oracle[name])
    assert result.final_limiting_factor == oracle["final_limiting_factor"]
    assert _same(result.throttled_fraction, oracle["throttled_fraction"])


@given(
    steps=st.lists(_step, min_size=1, max_size=200),
    cuts=st.lists(st.integers(min_value=0, max_value=200), max_size=6),
    order_seed=st.integers(min_value=0, max_value=2**16),
    slo=st.sampled_from([1.0e9, 2.0e9, 3.0e9]),
)
@example(steps=_ALL_IDLE, cuts=[3], order_seed=0, slo=2.0e9)
@settings(max_examples=150, deadline=None)
def test_qos_matches_scalar_oracle_under_any_chunking_and_merge_order(
    steps, cuts, order_seed, slo
):
    result = _run(steps)
    frequencies = result.frequencies_hz.tolist()
    factors = list(result.limiting_factors)
    whole = _oracle_qos(frequencies, factors, "random", slo)
    assert QosReport.from_result(result, slo, name="random") == whole
    assert _same(
        QosReport.from_result(result, slo, name="random").to_dict(), whole.to_dict()
    )

    bounds = sorted({min(c, len(steps)) for c in cuts} | {0, len(steps)})
    chunks = list(zip(bounds, bounds[1:]))
    rng = np.random.default_rng(order_seed)
    chunks = [chunks[i] for i in rng.permutation(len(chunks))]
    accumulators = [
        QosAccumulator().add_steps(result.frequencies_hz[lo:hi], factors[lo:hi])
        for lo, hi in chunks
    ]
    # Merge neighbours in a random tree: the sample order is the shuffled
    # chunk order, whatever the tree's shape.
    while len(accumulators) > 1:
        i = int(rng.integers(len(accumulators) - 1))
        accumulators[i : i + 2] = [accumulators[i].merge(accumulators[i + 1])]
    order = [i for lo, hi in chunks for i in range(lo, hi)]
    oracle = _oracle_qos(
        [frequencies[i] for i in order], [factors[i] for i in order], "random", slo
    )
    assert _same(accumulators[0].report("random", slo).to_dict(), oracle.to_dict())


# -- the array traces themselves -------------------------------------------------------


def test_traces_are_read_only_float64_copies():
    source = np.array([1.0e9, 0.0, 2.0e9])
    steps = [(f, 10.0, 50.0, "tdp") for f in source.tolist()]
    result = dataclasses.replace(_run(steps), frequencies_hz=source)
    source[0] = 7.0
    assert result.frequencies_hz[0] == 1.0e9
    assert result.frequencies_hz.dtype == np.float64
    with pytest.raises(ValueError):
        result.frequencies_hz[0] = 5.0
    restored = pickle.loads(pickle.dumps(result))
    assert restored == result
    assert not restored.frequencies_hz.flags.writeable


def test_equality_is_every_float_equal():
    steps = [(2.0e9, 10.0, 50.0, "tdp"), (0.0, 3.0, 49.0, "none")]
    a, b = _run(steps), _run(steps)
    assert a == b and not (a != b)
    shifted = _run([(2.0e9 + 1.0, 10.0, 50.0, "tdp"), steps[1]])
    assert a != shifted
    assert a != _run(steps[:1])
    assert a != "not a run"
    with pytest.raises(TypeError):
        hash(a)
