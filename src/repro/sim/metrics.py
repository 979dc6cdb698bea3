"""Result types produced by the simulation engine.

Every workload class has its own result dataclass, but all of them derive
from :class:`RunResult` so that callers of the polymorphic
:meth:`~repro.sim.engine.SimulationEngine.run` can treat them uniformly:
each result exposes a ``kind`` tag, a headline ``primary_metric``, and JSON
round-tripping via :meth:`RunResult.to_dict` / :meth:`RunResult.from_dict`
(the shared :mod:`repro.common.codec`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from itertools import compress
from typing import Any, Dict, Sequence, Tuple

import numpy as np

from repro.common.codec import RESULT_SCHEMA_VERSION as RESULT_SCHEMA_VERSION
from repro.common.codec import Codec, FloatArray
from repro.common.errors import ConfigurationError
from repro.pmu.dvfs import LimitingFactor, OperatingPoint
from repro.pmu.pbm import GraphicsOperatingPoint

#: Limiting factors that count as *throttling* for residency accounting:
#: the sustained power budget and the thermal loop.  Vmax/Iccmax/grid
#: limits are silicon ceilings, not workload-induced throttles.
THROTTLE_FACTORS: Tuple[str, ...] = (
    LimitingFactor.TDP.value,
    LimitingFactor.THERMAL.value,
)


class RunResult(Codec, versioned=True):
    """Base class of every engine result.

    Concrete results are frozen dataclasses; this base adds the polymorphic
    surface shared by all of them.  ``to_dict`` produces a JSON-safe payload
    tagged with the result ``kind``; ``RunResult.from_dict`` dispatches on
    that tag and returns an instance equal to the original.
    """

    @property
    def primary_metric(self) -> float:
        """The headline number the paper reports for this workload class."""
        raise NotImplementedError


@dataclass(frozen=True)
class CpuRunResult(RunResult, kind="cpu"):
    """Outcome of running one CPU workload on one system configuration."""

    workload_name: str
    operating_point: OperatingPoint
    relative_performance: float

    @property
    def frequency_hz(self) -> float:
        """Resolved core frequency."""
        return self.operating_point.frequency_hz

    @property
    def package_power_w(self) -> float:
        """Sustained package power during the run."""
        return self.operating_point.package_power_w

    @property
    def primary_metric(self) -> float:
        """Relative SPEC-style performance."""
        return self.relative_performance

    def improvement_over(self, baseline: "CpuRunResult") -> float:
        """Fractional performance improvement over a baseline run."""
        return self.relative_performance / baseline.relative_performance - 1.0


@dataclass(frozen=True)
class GraphicsRunResult(RunResult, kind="graphics"):
    """Outcome of running one graphics workload on one system configuration."""

    workload_name: str
    operating_point: GraphicsOperatingPoint
    relative_fps: float

    @property
    def graphics_frequency_hz(self) -> float:
        """Resolved graphics frequency."""
        return self.operating_point.graphics_frequency_hz

    @property
    def primary_metric(self) -> float:
        """Relative frames-per-second."""
        return self.relative_fps

    def degradation_from(self, baseline: "GraphicsRunResult") -> float:
        """Fractional FPS degradation relative to a baseline run (>= 0)."""
        return max(0.0, 1.0 - self.relative_fps / baseline.relative_fps)


@dataclass(frozen=True)
class PhaseEnergy:
    """Power attributed to one phase of an energy scenario."""

    phase_name: str
    fraction: float
    power_w: float

    @property
    def contribution_w(self) -> float:
        """Contribution of this phase to the scenario's average power."""
        return self.fraction * self.power_w


@dataclass(frozen=True)
class EnergyRunResult(RunResult, kind="energy"):
    """Outcome of running one energy scenario on one system configuration."""

    scenario_name: str
    phases: Tuple[PhaseEnergy, ...]
    average_power_limit_w: float

    @property
    def workload_name(self) -> str:
        """Scenario name under the common result interface."""
        return self.scenario_name

    @property
    def average_power_w(self) -> float:
        """Residency-weighted average processor power."""
        return sum(phase.contribution_w for phase in self.phases)

    @property
    def primary_metric(self) -> float:
        """Average processor power in watts."""
        return self.average_power_w

    @property
    def meets_limit(self) -> bool:
        """Whether the configuration meets the scenario's power limit."""
        return self.average_power_w <= self.average_power_limit_w

    def reduction_from(self, reference: "EnergyRunResult") -> float:
        """Fractional average-power reduction relative to a reference run."""
        if reference.average_power_w <= 0:
            return 0.0
        return 1.0 - self.average_power_w / reference.average_power_w


@dataclass(frozen=True)
class TransientRunResult(RunResult, kind="transient"):
    """Outcome of running one transient droop scenario on one configuration.

    Carries the summary metrics of the waveform rather than the waveform
    itself so that study grids stay light and JSON-serialisable; rerun the
    scenario through :class:`~repro.pdn.droop.DroopSimulator` when the full
    waveform is needed.
    """

    scenario_name: str
    nominal_voltage_v: float
    worst_droop_v: float
    settled_drop_v: float
    transient_overshoot_v: float
    minimum_voltage_v: float
    time_step_s: float
    duration_s: float

    @property
    def workload_name(self) -> str:
        """Scenario name under the common result interface."""
        return self.scenario_name

    @property
    def primary_metric(self) -> float:
        """Worst-case droop in volts (the guardband-sizing number)."""
        return self.worst_droop_v

    @property
    def droop_fraction(self) -> float:
        """Worst droop as a fraction of the nominal rail voltage."""
        return self.worst_droop_v / self.nominal_voltage_v

    def worsening_over(self, baseline: "TransientRunResult") -> float:
        """Fractional worst-droop increase relative to a baseline run."""
        if baseline.worst_droop_v <= 0:
            return 0.0
        return self.worst_droop_v / baseline.worst_droop_v - 1.0


#: The float traces of a dynamic run, in stored column order.
TRACE_FIELDS: Tuple[str, ...] = (
    "times_s",
    "frequencies_hz",
    "package_powers_w",
    "temperatures_c",
    "average_powers_w",
)


def _frozen_trace(values: Any) -> np.ndarray:
    """*values* as a read-only 1-D float64 array, copied unless it is one."""
    array = values
    if not (
        isinstance(array, np.ndarray)
        and array.dtype == np.float64
        and not array.flags.writeable
    ):
        array = np.array(values, dtype=np.float64)
        array.setflags(write=False)
    if array.ndim != 1:
        raise ConfigurationError(f"a trace must be 1-D, got {array.ndim}-D")
    return array


def _mean(values: np.ndarray) -> float:
    """Mean of *values*, 0.0 when empty.

    Summed by the builtin ``sum`` over Python floats, so the result is the
    one every stored and printed number was produced with (``np.sum``
    adds pairwise and rounds differently).
    """
    return sum(values.tolist()) / len(values) if len(values) else 0.0


def _sustained(active_hz: np.ndarray) -> float:
    """Mean of the last tenth of the active-step frequencies (0 if none)."""
    return _mean(active_hz[-max(1, len(active_hz) // 10) :])


def _breakdown(factors: Sequence[str], active: np.ndarray) -> Dict[str, float]:
    """Fraction of the *active* steps stopped by each limiting factor."""
    counts = Counter(compress(factors, active.tolist()))
    total = sum(counts.values())
    return {factor: count / total for factor, count in counts.items()}


def _throttle_residency(breakdown: Dict[str, float]) -> Dict[str, float]:
    return {factor: breakdown.get(factor, 0.0) for factor in THROTTLE_FACTORS}


@dataclass(frozen=True, eq=False)
class DynamicRunResult(RunResult, kind="dynamic", derived=("summary",)):
    """Outcome of stepping one dynamic scenario through the closed loop.

    Carries the full per-step traces (frequency, package power, junction
    temperature, EWMA of power, limiting factor, package C-state) plus the
    PL1/PL2 configuration the run executed under.  Sample ``i`` describes
    the step ending at ``times_s[i]``; temperatures are post-step.  The
    float traces (:data:`TRACE_FIELDS`) are read-only float64 arrays; any
    sequence passed in is copied into one.
    """

    scenario_name: str
    time_step_s: float
    pl1_w: float
    pl2_w: float
    times_s: FloatArray
    frequencies_hz: FloatArray
    package_powers_w: FloatArray
    temperatures_c: FloatArray
    average_powers_w: FloatArray
    limiting_factors: Tuple[str, ...]
    package_cstates: Tuple[str, ...]

    def __post_init__(self) -> None:
        for name in TRACE_FIELDS:
            object.__setattr__(self, name, _frozen_trace(getattr(self, name)))
        lengths = {
            len(trace)
            for trace in (
                self.times_s,
                self.frequencies_hz,
                self.package_powers_w,
                self.temperatures_c,
                self.average_powers_w,
                self.limiting_factors,
                self.package_cstates,
            )
        }
        if len(lengths) != 1 or 0 in lengths:
            raise ConfigurationError(
                f"dynamic run {self.scenario_name!r} traces must be non-empty "
                "and of equal length"
            )

    def __eq__(self, other: object) -> bool:
        """Field-wise equality; traces are equal when every float is."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        for field in fields(self):
            mine, theirs = getattr(self, field.name), getattr(other, field.name)
            if field.name in TRACE_FIELDS:
                if not np.array_equal(mine, theirs):
                    return False
            elif mine != theirs:
                return False
        return True

    def __reduce__(self) -> Any:
        # Rebuild through __init__ so unpickled traces are read-only again.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    # -- common interface --------------------------------------------------------------

    @property
    def workload_name(self) -> str:
        """Scenario name under the common result interface."""
        return self.scenario_name

    @property
    def primary_metric(self) -> float:
        """Sustained core frequency in GHz (the TDP-story number)."""
        return self.sustained_frequency_hz / 1e9

    # -- summary metrics ---------------------------------------------------------------

    @property
    def duration_s(self) -> float:
        """Simulated time."""
        return float(self.times_s[-1])

    def _active(self) -> np.ndarray:
        """Mask of the active (non-idle) steps."""
        return self.frequencies_hz > 0.0

    @property
    def average_frequency_hz(self) -> float:
        """Mean frequency over the active steps (0 if the run never woke)."""
        return _mean(self.frequencies_hz[self._active()])

    @property
    def peak_frequency_hz(self) -> float:
        """Highest frequency reached."""
        return float(self.frequencies_hz.max())

    @property
    def sustained_frequency_hz(self) -> float:
        """Frequency the run settled at: mean of the last tenth of the
        active steps (0 if the run never woke)."""
        return _sustained(self.frequencies_hz[self._active()])

    @property
    def peak_temperature_c(self) -> float:
        """Hottest junction temperature of the run."""
        return float(self.temperatures_c.max())

    @property
    def final_temperature_c(self) -> float:
        """Junction temperature at the end of the run."""
        return float(self.temperatures_c[-1])

    @property
    def average_power_w(self) -> float:
        """Time-average package power over the whole run."""
        return _mean(self.package_powers_w)

    @property
    def throttled(self) -> bool:
        """True when the run burst above its sustained frequency."""
        return self.peak_frequency_hz > self.sustained_frequency_hz + 1e-6

    def _final_limiting_factor(self, active: np.ndarray) -> str:
        steps = np.flatnonzero(active)
        if not len(steps):
            return LimitingFactor.NONE.value
        return self.limiting_factors[steps[-1]]

    @property
    def final_limiting_factor(self) -> str:
        """Limiting factor of the last active step ("none" if never active)."""
        return self._final_limiting_factor(self._active())

    def limiting_breakdown(self) -> Dict[str, float]:
        """Fraction of active steps stopped by each limiting factor."""
        return _breakdown(self.limiting_factors, self._active())

    def cstate_residency(self) -> Dict[str, float]:
        """Fraction of the run spent in each package C-state (C0 == active)."""
        counts = Counter(self.package_cstates)
        steps = len(self.package_cstates)
        return {state: count / steps for state, count in counts.items()}

    def throttle_residency(self) -> Dict[str, float]:
        """Fraction of active steps throttled, keyed by limiting factor.

        Every factor in :data:`THROTTLE_FACTORS` is present (0.0 when the
        run never hit it), so downstream aggregation never key-errors.
        """
        return _throttle_residency(self.limiting_breakdown())

    @property
    def throttled_fraction(self) -> float:
        """Total fraction of active steps spent power- or thermal-throttled."""
        return sum(self.throttle_residency().values())

    def summary(self) -> Dict[str, Any]:
        """First-class headline metrics of the run (embedded in payloads).

        Promotes what used to require post-processing the ``limit`` traces
        — throttle residency by limiting factor — next to the frequency and
        power headlines, so stored artifacts answer QoS queries without
        re-walking the traces.  The active-step mask is computed once.
        """
        active = self._active()
        active_hz = self.frequencies_hz[active]
        residency = _throttle_residency(_breakdown(self.limiting_factors, active))
        return {
            "sustained_frequency_hz": _sustained(active_hz),
            "average_frequency_hz": _mean(active_hz),
            "peak_frequency_hz": self.peak_frequency_hz,
            "average_power_w": self.average_power_w,
            "peak_temperature_c": self.peak_temperature_c,
            "throttle_residency": residency,
            "throttled_fraction": sum(residency.values()),
            "final_limiting_factor": self._final_limiting_factor(active),
        }
