"""Application specification: everything a trial needs to run.

An :class:`AppSpec` bundles a power-system factory (each trial gets a fresh
system), the harvestable power, the event-triggered task chains with their
arrival processes, and the optional background task. Specs are declarative;
:mod:`repro.apps.runner` interprets them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.events import periodic_arrivals, poisson_arrivals
from repro.power.system import PowerSystem
from repro.sched.task import Task, TaskChain


@dataclass(frozen=True)
class ChainSpec:
    """One event-triggered chain and how its events arrive.

    ``arrival`` is ``("periodic", period)`` or ``("poisson", mean_interval)``.
    """

    chain: TaskChain
    arrival: Tuple[str, float]

    def __post_init__(self) -> None:
        kind, value = self.arrival
        if kind not in ("periodic", "poisson"):
            raise ValueError(f"unknown arrival kind {kind!r}")
        if value <= 0:
            raise ValueError(f"arrival interval must be positive, got {value}")

    def generate_arrivals(self, duration: float,
                          rng: np.random.Generator) -> List[float]:
        kind, value = self.arrival
        if kind == "periodic":
            # Stagger the first periodic event by one period so the trial
            # does not start with an event at an artificially full buffer.
            return periodic_arrivals(value, duration, first=value)
        return poisson_arrivals(value, duration, rng)

    def with_interval(self, interval: float) -> "ChainSpec":
        """Same chain, different arrival interval (Figure 13 sweeps)."""
        return ChainSpec(chain=self.chain, arrival=(self.arrival[0], interval))


@dataclass(frozen=True)
class AppSpec:
    """A complete application configuration."""

    name: str
    system_factory: Callable[[], PowerSystem]
    harvest_power: float
    chains: Sequence[ChainSpec]
    background: Optional[Task] = None
    trial_duration: float = 300.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.harvest_power < 0:
            raise ValueError(
                f"harvest_power must be non-negative, got {self.harvest_power}"
            )
        if not self.chains:
            raise ValueError("an application needs at least one chain")
        if self.trial_duration <= 0:
            raise ValueError(
                f"trial_duration must be positive, got {self.trial_duration}"
            )
        object.__setattr__(self, "chains", tuple(self.chains))

    def task_chains(self) -> List[TaskChain]:
        return [spec.chain for spec in self.chains]

    def with_intervals(self, intervals: Sequence[float]) -> "AppSpec":
        """Copy with each chain's arrival interval replaced (Figure 13)."""
        if len(intervals) != len(self.chains):
            raise ValueError(
                f"need {len(self.chains)} intervals, got {len(intervals)}"
            )
        new_chains = tuple(
            spec.with_interval(interval)
            for spec, interval in zip(self.chains, intervals)
        )
        return AppSpec(
            name=self.name,
            system_factory=self.system_factory,
            harvest_power=self.harvest_power,
            chains=new_chains,
            background=self.background,
            trial_duration=self.trial_duration,
            description=self.description,
        )
