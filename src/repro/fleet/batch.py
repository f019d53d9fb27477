"""Heterogeneous one-shot queries: the serving layer's simulate entry.

:class:`~repro.fleet.spec.FleetSpec` expands *one* base plant into N
jittered siblings; the serving layer (:mod:`repro.serve`) needs the
opposite shape — unrelated ``simulate`` queries, each carrying its own
plant and start voltage. This module names the pieces:
:class:`BatchPlant` (the per-lane half of a Capybara configuration) with
:meth:`BatchPlant.system`, the one constructor of its scalar
:class:`~repro.power.system.PowerSystem`; :class:`BatchShared` (the
rails); and :func:`advance_batch`.

One device, one scalar run
--------------------------
A served simulate is one device asking the paper's per-(plant, task)
question. :func:`advance_batch` therefore steps each query on its own
scalar plant through
:meth:`~repro.sim.engine.PowerSystemSimulator._advance_span`, the
engine's one choice of stepping loop: the compiled kernel, bit-exact
with the reference loop, or the reference loop itself under
``set_default_fast(False)``. A lane reads nothing but its own query, so
its answer is byte-identical in a call of any size or order.
``tests/fleet/test_batch.py`` enforces it and pins every lane to the
reference loop, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.power.harvester import ConstantPowerHarvester, Harvester
from repro.power.system import PowerSystem, capybara_power_system
from repro.sim.engine import PowerSystemSimulator


@dataclass(frozen=True)
class BatchPlant:
    """One query's plant: the per-lane half of a Capybara configuration.

    Field names and defaults match
    :func:`~repro.power.system.capybara_power_system`, which
    :meth:`system` calls with exactly these numbers.
    """

    datasheet_capacitance: float = 45e-3
    capacitance_tolerance: float = 0.06
    dc_esr: float = 4.0
    c_decoupling: float = 100e-6
    leakage_current: float = 20e-9
    redist_fraction: float = 0.10
    harvest_power: float = 4e-3

    def __post_init__(self) -> None:
        if self.datasheet_capacitance <= 0:
            raise ValueError(f"datasheet_capacitance must be positive, "
                             f"got {self.datasheet_capacitance}")
        if not 0 <= self.redist_fraction < 1:
            raise ValueError(f"redist_fraction must be in [0, 1), "
                             f"got {self.redist_fraction}")
        if self.harvest_power < 0:
            raise ValueError(f"harvest_power must be >= 0, "
                             f"got {self.harvest_power}")

    def config_key(self) -> tuple:
        """Hashable identity (cache key component)."""
        return ("batch-plant", self.datasheet_capacitance,
                self.capacitance_tolerance, self.dc_esr, self.c_decoupling,
                self.leakage_current, self.redist_fraction,
                self.harvest_power)

    def system(self, shared: "BatchShared",
               harvester: Optional[Harvester] = None) -> PowerSystem:
        """This plant on ``shared``'s rails as a scalar power system.

        The one ``BatchPlant`` → :class:`PowerSystem` constructor: the
        serving engine's admits and simulates and its library oracle
        all build plants here. ``harvester`` defaults to none, as
        admission analysis assumes. Raises :class:`ValueError` for a
        plant the scalar model rejects (overcommitted capacitance,
        non-positive ESR, ``v_off`` not below ``v_high``...).
        """
        return capybara_power_system(
            datasheet_capacitance=self.datasheet_capacitance,
            capacitance_tolerance=self.capacitance_tolerance,
            dc_esr=self.dc_esr,
            c_decoupling=self.c_decoupling,
            leakage_current=self.leakage_current,
            redist_fraction=self.redist_fraction,
            v_high=shared.v_high,
            v_off=shared.v_off,
            v_out=shared.v_out,
            harvester=harvester,
        )


@dataclass(frozen=True)
class BatchQuery:
    """One lane of a heterogeneous batch: a plant and a start voltage."""

    plant: BatchPlant
    v_start: float

    def __post_init__(self) -> None:
        if self.v_start < 0:
            raise ValueError(f"v_start must be >= 0, got {self.v_start}")


@dataclass(frozen=True)
class BatchShared:
    """The monitor rails ``v_high``/``v_off`` and the output rail
    ``v_out`` of a query's plant."""

    v_high: float = 2.56
    v_off: float = 1.6
    v_out: float = 2.55


def advance_batch(queries: Sequence[BatchQuery],
                  segments: Iterable[Tuple[float, float]],
                  *,
                  harvesting: bool = False,
                  stop_below: Optional[float] = None,
                  shared: Optional[BatchShared] = None,
                  harvester: Optional[Harvester] = None) -> List[dict]:
    """Step every query through ``segments``, one scalar run per lane.

    Each lane is a fresh :meth:`BatchPlant.system` rested at its
    ``v_start`` and advanced by the simulator's ``_advance_span``. It
    harvests its plant's constant ``harvest_power``, or ``harvester``
    (a recorded environment, such as :meth:`EnvSpec.lower`'s trace) when
    one is given. Times are absolute from the lane's start at 0 s.

    Returns one JSON-ready dict per query, in order: ``v_end``,
    ``v_min``, ``time``, ``energy`` and ``brownout`` (None when none).
    """
    if not queries:
        raise ValueError("a batch needs at least one query")
    segments = [(float(i), float(d)) for i, d in segments]
    shared = shared or BatchShared()
    lanes = []
    for query in queries:
        system = query.plant.system(
            shared, harvester if harvester is not None
            else ConstantPowerHarvester(query.plant.harvest_power))
        system.rest_at(query.v_start)
        sim = PowerSystemSimulator(system)
        brownout = sim._advance_span(    # noqa: SLF001 — sim-internal
            segments, harvesting, stop_below)
        lanes.append({
            "v_end": system.buffer.terminal_voltage,
            "v_min": sim._v_min_seen,     # noqa: SLF001
            "time": sim.time,
            "energy": sim._energy_out,    # noqa: SLF001
            "brownout": brownout,
        })
    return lanes


__all__ = [
    "BatchPlant",
    "BatchQuery",
    "BatchShared",
    "advance_batch",
]
