"""Differential cross-check: sampled fleet devices re-run one at a time.

The fleet engines' equivalence contracts are enforced two ways: the
pytest suites compare raw trajectories, and this module provides the
*runtime* check behind ``repro fleet --check N`` — re-run a sampled
subset of devices alone through a *mirror*, with the **same**
charge/execute/classify logic the fleet runner uses, and compare
outcomes and final state. Each fleet engine has its own mirror:

* ``stepping`` — the device steps on the reference loop (a
  ``fast=False`` simulator: one
  :meth:`~repro.sim.engine.PowerSystemSimulator._advance_reference` call
  per segment) on :meth:`FleetParams.device_system`. The fleet's
  lanes run the compiled kernel, which is bit-exact with that loop, so
  every compared value must be equal: a difference is a bug in the
  kernel, the lane packing or the runner, and the check is independent
  of the body it checks;
* ``segalg`` — the device advances as a one-lane fleet
  (:func:`~repro.segalg.vector.advance_fleet` on
  ``FleetState(params.slice(i, i + 1))``), so its segment program is
  compiled for that device alone where the fleet compiled one program
  for every lane (DESIGN §12, weakness 2).

Comparisons:

* outcome classification and committed-task count: exact match;
* brown-out time, final simulated time: equal under ``stepping``,
  within the time tolerance under ``segalg``;
* V_min: equal, or within the segalg voltage tolerance;
* delivered energy: equal, or within the segalg energy tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.fleet.kernel import FleetState
from repro.fleet.runner import (
    CHARGE_CHUNK,
    PROGRESS_EPS,
    STALL_CHUNKS,
    FleetOutcomes,
)
from repro.fleet.spec import FleetParams
from repro.segalg.vector import advance_fleet
from repro.sim.engine import PowerSystemSimulator

#: Segalg-engine differential tolerances. The fleet and its one-lane
#: mirror run the same algebra to the same per-interval fixed points,
#: but they compile *different* segment programs — the fleet program
#: uses fleet-wide conservative subdivision bounds (min capacitance,
#: worst-case bounding current), a one-lane compile uses that device's
#: own — so interval partitions differ and the midpoint-sampled
#: quantities pick up partition sensitivity (~1e-3 V, ~1e-2 relative
#: energy on jittered fleets; exact agreement on homogeneous ones).
#: These bounds cover the partition term, not just float drift.
V_TOL_SEGALG = 5e-3
T_TOL_SEGALG = 2e-2
E_TOL_SEGALG = 2e-2

#: The mirror each fleet engine's sampled devices re-run on.
MIRRORS = {"stepping": "reference-loop", "segalg": "one-lane"}


@dataclass
class DeviceMismatch:
    """One sampled device whose mirror re-run disagreed with the fleet."""

    device: int
    field: str
    fleet: object
    mirror: object

    def __str__(self) -> str:
        return (f"device {self.device}: {self.field} fleet={self.fleet!r} "
                f"mirror={self.mirror!r}")


@dataclass
class CrossCheckResult:
    """Outcome of a differential sample: which devices were compared and
    every tolerance violation found."""

    devices: List[int]
    mismatches: List[DeviceMismatch] = field(default_factory=list)
    engine: str = "stepping"

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        mirror = f"the {MIRRORS[self.engine]} mirror"
        if self.ok:
            return (f"differential check: {len(self.devices)} device(s) "
                    f"vs {mirror} — OK")
        lines = [f"differential check: {len(self.mismatches)} mismatch(es) "
                 f"across {len(self.devices)} sampled device(s) "
                 f"vs {mirror}:"]
        lines += [f"  {m}" for m in self.mismatches]
        return "\n".join(lines)


class _ReferenceDevice:
    """The stepping mirror: one device on the reference loop."""

    def __init__(self, params: FleetParams, index: int) -> None:
        self.system = params.device_system(index)
        self.sim = PowerSystemSimulator(self.system, fast=False)

    @property
    def v_term(self) -> float:
        return self.system.buffer.terminal_voltage

    @property
    def time(self) -> float:
        return self.sim.time

    def advance(self, segments, stop_below) -> Optional[float]:
        # fast=False: one _advance_reference call per segment, and never
        # the compiled kernel the fleet's lanes run
        return self.sim._advance_span(  # noqa: SLF001 — sim-internal
            segments, True, stop_below)

    def totals(self) -> tuple:
        """``(v_min, energy)`` accumulated so far."""
        return (self.sim._v_min_seen,     # noqa: SLF001 — sim-internal
                self.sim._energy_out)     # noqa: SLF001


class _OneLaneDevice:
    """The segalg mirror: one device advanced alone as a one-lane fleet."""

    def __init__(self, params: FleetParams, index: int) -> None:
        self.state = FleetState(params.slice(index, index + 1))

    @property
    def v_term(self) -> float:
        return float(self.state.v_term[0])

    @property
    def time(self) -> float:
        return float(self.state.time[0])

    def advance(self, segments, stop_below) -> Optional[float]:
        brown = float(advance_fleet(self.state, segments, True,
                                    stop_below)[0])
        return None if np.isnan(brown) else brown

    def totals(self) -> tuple:
        """``(v_min, energy)`` accumulated so far."""
        return float(self.state.v_min[0]), float(self.state.energy[0])


def run_device_mirror(params: FleetParams, index: int, app: str,
                      cycles: int, gates: Dict[str, float],
                      horizon: float, engine: str = "stepping") -> dict:
    """Replay fleet-runner semantics for one device on its mirror.

    Chunked charging, horizon/equilibrium handling and classification
    mirror ``runner._run_shard`` branch for branch. Under the default
    ``stepping`` engine the device steps on the reference loop, the
    oracle the compiled lanes are bit-exact with; under ``segalg`` it
    advances alone as a one-lane fleet, so the sample exercises the
    engine actually used against a per-device program.
    """
    from repro.apps.programs import build_program

    spec = params.spec
    device = (_OneLaneDevice(params, index) if engine == "segalg"
              else _ReferenceDevice(params, index))
    program = build_program(app, cycles=cycles)
    time_varying = spec.harvest_period > 0 or spec.env is not None
    # Bank fleets key the shared gate table per configuration (§V-B);
    # the mirror reads the rows of this device's drawn configuration.
    gate_prefix = ""
    if spec.bank is not None:
        from repro.sched.bank import config_tag
        config = spec.bank.configs[int(params.config_idx[index])]
        gate_prefix = f"{config_tag(config)}/"

    outcome = "completed"
    tasks_committed = 0
    brown_time: Optional[float] = None
    brown_task = ""
    pending = True

    for task in program.tasks:
        if not pending:
            break
        gate_v = min(spec.v_high, gates[gate_prefix + task.name])
        stall = 0

        while pending and device.v_term < gate_v:
            if device.time >= horizon - 1e-12:
                outcome = "degraded_but_safe"
                pending = False
                break
            v_before = device.v_term
            device.advance(((0.0, CHARGE_CHUNK),), None)
            if device.v_term > v_before + PROGRESS_EPS:
                stall = 0
            else:
                stall += 1
            if not time_varying and stall >= STALL_CHUNKS \
                    and device.v_term < gate_v:
                outcome = "livelock"
                pending = False
        if not pending:
            break

        if not (device.time < horizon - 1e-12 and device.v_term >= gate_v):
            outcome = "degraded_but_safe"
            break
        browned = device.advance(list(task.trace.segments()), spec.v_off)
        if browned is not None:
            outcome = "brown_out"
            brown_time = browned
            brown_task = task.name
            break
        tasks_committed += 1

    v_min, energy = device.totals()
    return {
        "outcome": outcome,
        "tasks_committed": tasks_committed,
        "v_min": v_min,
        "final_time": device.time,
        "energy": energy,
        "v_term": device.v_term,
        "brown_time": brown_time,
        "brown_task": brown_task,
    }


def sample_indices(devices: int, check: int, seed: int) -> List[int]:
    """Deterministically sample ``check`` device indices to cross-check."""
    if devices <= 0 or check <= 0:
        return []
    if check >= devices:
        return list(range(devices))
    rng = np.random.default_rng((seed, 0xD1FF))
    picked = rng.choice(devices, size=check, replace=False)
    return sorted(int(i) for i in picked)


def cross_check(outcomes: FleetOutcomes,
                indices: Sequence[int]) -> CrossCheckResult:
    """Re-run ``indices`` on their mirror and compare to the fleet.

    The mirror matches the engine that produced ``outcomes``
    (``outcomes.engine``, see :data:`MIRRORS`). The stepping engine must
    equal its mirror; segalg must agree within the tolerances documented
    for its fleet-vs-mirror agreement.
    """
    params = outcomes.spec.parameters()
    engine = getattr(outcomes, "engine", "stepping")
    if engine == "segalg":
        v_tol, t_tol, e_tol = V_TOL_SEGALG, T_TOL_SEGALG, E_TOL_SEGALG
    else:
        # exact: for floats that are not NaN, abs(a - b) > 0.0 is a != b
        v_tol = t_tol = e_tol = 0.0
    result = CrossCheckResult(devices=list(indices), engine=engine)
    for i in indices:
        mirror = run_device_mirror(params, i, outcomes.app, outcomes.cycles,
                                   outcomes.gates, outcomes.horizon,
                                   engine=engine)
        fleet_outcome = outcomes.outcome_of(i)
        if mirror["outcome"] != fleet_outcome:
            result.mismatches.append(DeviceMismatch(
                i, "outcome", fleet_outcome, mirror["outcome"]))
            continue
        if mirror["tasks_committed"] != int(outcomes.tasks_committed[i]):
            result.mismatches.append(DeviceMismatch(
                i, "tasks_committed", int(outcomes.tasks_committed[i]),
                mirror["tasks_committed"]))
        checks = (
            ("v_min", float(outcomes.v_min[i]), mirror["v_min"], v_tol),
            ("final_time", float(outcomes.final_time[i]),
             mirror["final_time"], t_tol),
            ("energy", float(outcomes.energy[i]), mirror["energy"], e_tol),
        )
        for name, fleet_v, mirror_v, tol in checks:
            if abs(fleet_v - mirror_v) > tol:
                result.mismatches.append(
                    DeviceMismatch(i, name, fleet_v, mirror_v))
        fleet_bt = float(outcomes.brown_time[i])
        mirror_bt = mirror["brown_time"]
        if mirror_bt is None:
            if not np.isnan(fleet_bt):
                result.mismatches.append(
                    DeviceMismatch(i, "brown_time", fleet_bt, None))
        elif np.isnan(fleet_bt) or abs(fleet_bt - mirror_bt) > t_tol:
            result.mismatches.append(
                DeviceMismatch(i, "brown_time", fleet_bt, mirror_bt))
    return result
