"""Heterogeneous batch entry: unrelated one-shot queries, one kernel call.

:class:`~repro.fleet.spec.FleetSpec` expands *one* base plant into N
jittered siblings; the serving layer (:mod:`repro.serve`) needs the
opposite shape — N unrelated admission queries, each carrying its own
plant and start voltage, stepped through a shared trace in a single
vectorized :func:`~repro.fleet.kernel.advance` call. This module builds
the per-lane :class:`~repro.fleet.spec.FleetParams` arrays directly from
:class:`BatchPlant` rows, mirroring the spec expansion's float
derivations expression-for-expression so a batch lane and the equivalent
scalar plant hold the same values bit-for-bit.

What a batch may mix and what it must share
-------------------------------------------
Per-lane: capacitance, tolerance, ESR, decoupling, leakage,
redistribution fraction, harvest power, and the start voltage. Shared
(they are scalars the kernel hoists once per batch): the monitor rails
``v_high``/``v_off``, the output rail ``v_out``, the input-booster
efficiency, the trace itself, the harvesting mode, and the stop level.
:func:`shared_key` digests exactly that shared remainder — it is the
coalescing group key the serving batcher partitions on.

Batch-composition invariance
----------------------------
The stepping kernel's per-lane arithmetic is lane-local: every branch of
its update (booster draw, charge step, adaptive ``dt``, monitor
hysteresis) computes lane ``i``'s next state from lane ``i``'s current
state alone, and the batch-structure fast paths (``enabled.all()``,
``running.all()``...) select between *identical per-lane values*. A
query answered in a batch of N is therefore byte-identical to the same
query answered in a batch of one — the same property that makes sharded
fleet reports byte-identical for any ``--jobs``. ``tests/fleet/
test_batch.py`` enforces it directly; the serving layer's correctness
bar (served answer ≡ library answer) rests on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.fleet.kernel import FleetState, advance
from repro.fleet.spec import FleetParams, FleetSpec
from repro.power.booster import CurvedEfficiency

@dataclass(frozen=True)
class BatchPlant:
    """One query's plant: the per-lane half of a Capybara configuration.

    Field names and defaults match
    :func:`~repro.power.system.capybara_power_system`; the derived
    two-branch quantities are computed exactly as
    :meth:`FleetSpec.parameters` computes them (unit jitter factors), so
    a lane built from this row equals the scalar plant built from the
    same numbers.
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
    """The scalars every lane of one kernel call must agree on."""

    v_high: float = 2.56
    v_off: float = 1.6
    v_out: float = 2.55
    input_efficiency: float = 0.80


def shared_key(shared: BatchShared, segments: Sequence[Tuple[float, float]],
               harvesting: bool, stop_below: Optional[float],
               env_fingerprint: str = "") -> tuple:
    """The coalescing group key: everything one kernel call shares.

    Two queries with equal keys can ride the same batch; the per-lane
    remainder (plant, ``v_start``) travels in the arrays.
    """
    return ("batch-shared", shared.v_high, shared.v_off, shared.v_out,
            shared.input_efficiency, tuple(tuple(s) for s in segments),
            bool(harvesting),
            None if stop_below is None else float(stop_below),
            env_fingerprint)


def build_batch(queries: Sequence[BatchQuery],
                shared: Optional[BatchShared] = None,
                harvest_edges: Optional[np.ndarray] = None,
                harvest_powers: Optional[np.ndarray] = None) -> FleetState:
    """Assemble N one-shot queries into a ready-to-advance batch state.

    The derivation chain (true capacitance, branch split, redistribution
    resistance, booster base efficiency) mirrors
    :meth:`FleetSpec.parameters` with the jitter factors pinned at one,
    so every float a lane holds equals what the equivalent scalar
    :func:`~repro.power.system.capybara_power_system` plant holds.
    ``harvest_edges``/``harvest_powers`` attach a recorded environment
    (one power row per lane on shared piece edges) exactly as a fleet
    env replay would.
    """
    if not queries:
        raise ValueError("a batch needs at least one query")
    shared = shared or BatchShared()
    n = len(queries)

    cap = np.array([q.plant.datasheet_capacitance for q in queries])
    tol = np.array([q.plant.capacitance_tolerance for q in queries])
    esr = np.array([q.plant.dc_esr for q in queries])
    c_dec = np.array([q.plant.c_decoupling for q in queries])
    leak = np.array([q.plant.leakage_current for q in queries])
    redist = np.array([q.plant.redist_fraction for q in queries])
    p_h = np.array([q.plant.harvest_power for q in queries])

    # Elementwise mirror of FleetSpec.parameters() with unit jitters.
    true_c = cap * (1.0 + tol)
    c_redist = true_c * redist
    c_main = true_c - c_redist - c_dec
    if c_main.min() <= 0:
        raise ValueError(
            "decoupling + redistribution exceed total capacitance for at "
            "least one query's plant")
    eta = CurvedEfficiency()

    # The spec carries only the shared scalars the kernel hoists; the
    # base-plant fields are placeholders (never read through the arrays).
    spec = FleetSpec(
        devices=n,
        v_high=shared.v_high,
        v_off=shared.v_off,
        v_out=shared.v_out,
        input_efficiency=shared.input_efficiency,
        esr_jitter=0.0, capacitance_jitter=0.0,
        harvest_jitter=0.0, eta_jitter=0.0,
    )
    params = FleetParams(
        spec=spec,
        c_main=c_main,
        r_esr=esr,
        c_redist=c_redist,
        r_redist=esr * 5.0,
        c_decoupling=c_dec,
        leakage=leak,
        eta_base=np.full(n, eta.base),
        p_harvest=p_h,
        phase=np.zeros(n),
        harvest_edges=harvest_edges,
        harvest_powers=harvest_powers,
    )
    state = FleetState(params)
    # Per-lane start voltages: overwrite the constructor's uniform fill
    # with the same per-lane values a batch-of-one would start from.
    v0 = np.array([q.v_start for q in queries])
    state.v_main = v0.copy()
    state.v_redist = v0.copy()
    state.v_term = v0.copy()
    state.v_min = v0.copy()
    state.enabled = v0 >= shared.v_off
    return state


@dataclass
class BatchResult:
    """Per-lane outcome of one batched advance (plain arrays)."""

    v_term: np.ndarray
    v_min: np.ndarray
    time: np.ndarray
    energy: np.ndarray
    brown: np.ndarray    # absolute brown-out times, NaN where none
    alive: np.ndarray

    @property
    def n(self) -> int:
        return int(self.v_term.shape[0])

    def lane(self, i: int) -> dict:
        """Lane ``i`` as a JSON-ready dict (NaN brown-out becomes None)."""
        t_brown = float(self.brown[i])
        return {
            "v_end": float(self.v_term[i]),
            "v_min": float(self.v_min[i]),
            "time": float(self.time[i]),
            "energy": float(self.energy[i]),
            "brownout": None if np.isnan(t_brown) else t_brown,
        }


def advance_batch(queries: Sequence[BatchQuery],
                  segments: Iterable[Tuple[float, float]],
                  *,
                  harvesting: bool = False,
                  stop_below: Optional[float] = None,
                  shared: Optional[BatchShared] = None,
                  harvest_edges: Optional[np.ndarray] = None,
                  harvest_powers: Optional[np.ndarray] = None) -> BatchResult:
    """Step every query through ``segments`` in one kernel call.

    The serving batcher's entry point: N heterogeneous one-shot queries,
    one vectorized advance of the stepping fleet kernel. Each lane's
    answer is byte-identical to the answer a batch of one would produce.
    """
    segments = [(float(i), float(d)) for i, d in
                (segments.segments() if hasattr(segments, "segments")
                 else segments)]
    state = build_batch(queries, shared=shared,
                        harvest_edges=harvest_edges,
                        harvest_powers=harvest_powers)
    brown = advance(state, segments, harvesting, stop_below)
    return BatchResult(
        v_term=state.v_term,
        v_min=state.v_min,
        time=state.time,
        energy=state.energy,
        brown=brown,
        alive=state.alive,
    )


__all__ = [
    "BatchPlant",
    "BatchQuery",
    "BatchResult",
    "BatchShared",
    "advance_batch",
    "build_batch",
    "shared_key",
]
