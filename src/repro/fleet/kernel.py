"""Fleet stepping engine: every device on the compiled scalar kernel.

This is the fleet-scale driver of :mod:`repro.sim.fastpath`'s C body.
Each device is one *lane*: a kernel state holding the device's plant,
packed from the fleet's parameter arrays, and its live state. Per
:func:`advance` call the lanes are packed once; each segment is then one
C call (:func:`~repro.sim.fastpath.advance_lanes`) that runs it on every
still-running lane. Devices that brown out, or that a caller masks off,
do not step: their state stays as it was while the rest of the batch
runs on.

Equivalence contract
--------------------
A lane takes exactly the steps a scalar run of its device takes
(:meth:`~repro.fleet.spec.FleetParams.device_system` through
``fastpath.advance_segments``): the same C function on the same floats.
So a fleet device equals the reference loop bit for bit, in any batch,
and fleet results are byte-identical however the fleet is sharded. The
differential check (``repro fleet --check``) replays sampled devices on
the reference loop and requires equality.

Without a compiled kernel (no C compiler), or while
``repro.sim.set_default_fast(False)`` holds, each device steps on the
reference loop instead, one scalar simulator per device: the same
results and step counts, at the reference loop's speed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.fleet.spec import FleetParams
from repro.power.booster import CurvedEfficiency, LinearEfficiency
from repro.sim import engine as _sim_engine, fastpath
from repro.sim.engine import PowerSystemSimulator as _Engine


class FleetRecorder:
    """Captures per-device trajectory checkpoints at segment boundaries.

    ``indices`` selects which devices to record (differential checks
    sample a handful out of thousands). Each capture appends one row per
    tracked device: ``(device, time, v_term, v_main, v_redist, v_min,
    energy)``.
    """

    def __init__(self, indices: Sequence[int]) -> None:
        self.indices = np.asarray(list(indices), dtype=np.intp)
        self.rows: List[Tuple[int, float, float, float, float, float,
                              float]] = []

    def capture(self, state: "FleetState") -> None:
        for i in self.indices:
            self.rows.append((
                int(i),
                float(state.time[i]),
                float(state.v_term[i]),
                float(state.v_main[i]),
                float(state.v_redist[i]),
                float(state.v_min[i]),
                float(state.energy[i]),
            ))


class FleetState:
    """Mutable per-device simulation state plus the hoisted plants.

    The stepping engine's lane plants are packed once per state, on the
    first stepping advance, and the segment-algebra plant (bank
    constants and program-cache digest) on the first segalg advance;
    each is reused by every later advance.
    """

    def __init__(self, params: FleetParams,
                 v_start: Optional[float] = None) -> None:
        spec = params.spec
        n = params.n
        v0 = spec.v_high if v_start is None else float(v_start)
        self.params = params
        self.n = n
        # -- charge state (mirrors TwoBranchSupercap.reset(v0)) -----------
        self.v_main = np.full(n, v0)
        self.v_redist = np.full(n, v0)
        self.v_term = np.full(n, v0)
        # -- simulator state (mirrors PowerSystemSimulator + monitor) -----
        self.time = np.zeros(n)
        self.v_min = np.full(n, v0)
        self.energy = np.zeros(n)
        self.enabled = np.full(n, v0 >= spec.v_off)
        #: Devices still stepping; cleared on brown-out, never re-set.
        self.alive = np.ones(n, dtype=bool)
        #: Total device·steps executed across all advance() calls.
        self.device_steps = 0
        #: Segment-algebra plant per ``harvesting`` value: the hoisted
        #: :class:`~repro.segalg.model.Bank` and its program-cache key,
        #: derived once per state by ``segalg.vector.advance_fleet`` on
        #: first use. Reuse is sound because ``params`` is frozen and its
        #: arrays are never written after expansion; a bank switch builds
        #: a fresh state.
        self.segalg_plants: Dict[bool, tuple] = {}
        #: Kernel states holding every device's plant, packed by the
        #: first stepping advance and reused by every later one, and the
        #: harvest arrays their pointers address.
        self._plants: Optional[np.ndarray] = None
        self._harvest: Tuple[np.ndarray, ...] = ()

        # Efficiency curves (the segment-algebra plant reads them):
        # output booster per-device base, shared shape.
        eta = CurvedEfficiency()
        self._eta_slope = eta.slope
        self._eta_curvature = eta.curvature
        self._eta_v_ref = eta.v_ref
        self._eta_floor = eta.floor
        self._eta_ceiling = eta.ceiling
        # Input-booster efficiency (LinearEfficiency with slope 0): a
        # constant within the clip window, precomputed once.
        lin = LinearEfficiency(slope=0.0, intercept=spec.input_efficiency)
        self._eta_in = min(lin.ceiling, max(lin.floor, lin.intercept))


def _lane_plants(state: FleetState) -> Optional[np.ndarray]:
    """Kernel states holding every device's plant (``None`` without a
    compiled kernel), packed once per state.

    Device 0's scalar system supplies what every device shares (booster,
    monitor and engine constants); the per-device fields are copied over
    it from the parameter arrays, so each lane holds the floats
    ``device_system(i)`` would give the kernel.
    """
    if state._plants is not None:
        return state._plants
    params = state.params
    plants = fastpath.lanes(params.device_system(0), state.n)
    if plants is None:
        return None
    # the per-device fields (for the buffer, a bank's active group)
    for name, column in (("out_a", params.eta_base),
                         ("p_h_const", params.p_harvest),
                         ("h_phase", params.phase), ("c_main", params.c_main),
                         ("r_esr", params.r_esr), ("c_red", params.c_redist),
                         ("r_red", params.r_redist),
                         ("c_dec", params.c_decoupling),
                         ("leak", params.leakage)):
        plants[name] = column
    if params.harvest_edges is not None:
        # environment replay: shared edges, one power row per device
        edges = np.ascontiguousarray(params.harvest_edges, dtype=float)
        powers = np.ascontiguousarray(params.harvest_powers, dtype=float)
        state._harvest = (edges, powers)
        plants["h_edges"] = edges.ctypes.data
        plants["h_powers"] = (powers.ctypes.data
                              + powers.strides[0] * np.arange(state.n))
        plants["hp_last"] = powers.shape[1] - 1
    plants["min_dt"] = _Engine.MIN_DT
    plants["max_idle_dt"] = _Engine.MAX_IDLE_DT
    plants["idle_dv"] = _Engine.IDLE_DV
    plants["load_dv"] = _Engine.LOAD_DV
    state._plants = plants
    return plants


def advance(state: FleetState, segments: Iterable[Tuple[float, float]],
            harvesting: bool, stop_below: Optional[float],
            active: Optional[np.ndarray] = None,
            recorder: Optional[FleetRecorder] = None) -> np.ndarray:
    """Advance the batch through ``(current, duration)`` segments.

    The fleet analogue of ``fastpath.advance_segments``: every device in
    ``active & state.alive`` replays the segment list on its own lane
    (its own adaptive steps, its own monitor hysteresis). A device whose
    terminal voltage crosses ``stop_below`` stops there mid-trace and is
    removed from ``state.alive``; everyone else runs the trace to the
    end. Returns the absolute brown-out times (NaN where none).

    ``recorder``, if given, captures tracked-device checkpoints after
    every segment — the hook differential cross-checks attach to.

    ``segments`` may be a :class:`~repro.loads.trace.CurrentTrace` or
    any iterable of ``(current, duration)`` runs — the same contract as
    the segalg fleet path, so the runner can hand either engine the
    trace object itself.
    """
    runs = getattr(segments, "segments", None)
    if callable(runs):
        segments = runs()
    n = state.n
    brown = np.full(n, np.nan)
    if n == 0:
        return brown
    run = state.alive if active is None else (state.alive & active)
    run = run.astype(np.uint8)
    plants = _lane_plants(state) if _sim_engine.DEFAULT_FAST else None
    if plants is None:
        _advance_reference(state, segments, harvesting, stop_below, run,
                           brown, recorder)
    else:
        lanes = plants.copy()
        if not harvesting:
            lanes["harvest_mode"] = 0
        lanes["stopping"] = stop_below is not None
        lanes["stop_level"] = 0.0 if stop_below is None else stop_below
        for name, value in (("v_main", state.v_main),
                            ("v_red", state.v_redist),
                            ("v_term", state.v_term),
                            ("time_abs", state.time),
                            ("v_min", state.v_min),
                            ("energy", state.energy),
                            ("enabled", state.enabled)):
            lanes[name] = value
        for i_out, duration in segments:
            if not run.any():
                break
            fastpath.advance_lanes(lanes, run, i_out, duration, brown)
            if recorder is not None:
                _store(state, lanes)
                recorder.capture(state)
        _store(state, lanes)
        state.device_steps += int(lanes["steps"].sum())
    state.alive = state.alive & np.isnan(brown)
    return brown


def _store(state: FleetState, lanes: np.ndarray) -> None:
    """Copy the lanes' live state back into the state arrays."""
    state.v_main = lanes["v_main"].copy()
    state.v_redist = lanes["v_red"].copy()
    state.v_term = lanes["v_term"].copy()
    state.time = lanes["time_abs"].copy()
    state.v_min = lanes["v_min"].copy()
    state.energy = lanes["energy"].copy()
    state.enabled = lanes["enabled"] != 0


def _advance_reference(state: FleetState, segments, harvesting: bool,
                       stop_below: Optional[float], run: np.ndarray,
                       brown: np.ndarray,
                       recorder: Optional[FleetRecorder]) -> None:
    """:func:`advance` on the reference loop (no compiled kernel, or
    ``DEFAULT_FAST`` off): each running device on its own scalar
    simulator, counting the steps the kernel would count (one per buffer
    step)."""
    sims: Dict[int, tuple] = {}
    for i in np.flatnonzero(run):
        system = state.params.device_system(int(i))
        buffer = getattr(system.buffer, "_group", system.buffer)
        buffer._v_main = float(state.v_main[i])       # noqa: SLF001
        buffer._v_redist = float(state.v_redist[i])   # noqa: SLF001
        buffer._v_term = float(state.v_term[i])       # noqa: SLF001
        system.monitor.force_enabled(bool(state.enabled[i]))
        sim = _Engine(system, fast=False)
        sim.time = float(state.time[i])
        sim._v_min_seen = float(state.v_min[i])       # noqa: SLF001
        sim._energy_out = float(state.energy[i])      # noqa: SLF001
        step = buffer.step

        def counted(i_net, dt, step=step):
            state.device_steps += 1
            return step(i_net, dt)

        buffer.step = counted
        sims[int(i)] = (sim, buffer)
    for i_out, duration in segments:
        if not run.any():
            break
        for i in np.flatnonzero(run):
            sim, buffer = sims[int(i)]
            hit = sim._advance_reference(  # noqa: SLF001
                i_out, duration, harvesting, stop_below)
            state.v_main[i] = buffer._v_main       # noqa: SLF001
            state.v_redist[i] = buffer._v_redist   # noqa: SLF001
            state.v_term[i] = buffer._v_term       # noqa: SLF001
            state.time[i] = sim.time
            state.v_min[i] = sim._v_min_seen       # noqa: SLF001
            state.energy[i] = sim._energy_out      # noqa: SLF001
            state.enabled[i] = sim.system.monitor.output_enabled
            if hit is not None:
                brown[i] = hit
                run[i] = 0
        if recorder is not None:
            recorder.capture(state)
