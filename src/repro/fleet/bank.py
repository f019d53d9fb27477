"""Fleet-scale bank reconfiguration: the vectorized span/switch driver.

The scalar engines consume a :class:`~repro.power.reconfig.ReconfigPlan`
by splitting the trace at the event offsets and calling the one shared
transform (:func:`~repro.power.reconfig.apply_reconfiguration`) between
sub-spans. This module is the fleet half of that contract: the same
:func:`~repro.power.reconfig.split_at_offsets` cuts the trace, the
unmodified batch kernels (stepping or segment algebra) advance each
sub-span, and :meth:`FleetBankDriver.reconfigure` mirrors
``ReconfigurableBuffer.configure`` elementwise across the batch — same
float operations, same sorted-bank accumulation order — so the
differential chain (reference ≡ fastpath ≡ fleet kernels) holds on
plan-bearing traces within the documented kernel tolerances.

Per-device semantics match the scalar event rules exactly:

* every *alive* device switches at the event; a device that browned out
  earlier in the trace never does (its state, parameters, and parked
  bank voltages stay frozen);
* banks leaving the active set park at the group's charge-weighted
  open-circuit voltage; the new group starts at the charge-weighted
  merge of its members' voltages;
* the monitor observes the post-switch voltage with normal hysteresis,
  ``v_min`` accounting sees it, and a merge below the brown-out stop
  level kills the device *at the event time* — cancelling its remaining
  events.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from repro.fleet.kernel import FleetRecorder, FleetState, advance
from repro.fleet.spec import bank_group_params
from repro.power.reconfig import ReconfigPlan, ReconfigureEvent, \
    split_at_offsets
from repro.segalg.vector import advance_fleet as _segalg_advance

__all__ = ["FleetBankDriver", "advance_fleet_plan"]


class FleetBankDriver:
    """Per-batch reconfiguration state: active masks and parked voltages.

    Wraps a bank-axis :class:`~repro.fleet.kernel.FleetState` and tracks
    what the scalar :class:`~repro.power.reconfigurable.ReconfigurableBuffer`
    keeps per device — which banks are on the rail and the rest voltage
    of every parked bank. ``reconfigure`` rebuilds the batch's group
    parameters through the same :func:`~repro.fleet.spec.bank_group_params`
    the spec expansion uses, so a post-switch fleet slot is bitwise the
    scalar ``_build_group`` of the same jittered bank floats.
    """

    def __init__(self, state: FleetState) -> None:
        params = state.params
        spec = params.spec
        if spec.bank is None or params.config_idx is None:
            raise ValueError(
                "FleetBankDriver needs a FleetSpec with the bank axis on")
        self.state = state
        self.names: Tuple[str, ...] = spec.bank.bank_names  # sorted
        self._col = {name: j for j, name in enumerate(self.names)}
        n = params.n
        # Which banks sit on each device's rail right now (n x B).
        config_rows = np.array(
            [[name in config for name in self.names]
             for config in spec.bank.configs], dtype=bool)
        self.active = config_rows[np.asarray(params.config_idx, dtype=np.intp)]
        # Parked-bank rest voltages. A fresh batch mirrors the scalar
        # admission precondition (``rest_all`` at the start level): every
        # bank — active or parked — rests at the initial terminal voltage.
        self.idle_v = np.repeat(state.v_term[:, None], len(self.names),
                                axis=1)

    def _group_ocv(self) -> np.ndarray:
        """Charge-weighted rest voltage of each device's active group,
        in ``TwoBranchSupercap.open_circuit_voltage``'s float order."""
        state = self.state
        params = state.params
        charge = (params.c_main * state.v_main
                  + params.c_decoupling * state.v_term)
        cap = params.c_main + params.c_decoupling
        charge = np.where(state.has_red,
                          charge + params.c_redist * state.v_redist, charge)
        cap = np.where(state.has_red, cap + params.c_redist, cap)
        return charge / cap

    def reconfigure(self, event: ReconfigureEvent,
                    stop_below: Optional[float] = None) -> np.ndarray:
        """Apply one event to every alive device; returns event-time
        brown-outs (NaN where none). ``self.state`` is replaced — the
        group electricals changed, so the hoisted kernel constants are
        rebuilt."""
        state = self.state
        params = state.params
        spec = params.spec
        alive = state.alive
        n = state.n

        unknown = set(event.config) - set(self.names)
        if unknown:
            raise ValueError(f"unknown banks: {sorted(unknown)}")

        # Park the currently active banks at the group rest voltage.
        ocv = self._group_ocv()
        park = alive[:, None] & self.active
        idle_v = np.where(park, ocv[:, None], self.idle_v)

        # Charge-weighted merge of the target set, accumulated in sorted
        # bank-name order (``ReconfigurableBuffer.configure``'s order;
        # ``event.config`` is canonically sorted already).
        members = [self._col[name] for name in event.config]
        bank_caps = params.bank_caps
        charge = np.zeros(n)
        cap = np.zeros(n)
        for j in members:
            charge = charge + bank_caps[:, j] * idle_v[:, j]
            cap = cap + bank_caps[:, j]
        v_new = charge / cap

        # New group electricals via the shared ``_build_group`` mirror;
        # dead devices keep their old parameters (and parked voltages).
        group = bank_group_params(
            bank_caps, params.bank_esrs, params.bank_leaks, members,
            spec.bank.switch_resistance, spec.redist_fraction)
        new_params = dataclasses.replace(
            params,
            c_main=np.where(alive, group["c_main"], params.c_main),
            r_esr=np.where(alive, group["r_esr"], params.r_esr),
            c_redist=np.where(alive, group["c_redist"], params.c_redist),
            r_redist=np.where(alive, group["r_redist"], params.r_redist),
            leakage=np.where(alive, group["leakage"], params.leakage),
        )

        target_row = np.array([name in event.config for name in self.names],
                              dtype=bool)
        self.active = np.where(alive[:, None], target_row[None, :],
                               self.active)
        self.idle_v = np.where(alive[:, None], idle_v, self.idle_v)

        # Fresh state re-hoists the kernel constants for the new groups;
        # charge/monitor state carries over, switched devices reset to the
        # merge voltage (``group.reset`` rests all three branches).
        fresh = FleetState(new_params)
        fresh.v_main = np.where(alive, v_new, state.v_main)
        fresh.v_redist = np.where(alive, v_new, state.v_redist)
        fresh.v_term = np.where(alive, v_new, state.v_term)
        fresh.time = state.time
        fresh.energy = state.energy
        fresh.v_min = np.where(alive, np.minimum(state.v_min, v_new),
                               state.v_min)
        # VoltageMonitor.observe on the post-switch voltage (hysteresis).
        fresh.enabled = np.where(
            alive,
            np.where(state.enabled, v_new >= spec.v_off,
                     v_new >= spec.v_high),
            state.enabled)
        fresh.alive = state.alive
        fresh.device_steps = state.device_steps

        brown = np.full(n, np.nan)
        if stop_below is not None:
            hit = alive & (v_new < stop_below)
            if hit.any():
                # Browns out at the event time; remaining events are
                # cancelled for these devices by the alive mask.
                brown = np.where(hit, state.time, brown)
                fresh.alive = state.alive & ~hit
        self.state = fresh
        return brown

    def advance_plan(self, trace, plan: ReconfigPlan, harvesting: bool,
                     stop_below: Optional[float],
                     engine: str = "stepping",
                     recorder: Optional[FleetRecorder] = None) -> np.ndarray:
        """Advance the whole batch through a plan-bearing trace.

        The exact scalar recipe, vectorized: split the trace at the plan
        offsets with the shared splitter, advance each sub-span with the
        unmodified batch kernel (``engine`` picks stepping or segalg),
        apply the elementwise transform between spans. Returns absolute
        brown-out times (NaN where none).
        """
        if engine not in ("stepping", "segalg"):
            raise ValueError(f"unknown engine: {engine!r}")
        advance_fn = advance if engine == "stepping" else _segalg_advance
        runs = getattr(trace, "segments", None)
        segments = runs() if callable(runs) else list(trace)
        spans = split_at_offsets(segments, plan.offsets())
        brown = np.full(self.state.n, np.nan)
        for k, span in enumerate(spans):
            if span:
                hit = advance_fn(self.state, span, harvesting, stop_below,
                                 recorder=recorder)
                brown = np.where(np.isnan(brown), hit, brown)
            if k < len(plan.events):
                hit = self.reconfigure(plan.events[k], stop_below)
                brown = np.where(np.isnan(brown), hit, brown)
                if recorder is not None:
                    recorder.capture(self.state)
        return brown


def advance_fleet_plan(state: FleetState, trace, plan: ReconfigPlan,
                       harvesting: bool, stop_below: Optional[float],
                       engine: str = "stepping",
                       recorder: Optional[FleetRecorder] = None,
                       ) -> "Tuple[FleetState, np.ndarray]":
    """One-shot convenience: drive ``state`` through a plan-bearing trace.

    Returns ``(final_state, brown_times)`` — the driver swaps the state
    object at each event (re-hoisted kernel constants), so callers must
    use the returned state, not the one they passed in.
    """
    driver = FleetBankDriver(state)
    brown = driver.advance_plan(trace, plan, harvesting, stop_below,
                                engine=engine, recorder=recorder)
    return driver.state, brown
