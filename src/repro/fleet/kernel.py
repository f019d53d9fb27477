"""Batched stepping kernel: N devices advance per vector operation.

This is the fleet-scale counterpart of :mod:`repro.sim.fastpath`. Where
the scalar kernel replays the reference loop's arithmetic with hoisted
locals, this kernel replays the *same recurrence* across a whole device
batch at once: every per-device quantity (branch voltages, monitor
state, elapsed segment time) lives in a numpy array, and one iteration
of the stepping loop advances every still-running device by its own
adaptive ``dt``. Devices that brown out, or that a caller masks off,
are frozen by ``np.where`` selection — their state stops changing while
the rest of the batch runs on.

Equivalence contract
--------------------
The kernel performs the same floating-point operations in the same
order as ``fastpath.advance_segments`` with two mechanical exceptions:

* transcendental calls go through numpy (``np.exp``/``np.sin``) instead
  of ``math.exp``/``math.sin``, which may differ from the C library in
  the last ulp;
* masked lanes compute speculative values that are discarded by
  ``np.where`` (never committed, so they cannot influence live state).

Per-step divergence is therefore at most an ulp or two, and integrated
drift over full program runs stays within the documented tolerances
(:data:`V_TOL` / :data:`T_TOL`), which the equivalence suite
(`tests/fleet/test_equivalence.py`) enforces against seeded random
configurations. Bit-exactness is *not* claimed — that remains the
scalar fastpath's contract against the reference engine.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.fleet.spec import FleetParams
from repro.power.booster import CurvedEfficiency, LinearEfficiency
from repro.sim.engine import PowerSystemSimulator as _Engine

#: Documented fleet-vs-scalar tolerance on any recorded voltage (V).
#: Empirically the worst drift over the equivalence corpus is below 1e-9 V;
#: the bound leaves two orders of magnitude of headroom and is still ~4
#: orders tighter than the ADC quantum the estimators themselves model.
V_TOL = 1e-7

#: Documented fleet-vs-scalar tolerance on any recorded time (s). Step
#: sizes are voltage-dependent, so ulp-level voltage drift perturbs ``dt``;
#: the accumulated effect over ~1e5 steps stays far below a microsecond.
T_TOL = 1e-6

# Engine stepping constants, hoisted from the scalar simulator so the two
# paths can never disagree about the adaptive-dt policy.
_MIN_DT = _Engine.MIN_DT
_MAX_IDLE_DT = _Engine.MAX_IDLE_DT
_IDLE_DV = _Engine.IDLE_DV
_LOAD_DV = _Engine.LOAD_DV


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
    """Mutable per-device simulation state plus hoisted derived constants.

    The derived arrays (conductance, total capacitance, stability bound,
    decoupling time constant) mirror the scalar fastpath's hoisting block
    expression-for-expression. The segment-algebra plant (bank constants
    and program-cache digest) is derived once per state, on the first
    segalg advance, and reused by every later one.
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

        # -- hoisted derived constants (fastpath hoisting block) ----------
        r_esr = params.r_esr
        c_main = params.c_main
        c_red = params.c_redist
        r_red = params.r_redist
        c_dec = params.c_decoupling
        self.has_red = (c_red > 0) & np.isfinite(r_red)
        self._rr_safe = np.where(self.has_red, r_red, 1.0)
        self._cr_safe = np.where(self.has_red, c_red, 1.0)
        g = 1.0 / r_esr
        g = g + np.where(self.has_red, 1.0 / self._rr_safe, 0.0)
        self.g = g
        total_c = c_main + c_dec
        self.total_c = total_c + np.where(self.has_red, c_red, 0.0)
        stable = r_esr * c_main
        branch_rc = np.where(self.has_red, self._rr_safe * self._cr_safe,
                             np.inf)
        self.stable = 0.25 * np.minimum(stable, branch_rc)
        self.cd_pos = c_dec > 0
        self._tau_safe = np.where(self.cd_pos, c_dec / g, 1.0)
        self.tau = np.where(self.cd_pos, self._tau_safe, 0.0)
        self.tau_quarter = self.tau / 4.0

        # Output-booster efficiency curve: per-device base, shared shape.
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


def advance(state: FleetState, segments: Iterable[Tuple[float, float]],
            harvesting: bool, stop_below: Optional[float],
            active: Optional[np.ndarray] = None,
            recorder: Optional[FleetRecorder] = None) -> np.ndarray:
    """Advance the batch through ``(current, duration)`` segments.

    The vector analogue of ``fastpath.advance_segments``: every device in
    ``active & state.alive`` replays the segment list independently (its
    own adaptive steps, its own monitor hysteresis). A device whose
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
    params = state.params
    spec = params.spec
    n = state.n
    brown = np.full(n, np.nan)
    if n == 0:
        return brown

    # Hoist state arrays into locals (rebound each step, written back at
    # the end) and fixed parameters once per call, like the scalar kernel.
    v_main = state.v_main
    v_red = state.v_redist
    v_term = state.v_term
    time = state.time
    v_min = state.v_min
    energy = state.energy
    enabled = state.enabled
    alive = state.alive if active is None else (state.alive & active)

    c_main = params.c_main
    r_esr = params.r_esr
    leak = params.leakage
    eta_base = params.eta_base
    has_red = state.has_red
    rr_safe = state._rr_safe
    cr_safe = state._cr_safe
    g = state.g
    total_c = state.total_c
    stable = state.stable
    cd_pos = state.cd_pos
    tau_safe = state._tau_safe
    tau_quarter = state.tau_quarter

    v_out = spec.v_out
    min_vin = 0.5
    derating = 0.6
    v_max_in = spec.v_high
    v_off_mon = spec.v_off
    v_high_mon = spec.v_high
    eta_in = state._eta_in
    eta_slope = state._eta_slope
    eta_curvature = state._eta_curvature
    eta_v_ref = state._eta_v_ref
    eta_floor = state._eta_floor
    eta_ceiling = state._eta_ceiling
    tau = state.tau

    if not harvesting:
        harvest_mode = 0
    elif params.harvest_edges is not None:
        # Environment replay: shared piece edges, per-device columns.
        harvest_mode = 3
        h_edges = params.harvest_edges
        h_powers = params.harvest_powers
        hp_last = h_powers.shape[1] - 1
        h_rows = np.arange(n)
    elif spec.harvest_period <= 0:
        harvest_mode = 1
    else:
        harvest_mode = 2
        omega = 2.0 * np.pi / spec.harvest_period
    p_harvest = params.p_harvest
    phase = params.phase

    stopping = stop_below is not None
    stop_level = stop_below if stopping else 0.0
    steps = 0

    # Batch-structure flags: when every device shares a branch (all have a
    # redistribution branch, all have decoupling — true for any capybara
    # derived fleet), the per-device ``np.where`` selects collapse to plain
    # arithmetic. Checked once per call, not per step.
    all_red = bool(has_red.all())
    any_red = bool(has_red.any())
    all_cd = bool(cd_pos.all())
    any_cd = bool(cd_pos.any())

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i_out, seg_duration in segments:
            run_base = alive.copy()
            if not run_base.any():
                break
            loaded = i_out > 0
            transient_window = 6.0 * tau if loaded else None
            dv_budget = _LOAD_DV if loaded else _IDLE_DV
            p_out = i_out * v_out
            elapsed = np.zeros(n)
            running = run_base & (elapsed < seg_duration - 1e-12)
            seg_start = time.copy()
            while running.any():
                v = v_term

                # output booster draw (vectorized OutputBooster math)
                if loaded:
                    v_in = np.maximum(v, min_vin)
                    dv = v_in - eta_v_ref
                    eta = eta_base + eta_slope * dv - eta_curvature * dv * dv
                    eta = np.minimum(eta_ceiling, np.maximum(eta_floor, eta))
                    if p_out > 0.0 and derating > 0.0:
                        eta = np.maximum(0.30, eta - derating * p_out)
                    if enabled.all():
                        i_in = p_out / eta / v_in
                    else:
                        i_in = np.where(enabled, p_out / eta / v_in, 0.0)
                else:
                    i_in = 0.0

                # input booster charge (vectorized InputBooster math)
                if harvest_mode == 0:
                    i_chg = 0.0
                else:
                    if harvest_mode == 1:
                        p_h = p_harvest
                    elif harvest_mode == 3:
                        # Piece containing each device's current time —
                        # the same lookup the scalar fastpath's forward
                        # pointer performs, so the floats match exactly.
                        h_idx = np.searchsorted(h_edges, time,
                                                side="right") - 1
                        h_idx = np.clip(h_idx, 0, hp_last)
                        p_h = h_powers[h_rows, h_idx]
                    else:
                        p_h = p_harvest * np.maximum(
                            0.0, np.sin(omega * time + phase))
                    v_clamp = np.maximum(v, 0.1)
                    i_chg = np.where(
                        (p_h > 0.0) & (v < v_max_in),
                        p_h * eta_in / v_clamp, 0.0)

                i_net = i_in - i_chg
                remaining = seg_duration - elapsed

                # step-size choice (_choose_dt, vectorized)
                i_abs = np.abs(i_net)
                dt = np.where(i_abs > 1e-12,
                              dv_budget * total_c / i_abs, _MAX_IDLE_DT)
                if loaded:
                    in_transient = elapsed < transient_window
                    dt = np.where(in_transient & (tau_quarter < dt),
                                  tau_quarter, dt)
                dt = np.minimum(dt, stable)
                dt = np.minimum(dt, _MAX_IDLE_DT)
                dt = np.minimum(dt, remaining)
                if harvest_mode == 3:
                    # Clamp at the next harvest edge — the same value at
                    # the same point of the min chain as the scalar
                    # fastpath, so both kernels land on the edge exactly
                    # (the _MIN_DT floor below may overshoot it by at
                    # most a microsecond on both paths alike).
                    next_edge = h_edges[h_idx + 1]
                    gap = next_edge - time
                    dt = np.where((time < next_edge) & (gap < dt), gap, dt)
                dt = np.maximum(dt, np.minimum(_MIN_DT, remaining))

                # two-branch buffer step (TwoBranchSupercap.step)
                num = v_main / r_esr - i_net
                if all_red:
                    num = num + v_red / rr_safe
                elif any_red:
                    num = num + np.where(has_red, v_red / rr_safe, 0.0)
                v_star = num / g
                if all_cd:
                    ratio = dt / tau_safe
                    alpha = np.exp(-ratio)
                    diff = v_term - v_star
                    v_avg = v_star + diff * (1.0 - alpha) / ratio
                    v_term_new = v_star + diff * alpha
                elif any_cd:
                    ratio = dt / tau_safe
                    alpha = np.exp(-ratio)
                    diff = v_term - v_star
                    v_avg = np.where(
                        cd_pos, v_star + diff * (1.0 - alpha) / ratio,
                        v_star)
                    v_term_new = np.where(cd_pos, v_star + diff * alpha,
                                          v_star)
                else:
                    v_avg = v_star
                    v_term_new = v_star
                i_main = (v_main - v_avg) / r_esr
                drain = i_main + np.where(v_main > 0.0, leak, 0.0)
                v_main_new = np.maximum(v_main - drain * dt / c_main, 0.0)
                if all_red:
                    v_red_new = np.maximum(
                        v_red - (v_red - v_avg) / rr_safe * dt / cr_safe,
                        0.0)
                elif any_red:
                    v_red_new = np.where(
                        has_red,
                        np.maximum(
                            v_red - (v_red - v_avg) / rr_safe * dt / cr_safe,
                            0.0),
                        v_red)
                else:
                    v_red_new = v_red
                v_term_new = np.maximum(v_term_new, 0.0)

                # commit — plain assignment while the whole batch is
                # running (the common case), masked selection otherwise
                if running.all():
                    elapsed = elapsed + dt
                    time = seg_start + elapsed
                    energy = energy + i_in * np.maximum(v, v_term_new) * dt
                    v_main = v_main_new
                    v_red = v_red_new
                    v_term = v_term_new
                    enabled = np.where(enabled, v_term_new >= v_off_mon,
                                       v_term_new >= v_high_mon)
                    v_min = np.minimum(v_min, v_term_new)
                    steps += n
                else:
                    elapsed = np.where(running, elapsed + dt, elapsed)
                    time = np.where(running, seg_start + elapsed, time)
                    energy = np.where(
                        running,
                        energy + i_in * np.maximum(v, v_term_new) * dt,
                        energy)
                    v_main = np.where(running, v_main_new, v_main)
                    v_red = np.where(running, v_red_new, v_red)
                    v_term = np.where(running, v_term_new, v_term)
                    # monitor hysteresis (VoltageMonitor.observe)
                    enabled = np.where(
                        running,
                        np.where(enabled, v_term_new >= v_off_mon,
                                 v_term_new >= v_high_mon),
                        enabled)
                    v_min = np.where(running & (v_term_new < v_min),
                                     v_term_new, v_min)
                    steps += int(running.sum())
                if stopping:
                    hit = running & (v_term_new < stop_level)
                    if hit.any():
                        brown = np.where(hit, time, brown)
                        alive = alive & ~hit
                running = run_base & alive \
                    & (elapsed < seg_duration - 1e-12)
            if recorder is not None:
                state.v_term = v_term
                state.v_main = v_main
                state.v_redist = v_red
                state.time = time
                state.v_min = v_min
                state.energy = energy
                recorder.capture(state)

    # -- write state back --------------------------------------------------
    state.v_main = v_main
    state.v_redist = v_red
    state.v_term = v_term
    state.time = time
    state.v_min = v_min
    state.energy = energy
    state.enabled = enabled
    if active is None:
        state.alive = alive
    else:
        # Only devices this call actually ran can have died.
        state.alive = np.where(active, alive, state.alive)
    state.device_steps += steps
    return brown
