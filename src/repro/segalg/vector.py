"""Fleet path: one segment program advanced across a whole device batch.

Every device flips its monitor, hits the rail, and browns out at a
different point, so the batch advances in *lockstep over intervals*:
each compiled interval advances all devices at once through
:func:`~repro.segalg.core.interval_step`, and regime boundaries
(monitor hysteresis, the V_max charge cutoff, brown-out) are handled by
splitting the interval at the earliest crossing per device. The split
stays fully vectorized — it just masks per-device remainders — and
since crossings are rare, the common case is one solve per interval.
A single device is a batch of one.

Agreement contract: against the stepping engines the differences are
method differences, bounded by the tolerances in DESIGN §12 —
continuous-trajectory ``v_min``, midpoint harvest sampling,
average-voltage energy accounting. A lane of a jittered fleet and the
same device advanced alone differ only by program partition: the fleet
compiles one program with fleet-wide conservative subdivision bounds.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.obs import EVENT_COUNT_BUCKETS
from repro.obs import current as _obs_current
from repro.segalg.core import (
    crossing_time,
    interval_extrema,
    interval_step,
    pin_available,
    pin_required,
    pinned_step,
)
from repro.segalg.model import (
    HARVEST_CONST,
    HARVEST_NONE,
    HARVEST_TRACE,
    Bank,
)
from repro.segalg.program import (
    cached_program,
    compile_segments,
    segments_cache_token,
)

#: Safety cap on regime-boundary splits within one interval. A device
#: can cross each regime edge at most once per interval — the edges sit
#: ~1 V apart while intervals are dv-budgeted to ~20 mV — so anything
#: past 3 is unreachable; the cap only guards degenerate float cycling
#: exactly on a threshold. The final iteration commits unconditionally.
MAX_SPLITS = 8


def _plant_key(state, harvesting: bool) -> tuple:
    """Program-cache key for a fleet plant: digest of the device arrays.

    Everything compilation can depend on — per-device physics, harvest
    profile, booster curves — is either in these arrays or on the spec
    scalars below, and the digest makes the array-valued plant hashable.
    For a 150-device environment fleet (a 150 × 960 harvest matrix, which
    dominates) it costs 1.5-2.6 ms on a 2-vCPU Xeon, so
    :func:`advance_fleet` computes it once per state, not once per call.
    """
    params = state.params
    spec = params.spec
    digest = hashlib.blake2b(digest_size=16)
    for arr in (params.c_main, params.r_esr, params.c_redist,
                params.r_redist, params.c_decoupling, params.leakage,
                params.eta_base, params.p_harvest, params.phase):
        digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    if params.harvest_edges is not None:
        # Environment replay: the sliced columns are the batch's harvest
        # identity (the full-fleet fingerprint alone would alias shards).
        digest.update(np.ascontiguousarray(
            params.harvest_edges, dtype=np.float64).tobytes())
        digest.update(np.ascontiguousarray(
            params.harvest_powers, dtype=np.float64).tobytes())
    return ("fleet", digest.hexdigest(), spec.v_out, spec.v_off,
            spec.v_high, spec.input_efficiency, spec.harvest_period,
            bool(harvesting))


def _curve_at(bank: Bank, out: dict, vt0: np.ndarray, t: np.ndarray,
              t_pos: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(v_t, avg v_t)`` on the solved interval curve at times ``t``.

    Partial intervals commit along the closed form
    ``v(t) = vs_c0 + slope*t + T*exp(-t/tau)``. Lanes with ``t == 0``
    pass ``vt0`` through unchanged.
    """
    slope = out["slope"]
    vs_c0 = out["vs_c0"]
    T = np.where(bank.cd_pos, out["T"], 0.0)
    ex = np.where(bank.cd_pos, np.exp(-t / bank.tau_safe), 0.0)
    t_safe = np.where(t_pos, t, 1.0)
    vt_c = vs_c0 + slope * t + T * ex
    avg = vs_c0 + 0.5 * slope * t + T * bank.tau_safe * (1.0 - ex) / t_safe
    return np.where(t_pos, vt_c, vt0), np.where(t_pos, avg, vt0)


def _ledger_at(bank: Bank, out: dict, vbar0, d0, vt0, vt_c, t):
    """Mode coordinates ``(vbar, d)`` at time ``t`` within the interval."""
    i_ext = out["i_ext"]
    i_led = i_ext + bank.leak
    vbar_c = vbar0 - (i_led * t + bank.c_dec * (vt_c - vt0)) / bank.c_s
    d_eq = bank.deq_coef * i_ext + bank.deq_leak
    d_c = np.where(bank.has_red,
                   d_eq + (d0 - d_eq) * np.exp(-t * bank.inv_tau_r), d0)
    return vbar_c, d_c


def _first_cross(mask, level, downward, out, rem_safe, t_star, tau_safe,
                 cd_pos):
    """Per-device first crossing of ``level``; ``inf`` where unmasked.

    The bisection bracket is the interval end when the endpoint is past
    the level, else the interior stationary time — a transient that
    dips (or spikes) past the level and recovers crosses before its
    own extremum.
    """
    if downward:
        end_crossed = out["vt1"] < level
    else:
        end_crossed = out["vt1"] > level
    bracket = np.where(end_crossed, rem_safe, t_star)
    t_c = crossing_time(level, out["vs_c0"], out["slope"], out["T"],
                        tau_safe, cd_pos, bracket)
    return np.where(mask, t_c, np.inf)


def advance_fleet(state, segments: Iterable[Tuple[float, float]],
                  harvesting: bool, stop_below: Optional[float],
                  active: Optional[np.ndarray] = None,
                  recorder=None) -> np.ndarray:
    """Advance a :class:`~repro.fleet.kernel.FleetState` batch.

    Drop-in for :func:`repro.fleet.kernel.advance` — same signature,
    same state mutations, same brown-out return array — running the
    segment-algebra core instead of the stepping recurrence. Results
    differ from the stepping kernel by the documented segalg method
    tolerances, not by bug-for-bug drift.

    The plant (hoisted :class:`Bank` plus program-cache digest) is
    derived on a state's first advance per ``harvesting`` value and kept
    in ``state.segalg_plants``; later advances of the same state reuse it.
    """
    n = state.n
    brown = np.full(n, np.nan)
    if n == 0:
        return brown

    plant = state.segalg_plants.get(harvesting)
    if plant is None:
        plant = (Bank.from_fleet_state(state, harvesting),
                 _plant_key(state, harvesting))
        state.segalg_plants[harvesting] = plant
    bank, plant_key = plant
    # A CurrentTrace contributes its fingerprint without being iterated;
    # plain run iterables are consumed into the token itself.
    token = segments_cache_token(segments)
    key = (plant_key, token[:2])
    if token[0] == "trace":
        build = lambda: compile_segments(segments.segments(), bank)  # noqa: E731
    else:
        runs = token[2]
        build = lambda: compile_segments(runs, bank)  # noqa: E731
    program = cached_program(key, build)

    vbar, d = bank.to_modes(state.v_main, state.v_redist)
    vbar = np.asarray(vbar, dtype=np.float64) + np.zeros(n)
    d = np.asarray(d, dtype=np.float64) + np.zeros(n)
    vt = np.asarray(state.v_term, dtype=np.float64).copy()
    time = state.time.copy()
    v_min = state.v_min.copy()
    energy = state.energy.copy()
    enabled = state.enabled.copy()
    alive = (state.alive.copy() if active is None
             else (state.alive & active))

    v_off = bank.v_off
    v_high = bank.v_high
    v_max_in = bank.v_max_in
    stopping = stop_below is not None
    stop_level = float(stop_below) if stopping else 0.0
    tau_safe = bank.tau_safe
    cd_pos = bank.cd_pos
    mode = bank.harvest_mode
    if mode == HARVEST_TRACE:
        h_edges = bank.harvest_edges
        h_powers = bank.harvest_powers
        h_pieces = h_powers.shape[1]
        hp_last = h_pieces - 1
        h_rows = np.arange(n)
    no_hits = np.zeros(n, dtype=bool)
    inf = np.full(n, np.inf)

    i_out_a = program.i_out
    dur_a = program.dur
    bounds = program.seg_bounds

    steps = 0
    events = 0
    k0 = 0
    obs = _obs_current()
    if obs is not None:
        obs.metrics.counter("segalg.fleet.calls").inc()

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k1 in bounds:
            if not alive.any():
                break
            for k in range(k0, int(k1)):
                dur_k = float(dur_a[k])
                i_out_k = float(i_out_a[k])
                int_rem = np.where(alive, dur_k, 0.0)
                # Trace mode replays the interval piece by piece: each
                # chunk stops at the earliest next trace edge across the
                # batch lanes' own clocks, so the per-chunk harvest power
                # is *exactly* constant — no midpoint sampling error.
                # Other modes run the interval as one chunk.
                if mode == HARVEST_TRACE:
                    chunk_cap = h_pieces + 4
                else:
                    chunk_cap = 1
                for _chunk in range(chunk_cap):
                    int_rem = np.where(alive, int_rem, 0.0)
                    if not (int_rem > 0.0).any():
                        break
                    if mode == HARVEST_NONE:
                        p_h = 0.0
                        rem = int_rem
                    elif mode == HARVEST_CONST:
                        p_h = bank.harvest_power
                        rem = int_rem
                    elif mode == HARVEST_TRACE:
                        idx = np.clip(
                            np.searchsorted(h_edges, time,
                                            side="right") - 1,
                            0, hp_last)
                        to_edge = h_edges[idx + 1] - time
                        # a lane an ulp short of its edge joins the next
                        # piece (the sliver is below every tolerance);
                        # past the recording the last power holds with
                        # no further edges
                        bump = (idx < hp_last) & (to_edge <= 1e-9)
                        idx = np.where(bump, idx + 1, idx)
                        to_edge = np.where(bump, h_edges[idx + 1] - time,
                                           to_edge)
                        p_h = h_powers[h_rows, idx]
                        to_edge = np.where(to_edge <= 0.0, np.inf, to_edge)
                        rem = np.minimum(int_rem, to_edge)
                    else:  # HARVEST_SOLAR
                        p_h = bank.harvest_power * np.maximum(
                            0.0, np.sin(bank.harvest_omega
                                        * (time + 0.5 * dur_k)
                                        + bank.harvest_phase))
                        rem = int_rem
                    chunk = rem
                    for split in range(MAX_SPLITS):
                        live = rem > 0.0
                        if not live.any():
                            break
                        # pinned-at-V_max regime: lanes sitting exactly on
                        # the rail (the rail-hit commit below snaps them
                        # there) hold at the rail for their remainder when
                        # the harvester can supply the draw plus the branch
                        # inrush. pin_required is monotone non-increasing
                        # within a constant-current interval, so a feasible
                        # pin at the cut stays feasible to the interval end.
                        at_rail = live & (vt == v_max_in)
                        unpinned = no_hits
                        if at_rail.any():
                            # the rail is at/above V_high, so a lane parked
                            # there has its monitor on (inclusive hysteresis)
                            enabled = enabled | at_rail
                            drawing = at_rail & (i_out_k > 0.0)
                            i_in_pin = bank.load_current(
                                vt, i_out_k * bank.v_out, drawing)
                            avail = pin_available(bank, v_max_in, p_h)
                            v_main_c, v_red_c = bank.from_modes(vbar, d)
                            req = pin_required(bank, v_max_in, v_main_c,
                                               v_red_c, i_in_pin)
                            pinned = at_rail & (req <= avail)
                            # a lane at the rail whose pin is rejected falls
                            # off it immediately — the charger stays on for
                            # its interval
                            unpinned = at_rail & ~pinned
                            if pinned.any():
                                hold = np.where(pinned, rem, 0.0)
                                v_main_p, v_red_p = pinned_step(
                                    bank, v_max_in, v_main_c, v_red_c, hold)
                                vbar_p, d_p = bank.to_modes(v_main_p, v_red_p)
                                vbar = np.where(pinned, vbar_p, vbar)
                                d = np.where(pinned, d_p, d)
                                energy = np.where(
                                    pinned,
                                    energy + i_in_pin * v_max_in * hold,
                                    energy)
                                time = np.where(pinned, time + hold, time)
                                steps += int(np.count_nonzero(pinned))
                                rem = np.where(pinned, 0.0, rem)
                                live = rem > 0.0
                                if not live.any():
                                    break
                        drawing = live & enabled & (i_out_k > 0.0)
                        below_rail = vt < v_max_in
                        allow = below_rail | unpinned
                        out = interval_step(bank, vbar, d, vt, i_out_k, p_h,
                                            drawing, allow, rem)
                        rem_safe = np.where(live, rem, 1.0)
                        lo, hi = interval_extrema(
                            vt, out["vt1"], out["vs_c0"], out["slope"],
                            out["T"], tau_safe, cd_pos, rem_safe)
                        # hover backstop: a pin-rejected lane whose free
                        # solve still rises off the rail has no event left
                        # to cap it — the true trajectory hovers a hair
                        # below V_max while the branches absorb the
                        # surplus, so its remainder commits as a pinned
                        # hold at the rail.
                        # A falling solve leaves hi == V_max exactly (the
                        # start point is the max) and departs normally.
                        hover = unpinned & live & (hi > v_max_in)
                        if hover.any():
                            hold = np.where(hover, rem, 0.0)
                            v_main_h, v_red_h = pinned_step(
                                bank, v_max_in, v_main_c, v_red_c, hold)
                            vbar_h, d_h = bank.to_modes(v_main_h, v_red_h)
                            vbar = np.where(hover, vbar_h, vbar)
                            d = np.where(hover, d_h, d)
                            energy = np.where(
                                hover,
                                energy + i_in_pin * v_max_in * hold,
                                energy)
                            time = np.where(hover, time + hold, time)
                            steps += int(np.count_nonzero(hover))
                            rem = np.where(hover, 0.0, rem)
                            live = rem > 0.0
                            if not live.any():
                                break
                        # regime boundaries inside the interval (upward
                        # monitor-on inclusive, everything else strict)
                        if split < MAX_SPLITS - 1:
                            hit_off = live & enabled & (lo < v_off)
                            hit_on = live & ~enabled & (hi >= v_high)
                            hit_rail = live & allow & below_rail \
                                & (hi > v_max_in)
                            # resume: decaying from above the rail across
                            # V_max re-arms the charger (and the pin check)
                            hit_res = live & ~allow & (vt > v_max_in) \
                                & (lo < v_max_in)
                            hit_brn = (live & (lo < stop_level)) if stopping \
                                else no_hits
                        else:  # unreachable backstop: commit unconditionally
                            hit_off = hit_on = hit_rail = hit_res = hit_brn \
                                = no_hits
                        steps += int(np.count_nonzero(live))
                        if not (hit_off.any() or hit_on.any() or hit_rail.any()
                                or hit_res.any() or hit_brn.any()):
                            # common path: full commit straight from the solve
                            energy = np.where(
                                live,
                                energy + out["i_in"] * out["vt_avg"] * rem,
                                energy)
                            v_min = np.where(live, np.minimum(v_min, lo), v_min)
                            time = np.where(live, time + rem, time)
                            vbar = np.where(live, out["vbar1"], vbar)
                            d = np.where(live, out["d1"], d)
                            vt = np.where(live, out["vt1"], vt)
                            break
                        # earliest crossing per device
                        x = out["slope"] * tau_safe / np.where(
                            out["T"] != 0.0, out["T"], 1.0)
                        interior = cd_pos & (out["T"] * out["slope"] > 0.0) \
                            & (x < 1.0) & (x > np.exp(-rem_safe / tau_safe))
                        t_star = np.where(
                            interior,
                            -tau_safe * np.log(np.where(interior, x, 1.0)),
                            rem_safe)
                        t_off = _first_cross(hit_off, v_off, True, out,
                                             rem_safe, t_star, tau_safe, cd_pos)
                        t_on = _first_cross(hit_on, v_high, False, out,
                                            rem_safe, t_star, tau_safe, cd_pos)
                        t_rail = _first_cross(hit_rail, v_max_in, False, out,
                                              rem_safe, t_star, tau_safe,
                                              cd_pos)
                        t_res = _first_cross(hit_res, v_max_in, True, out,
                                             rem_safe, t_star, tau_safe,
                                             cd_pos)
                        t_brn = _first_cross(hit_brn, stop_level, True, out,
                                             rem_safe, t_star, tau_safe,
                                             cd_pos) if stopping else inf
                        t_evt = np.minimum(np.minimum(t_off, t_on),
                                           np.minimum(np.minimum(t_rail, t_res),
                                                      t_brn))
                        crossed = np.isfinite(t_evt)
                        events += int(np.count_nonzero(crossed))
                        t_cut = np.where(live,
                                         np.where(crossed, t_evt, rem), 0.0)
                        t_pos = t_cut > 0.0
                        # state along the solved curve at the cut; uncrossed
                        # lanes take the solver's own end state exactly
                        vt_c, avg_c = _curve_at(bank, out, vt, t_cut, t_pos)
                        vt_c = np.where(crossed, vt_c, out["vt1"])
                        avg_c = np.where(crossed, avg_c, out["vt_avg"])
                        vbar_c, d_c = _ledger_at(bank, out, vbar, d, vt, vt_c,
                                                 t_cut)
                        vbar_c = np.where(crossed, vbar_c, out["vbar1"])
                        d_c = np.where(crossed, d_c, out["d1"])
                        lo_c, _hi_c = interval_extrema(
                            vt, vt_c, out["vs_c0"], out["slope"], out["T"],
                            tau_safe, cd_pos, np.where(t_pos, t_cut, 1.0))
                        lo_c = np.where(t_pos, lo_c, vt)
                        # which flags fire at the cut (ties fire together —
                        # v_high == v_max_in flips the monitor on and gates
                        # the charger off in the same commit)
                        f_off = hit_off & (t_off <= t_evt)
                        f_on = hit_on & (t_on <= t_evt)
                        f_rail = hit_rail & (t_rail <= t_evt)
                        f_res = hit_res & (t_res <= t_evt)
                        f_brn = hit_brn & (t_brn <= t_evt)
                        energy = np.where(
                            live, energy + out["i_in"] * avg_c * t_cut, energy)
                        v_min = np.where(live, np.minimum(v_min, lo_c), v_min)
                        time = np.where(live, time + t_cut, time)
                        vbar = np.where(live, vbar_c, vbar)
                        d = np.where(live, d_c, d)
                        vt = np.where(live, vt_c, vt)
                        # snap the rail exactly so the charge gate flips
                        # cleanly next split (bisection lands within an ulp)
                        vt = np.where((f_rail | f_res) & ~f_brn, v_max_in, vt)
                        enabled = np.where(f_off, False, enabled)
                        enabled = np.where(f_on, True, enabled)
                        if stopping and f_brn.any():
                            brown = np.where(f_brn, time, brown)
                            alive = alive & ~f_brn
                        rem = np.where(live, rem - t_cut, 0.0)
                        rem = np.where(f_brn, 0.0, rem)
                    int_rem = np.maximum(int_rem - chunk, 0.0)
            if recorder is not None:
                v_main_c, v_red_c = bank.from_modes(vbar, d)
                state.v_term = vt
                state.v_main = v_main_c
                state.v_redist = v_red_c
                state.time = time
                state.v_min = v_min
                state.energy = energy
                recorder.capture(state)
            k0 = int(k1)

    v_main_f, v_red_f = bank.from_modes(vbar, d)
    state.v_main = v_main_f
    state.v_redist = v_red_f
    state.v_term = vt
    state.time = time
    state.v_min = v_min
    state.energy = energy
    state.enabled = enabled
    if active is None:
        state.alive = alive
    else:
        state.alive = np.where(active, alive, state.alive)
    state.device_steps += steps
    if obs is not None:
        obs.metrics.counter("segalg.events_advanced").inc(events)
        obs.metrics.histogram("segalg.events_per_advance",
                              EVENT_COUNT_BUCKETS).observe(events)
    return brown


__all__ = ["MAX_SPLITS", "advance_fleet"]
