"""Closed-form advance primitives of the segment-algebra core.

Everything here is pure math over float64 arrays: no component objects,
no simulator state. The fleet vector path (:mod:`repro.segalg.vector`)
advances one interval at a time across all devices with
:func:`interval_step`, a per-interval Picard iteration vectorized
across devices: booster currents evaluated at the interval's exact
average terminal voltage, states advanced by the exact constant-current
closed forms.

The event helpers (:func:`interval_extrema`, :func:`crossing_time`,
the pinned-at-V_max regime) define event *semantics*: a crossing is
"the continuous trajectory reaches the level", located by bisection on
the analytic interval curve.
"""

from __future__ import annotations

import numpy as np

from repro.segalg.model import Bank, V_CLAMP

#: Per-interval Picard tolerance. A few tens of ulps at operating
#: voltages — tight enough that a fleet lane and the same device run
#: alone agree orders of magnitude inside the differential tolerances,
#: loose enough that the iteration does not chase float noise around
#: the fixed point.
STEP_TOL = 1e-11

#: Bisection iterations for crossing times: 2^-60 of an interval is far
#: below T_TOL for any physical interval length.
CROSS_ITERS = 60


def interval_step(bank: Bank, vbar0, d0, vt0, i_out_total, p_h, drawing,
                  charging, dur, tol: float = STEP_TOL,
                  max_iter: int = 60):
    """Advance one constant-current interval per device, in closed form.

    All arguments broadcast over the fleet's per-device arrays. ``dur``
    may be zero for masked devices — they come back unchanged. Iterates
    the booster currents against the exact closed forms until the
    average terminal voltage is fixed to ``tol``, with an elementwise
    Steffensen extrapolation every third pass, since the iteration map
    is affine in the currents to first order.

    When every device shares the full branch structure (has_red and
    cd_pos everywhere — true for any capybara-derived fleet) the body
    runs a mask-free fast path; degenerate mixes fall back to masked
    selects.

    Returns a dict of end states and curve parameters (for extrema /
    crossing queries): ``vbar1, d1, vt1, vt_avg, vs_c0, slope, T, i_in,
    i_ext``.
    """
    p_out = i_out_total * bank.v_out
    dur = np.asarray(dur, dtype=np.float64)
    live = dur > 0.0
    all_live = bool(live.all())
    any_live = all_live or bool(live.any())
    dur_safe = dur if all_live else np.where(live, dur, 1.0)
    cd_pos = bank.cd_pos
    has_red = bank.has_red
    uniform = bool(np.all(cd_pos)) and bool(np.all(has_red))
    if uniform:
        ratio = dur / bank.tau_safe
        alpha = np.exp(-ratio)
        one_m_alpha = -np.expm1(-ratio)
        avg_f = np.where(ratio > 0.0,
                         one_m_alpha / np.where(ratio > 0.0, ratio, 1.0),
                         1.0)
        beta = np.exp(-dur * bank.inv_tau_r)
        s_base = vbar0 + bank.kappa * d0
    else:
        ratio = np.where(cd_pos, dur / bank.tau_safe, 0.0)
        alpha = np.where(cd_pos, np.exp(-np.where(cd_pos, ratio, 0.0)),
                         0.0)
        one_m_alpha = np.where(cd_pos, -np.expm1(-ratio), 1.0)
        avg_f = np.where(ratio > 0.0, one_m_alpha / np.where(
            ratio > 0.0, ratio, 1.0), 1.0)
        beta = np.where(has_red, np.exp(-dur * bank.inv_tau_r), 1.0)

    v_g = np.asarray(vt0, dtype=np.float64) + np.zeros_like(dur)
    vt1_g = v_g.copy()
    v_pp = t_pp = None  # pre-previous iterates (Steffensen history)
    for _ in range(max_iter):
        i_in = bank.load_current(v_g, p_out, drawing)
        i_chg = bank.charge_current(v_g, p_h, charging)
        i_ext = i_in - i_chg
        i_led = i_ext + bank.leak
        if uniform:
            vbar1 = vbar0 - (i_led * dur
                             + bank.c_dec * (vt1_g - vt0)) / bank.c_s
            d_eq = bank.deq_coef * i_ext + bank.deq_leak
            d1 = d_eq + (d0 - d_eq) * beta
            sag = i_ext / bank.g
            vs0 = s_base - sag
            vs1 = vbar1 + bank.kappa * d1 - sag
            slope = (vs1 - vs0) / dur_safe
            ts = bank.tau * slope
            vs_c0 = vs0 - ts
            vs_c1 = vs1 - ts
            T = vt0 - vs_c0
            vt1 = vs_c1 + T * alpha
            vt_avg = 0.5 * (vs_c0 + vs_c1) + T * avg_f
        else:
            vbar1 = vbar0 + (-i_led * dur
                             - bank.c_dec * (vt1_g - vt0)) / bank.c_s
            d_eq = bank.deq_coef * i_ext + bank.deq_leak
            d1 = np.where(has_red, d_eq + (d0 - d_eq) * beta, 0.0)
            vs0 = vbar0 + bank.kappa * d0 - i_ext / bank.g
            vs1 = vbar1 + bank.kappa * d1 - i_ext / bank.g
            slope = (vs1 - vs0) / dur_safe
            vs_c0_t = vs0 - bank.tau * slope
            vs_c1 = vs1 - bank.tau * slope
            T = np.where(cd_pos, vt0 - vs_c0_t, 0.0)
            vt1 = np.where(cd_pos, vs_c1 + T * alpha, vs1)
            vt_avg = np.where(cd_pos,
                              0.5 * (vs_c0_t + vs_c1) + T * avg_f,
                              0.5 * (vs0 + vs1))
            vs_c0 = np.where(cd_pos, vs_c0_t, vs0)
        if all_live:
            v_new = vt_avg
            t_new = vt1
        else:
            v_new = np.where(live, vt_avg, v_g)
            t_new = np.where(live, vt1, vt1_g)
        delta = float(np.max(np.maximum(np.abs(v_new - v_g),
                                        np.abs(t_new - vt1_g)))) \
            if any_live else 0.0
        if delta < tol:
            v_g = v_new
            vt1_g = t_new
            break
        if v_pp is not None:
            # Steffensen: two successive deltas give the local linear
            # rate; jump to the extrapolated fixed point, then rebuild
            # history from fresh evaluations.
            dv2 = v_new - v_g
            dv1 = v_g - v_pp
            den_v = dv2 - dv1
            ok_v = np.abs(den_v) > 1e-30
            v_new = np.where(ok_v,
                             v_new - dv2 * dv2 / np.where(ok_v, den_v, 1.0),
                             v_new)
            dt2 = t_new - vt1_g
            dt1 = vt1_g - t_pp
            den_t = dt2 - dt1
            ok_t = np.abs(den_t) > 1e-30
            t_new = np.where(ok_t,
                             t_new - dt2 * dt2 / np.where(ok_t, den_t, 1.0),
                             t_new)
            if not all_live:
                v_new = np.where(live, v_new, v_g)
                t_new = np.where(live, t_new, vt1_g)
            v_pp = t_pp = None
        else:
            v_pp = v_g
            t_pp = vt1_g
        v_g = v_new
        vt1_g = t_new
    out = dict(vbar1=vbar1, d1=d1, vt1=vt1, vt_avg=vt_avg, vs_c0=vs_c0,
               slope=slope, T=T, i_in=i_in, i_ext=i_ext)
    # masked (dur == 0) devices pass through unchanged
    if not all_live:
        frozen = ~live
        z = np.zeros_like(dur)
        base_vbar = np.asarray(vbar0) + z
        base_d = np.asarray(d0) + z
        base_vt = np.asarray(vt0) + z
        out["vbar1"] = np.where(frozen, base_vbar, out["vbar1"])
        out["d1"] = np.where(frozen, base_d, out["d1"])
        out["vt1"] = np.where(frozen, base_vt, out["vt1"])
        out["vt_avg"] = np.where(frozen, base_vt, out["vt_avg"])
        out["i_in"] = np.where(frozen, 0.0, out["i_in"])
        out["i_ext"] = np.where(frozen, 0.0, out["i_ext"])
    return out


def interval_extrema(v0, v1, vs_c0, slope, T, tau_safe, cd_mask, dur):
    """Continuous min/max of ``v(t) = vs_c0 + slope t + T e^{-t/tau}``.

    The curve has at most one interior stationary point — where the
    decaying transient's rate equals the drift — so the extrema are the
    endpoints plus, when ``e^{-dur/tau} < slope*tau/T < 1``, that single
    interior value. This is what makes event detection watertight: a
    transient dip below a threshold that recovers by the interval end
    (step-on load under strong harvest) still flags.
    """
    lo = np.minimum(v0, v1)
    hi = np.maximum(v0, v1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = slope * tau_safe / np.where(T != 0.0, T, 1.0)
        interior = cd_mask & (T * slope > 0.0) & (x < 1.0) \
            & (x > np.exp(-dur / tau_safe))
        t_star = -tau_safe * np.log(np.where(interior, x, 1.0))
        v_at = vs_c0 + slope * t_star + T * x
    lo = np.where(interior, np.minimum(lo, v_at), lo)
    hi = np.where(interior, np.maximum(hi, v_at), hi)
    return lo, hi


def crossing_time(level, vs_c0, slope, T, tau_safe, cd_mask, hi,
                  iters: int = CROSS_ITERS):
    """First ``t`` in ``(0, hi]`` where the curve reaches ``level``.

    Bisection on the analytic curve, vectorized across devices. The
    caller guarantees a crossing exists in the bracket; ``hi`` is
    the interval end, or the interior stationary time when the crossing
    is a transient dip that recovers.
    """
    hi = np.asarray(hi, dtype=np.float64).copy()
    lo = np.zeros_like(hi)
    v0 = vs_c0 + np.where(cd_mask, T, 0.0)
    above0 = v0 > level
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        vm = vs_c0 + slope * mid + np.where(
            cd_mask, T * np.exp(-mid / tau_safe), 0.0)
        same = (vm > level) == above0
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


# -- pinned-at-V_max regime --------------------------------------------------

def pin_available(bank: Bank, v_pin, p_h):
    """Max charge current the input booster can deliver at the pin rail."""
    v_clamp = np.maximum(v_pin, V_CLAMP)
    return p_h * bank.eta_in.eval(v_clamp) / v_clamp


def pin_required(bank: Bank, v_pin, v_main0, v_red0, i_in):
    """Charge current needed *right now* to hold the terminal at the pin.

    ``i_in + leak`` plus the branch inrush; the inrush decays as the
    branches charge toward the rail, so within a constant-current
    interval the requirement is monotone non-increasing — if the pin
    holds at the interval start it holds to the end, and regime checks
    only ever happen at interval boundaries.
    """
    a_in = (v_pin - bank.leak * bank.r_esr - v_main0) / bank.r_esr
    b_in = np.where(bank.has_red, (v_pin - v_red0) / bank.rr_safe, 0.0)
    return i_in + bank.leak + a_in + b_in


def pinned_step(bank: Bank, v_pin, v_main0, v_red0, dur):
    """Branch relaxation over ``dur`` with the terminal held at ``v_pin``.

    Each branch sees a fixed rail through its own resistance, so both
    relax as single exponentials; the main branch equilibrates
    ``leak * R_esr`` below the rail.
    """
    v_eq_m = v_pin - bank.leak * bank.r_esr
    v_main1 = v_eq_m + (v_main0 - v_eq_m) * np.exp(
        -dur / (bank.r_esr * bank.c_main))
    v_red1 = np.where(
        bank.has_red,
        v_pin + (v_red0 - v_pin) * np.exp(
            -dur / (bank.rr_safe * bank.cr_safe)),
        v_red0)
    return v_main1, v_red1


__all__ = [
    "CROSS_ITERS",
    "STEP_TOL",
    "crossing_time",
    "interval_extrema",
    "interval_step",
    "pin_available",
    "pin_required",
    "pinned_step",
]
