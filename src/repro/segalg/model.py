"""Bank model: the closed-form constants of the two-branch charge model.

The stepping engines integrate the paper's storage bank numerically; this
module hoists the same component parameters once and derives the
constants of the *analytic* solution the segment-algebra core advances
with. The bank's linear ODE system

.. math::

    C_{dec}\\,\\dot v_t = (v_m - v_t)/R_{esr} + (v_r - v_t)/R_{red} - i_{ext}

    C_{main}\\,\\dot v_m = -(v_m - v_t)/R_{esr} - i_{leak}

    C_{red}\\,\\dot v_r = -(v_r - v_t)/R_{red}

diagonalizes (after quasi-statically eliminating the fast terminal node)
into three closed-form coordinates per constant-current interval:

* the **charge ledger** ``u = Q_total / C_total`` — exactly linear in
  time, since total stored charge only changes through the external
  current and leakage;
* the **redistribution mode** ``d = v_m - v_r`` — a single exponential
  with time constant ``tau_r`` toward ``d_eq(i)``;
* the **terminal transient** ``v_t - v_star`` — a fast exponential with
  time constant ``tau = C_dec / g`` toward the quasi-static terminal
  voltage ``v_star = vbar + kappa*d - i_ext/g``.

Per-device quantities are numpy arrays over the fleet batch (a single
device is a batch of one); the algebra in :mod:`repro.segalg.core`
broadcasts over them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Derated efficiency floor, matching OutputBooster.input_current.
DERATING_FLOOR = 0.30

#: Input-booster low-voltage clamp, matching InputBooster.charge_current.
V_CLAMP = 0.1

# Harvest sampling modes (compile-time property of an advance call).
HARVEST_NONE = 0
HARVEST_CONST = 1
HARVEST_SOLAR = 2
HARVEST_TRACE = 3


class _Eta:
    """An efficiency curve in analytic form.

    Parameters may be floats or per-device arrays (only ``base``/
    ``intercept`` varies across a fleet; the shape is shared).
    """

    def __init__(self, kind: str, p0, p1, p2, v_ref, floor, ceiling):
        self.kind = kind  # "linear" | "curved"
        self.p0 = p0      # intercept / base
        self.p1 = p1      # slope
        self.p2 = p2      # curvature (curved only)
        self.v_ref = v_ref
        self.floor = floor
        self.ceiling = ceiling

    def eval(self, v):
        """Efficiency at ``v``, clipped to the ``[floor, ceiling]`` window."""
        if self.kind == "linear":
            raw = self.p0 + self.p1 * v
        else:
            dv = v - self.v_ref
            raw = self.p0 + self.p1 * dv - self.p2 * dv * dv
        return np.minimum(self.ceiling, np.maximum(self.floor, raw))


class Bank:
    """Hoisted component parameters + derived closed-form constants.

    Per-device parameters are arrays over the fleet batch. The
    degenerate two-branch configurations — no redistribution branch, no
    decoupling capacitor — are encoded with per-device flags and "safe"
    denominators so the algebra stays division-safe under broadcasting.
    """

    # -- constructors -------------------------------------------------------

    def __init__(self) -> None:
        self.harvest_mode = HARVEST_NONE
        self.harvest_power = 0.0
        self.harvest_omega = 0.0
        self.harvest_phase = 0.0
        # HARVEST_TRACE only: shared piece edges (1-D, starts at 0) and
        # per-device piece powers ([devices, pieces]).
        self.harvest_edges: Optional[np.ndarray] = None
        self.harvest_powers: Optional[np.ndarray] = None

    @classmethod
    def from_fleet_state(cls, state, harvesting: bool) -> "Bank":
        """Hoist a :class:`repro.fleet.kernel.FleetState` batch."""
        params = state.params
        spec = params.spec
        bank = cls()
        bank._derive_two_branch(
            c_main=params.c_main, r_esr=params.r_esr, c_red=params.c_redist,
            r_red=params.r_redist, c_dec=params.c_decoupling,
            leak=params.leakage)
        bank.v_out = spec.v_out
        bank.min_vin = 0.5
        bank.derating = 0.6
        # Per-device efficiency base, shared curve shape — the exact
        # arrays the stepping fleet engine packs.
        bank.eta_out = _Eta(
            "curved", params.eta_base, state._eta_slope,  # noqa: SLF001
            state._eta_curvature, state._eta_v_ref,       # noqa: SLF001
            state._eta_floor, state._eta_ceiling)         # noqa: SLF001
        bank.v_max_in = spec.v_high
        bank.eta_in = _Eta("linear", state._eta_in, 0.0, 0.0,  # noqa: SLF001
                           0.0, 0.0, 1.0)
        bank.v_off = spec.v_off
        bank.v_high = spec.v_high
        if not harvesting:
            bank.harvest_mode = HARVEST_NONE
        elif params.harvest_edges is not None:
            # Environment replay: shared piece edges, per-device power
            # columns ([devices, pieces]). harvest_power carries the
            # fleet-wide max for conservative compile-time bounds.
            bank.harvest_mode = HARVEST_TRACE
            bank.harvest_edges = params.harvest_edges
            bank.harvest_powers = params.harvest_powers
            bank.harvest_power = float(np.max(params.harvest_powers))
        elif spec.harvest_period <= 0:
            bank.harvest_mode = HARVEST_CONST
            bank.harvest_power = params.p_harvest
        else:
            bank.harvest_mode = HARVEST_SOLAR
            bank.harvest_power = params.p_harvest
            bank.harvest_omega = 2.0 * np.pi / spec.harvest_period
            bank.harvest_phase = params.phase
        return bank

    def _derive_two_branch(self, c_main, r_esr, c_red, r_red, c_dec,
                           leak) -> None:
        self.c_main = c_main
        self.r_esr = r_esr
        self.c_red = c_red
        self.r_red = r_red
        self.c_dec = c_dec
        self.leak = leak
        has_red = (c_red > 0) & np.isfinite(r_red)
        cd_pos = c_dec > 0
        self.has_red = has_red
        self.cd_pos = cd_pos
        rr = np.where(has_red, r_red, 1.0)
        cr = np.where(has_red, c_red, 1.0)
        self.rr_safe = rr
        self.cr_safe = cr
        g = 1.0 / r_esr + np.where(has_red, 1.0 / rr, 0.0)
        self.g = g
        c_s = c_main + np.where(has_red, c_red, 0.0)
        self.c_s = c_s
        self.c_tot = c_s + c_dec
        # terminal transient
        self.tau = np.where(cd_pos, c_dec / g, 0.0)
        self.tau_safe = np.where(cd_pos, c_dec / g, 1.0)
        # redistribution mode: d = v_main - v_redist relaxes with tau_r
        inv_tau_r = np.where(
            has_red,
            (1.0 / (g * r_esr * rr)) * (1.0 / c_main + 1.0 / cr),
            0.0)
        self.inv_tau_r = inv_tau_r
        tau_r = np.where(has_red, 1.0 / np.where(has_red, inv_tau_r, 1.0),
                         1.0)
        self.tau_r_safe = tau_r
        a = (1.0 / r_esr) / g
        b = np.where(has_red, (1.0 / rr) / g, 0.0)
        self.kappa = np.where(has_red, (a * c_red - b * c_main) / c_s, 0.0)
        # d_eq = deq_coef * i_ext + deq_leak
        self.deq_coef = np.where(
            has_red,
            -(1.0 / (r_esr * c_main) - 1.0 / (rr * cr)) * tau_r / g,
            0.0)
        self.deq_leak = np.where(has_red, -(leak / c_main) * tau_r, 0.0)

    # -- current models -----------------------------------------------------

    def load_current(self, v, p_out, drawing):
        """Output-booster draw at terminal voltage ``v``.

        Mirrors ``OutputBooster.input_current``, broadcast over arrays.
        ``drawing`` gates the draw (monitor-enabled and loaded).
        """
        v_in = np.maximum(v, self.min_vin)
        eta = self.eta_out.eval(v_in)
        if np.ndim(p_out) > 0 or p_out > 0.0:
            if self.derating > 0.0:
                derated = eta - self.derating * p_out
                apply = p_out > 0.0
                eta = np.where(apply, np.maximum(derated, DERATING_FLOOR),
                               eta)
        return np.where(drawing, p_out / eta / v_in, 0.0)

    def charge_current(self, v, p_h, allow):
        """Input-booster charge at terminal voltage ``v``.

        ``allow`` is the *regime* gate (harvesting on and the lane is in
        the charging regime); the ``v >= v_max_in`` cutoff is NOT applied
        here — crossing V_max is an event, handled by the driver, so the
        currents stay smooth within an interval.
        """
        v_clamp = np.maximum(v, V_CLAMP)
        i_raw = p_h * self.eta_in.eval(v_clamp) / v_clamp
        return np.where(allow & (p_h > 0.0), i_raw, 0.0)

    # -- state conversions --------------------------------------------------

    def to_modes(self, v_main, v_red):
        """(v_main, v_redist) -> (vbar, d) mode coordinates."""
        vbar = (self.c_main * v_main
                + np.where(self.has_red, self.c_red * v_red, 0.0)) / self.c_s
        d = np.where(self.has_red, v_main - v_red, 0.0)
        return vbar, d

    def from_modes(self, vbar, d):
        """(vbar, d) -> (v_main, v_redist), clamped at zero like stepping."""
        v_main = vbar + np.where(self.has_red, self.c_red / self.c_s, 0.0) * d
        v_red = np.where(self.has_red,
                         vbar - (self.c_main / self.c_s) * d, vbar)
        v_main = np.maximum(v_main, 0.0)
        v_red = np.maximum(v_red, 0.0)
        return v_main, v_red


def bound_current(bank: Bank, i_out: float) -> float:
    """A magnitude bound on the external current for a segment.

    Used by program compilation to size interval subdivisions. The bound
    is the worst-case booster draw at the brown-out rail (lowest useful
    operating voltage → highest draw) plus the worst-case harvest charge
    at the same rail — conservative for any reachable trajectory the
    tolerances care about. Evaluated at the batch's worst case (highest
    draw and harvest charge over its lanes), so one bound covers every
    lane.
    """
    v_ref = max(float(np.min(np.asarray(bank.v_off))), 2.0 * V_CLAMP)
    i_load = 0.0
    if i_out > 0.0:
        p_out = i_out * float(np.max(np.asarray(bank.v_out)))
        eta = float(np.min(np.asarray(bank.eta_out.eval(v_ref))))
        if bank.derating > 0.0:
            eta = max(DERATING_FLOOR, eta - bank.derating * p_out)
        i_load = p_out / eta / max(v_ref, bank.min_vin)
    p_h = 0.0
    if bank.harvest_mode in (HARVEST_CONST, HARVEST_SOLAR):
        p_h = float(np.max(np.asarray(bank.harvest_power)))
    elif bank.harvest_mode == HARVEST_TRACE:
        p_h = float(np.max(bank.harvest_powers))
    eta_in = bank.eta_in.eval(v_ref)
    i_chg = p_h * float(np.max(np.asarray(eta_in))) / v_ref
    return i_load + i_chg


__all__ = [
    "Bank",
    "DERATING_FLOOR",
    "HARVEST_CONST",
    "HARVEST_NONE",
    "HARVEST_SOLAR",
    "HARVEST_TRACE",
    "V_CLAMP",
    "bound_current",
]
