"""Ground-truth V_safe via brute-force binary search (paper §VI-A).

The paper's test harness "charges the supercapacitor bank to V_high,
disables the charging circuit, discharges the capacitor to the V_safe value,
and then applies a load profile", repeating with a binary search until the
minimum voltage during the run lands within 5 mV of V_off. We reproduce the
procedure against the simulated power system: every trial starts from a
*rested* buffer at the candidate voltage with harvesting disabled — the
worst case the V_safe contract must cover.

The convergence tolerance is a parameter (the paper uses 5 mV; the default
here is tighter because simulation repeats are free), and the result
distinguishes three outcomes callers previously could not tell apart:

* **converged** — the bracket closed to within ``tolerance``;
* **iteration-capped** — ``max_iterations`` ran out first (``feasible`` but
  not ``converged``; ``v_safe`` is still a certified-complete voltage);
* **infeasible** — the load cannot complete even from ``V_high``, so no
  V_safe exists on this power system at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.loads.trace import CurrentTrace
from repro.power.system import PowerSystem
from repro.sim.engine import PowerSystemSimulator, SimulationResult

#: Convergence tolerance of the paper's bench procedure (5 mV, §VI-A).
PAPER_TOLERANCE = 0.005


@dataclass(frozen=True)
class GroundTruth:
    """Result of a ground-truth search for one load."""

    v_safe: float
    v_min_at_vsafe: float
    iterations: int
    feasible: bool
    converged: bool = True
    tolerance: float = 0.002

    def margin_above_off(self, v_off: float) -> float:
        """How close the certified run's minimum sits to the threshold."""
        return self.v_min_at_vsafe - v_off


def attempt_load(system: PowerSystem, trace: CurrentTrace,
                 v_start: float, *, settle_after: float = 0.0,
                 harvesting: bool = False) -> SimulationResult:
    """Run ``trace`` once from a rested buffer at ``v_start``.

    Operates on a copy — the caller's system is untouched.
    """
    trial = system.copy()
    trial.rest_at(v_start)
    sim = PowerSystemSimulator(trial)
    return sim.run_trace(trace, harvesting=harvesting,
                         settle_after=settle_after)


def find_true_vsafe(system: PowerSystem, trace: CurrentTrace, *,
                    tolerance: float = 0.002,
                    max_iterations: int = 40) -> GroundTruth:
    """Binary-search the minimum rest voltage from which ``trace`` completes.

    Search brackets: the load must fail from ``V_off`` (trivially — the
    booster cuts out immediately on any draw) and is checked from
    ``V_high``; if it cannot complete even from a full buffer the load is
    infeasible on this power system and the result says so (``feasible``
    False, ``converged`` False, ``v_safe`` NaN, ``iterations`` counting the
    one attempt actually made).

    The returned ``v_safe`` is the *upper* end of the final bracket, i.e. a
    voltage from which the run was actually observed to complete; the true
    boundary lies within ``tolerance`` below it. ``converged`` reports
    whether the bracket actually closed to ``tolerance`` or the iteration
    cap stopped the search first — callers previously could not tell a
    converged-at-floor result from an exhausted one.
    """
    if not 0 < tolerance < math.inf:
        # (with a NaN or infinite one the bisection never runs and the
        # "truth" is V_high)
        raise ValueError(
            f"tolerance must be positive and finite, got {tolerance}")
    if max_iterations < 1:
        raise ValueError(
            f"max_iterations must be >= 1, got {max_iterations}"
        )
    v_off = system.monitor.v_off
    v_high = system.monitor.v_high

    top = attempt_load(system, trace, v_high)
    if not top.completed:
        return GroundTruth(v_safe=float("nan"), v_min_at_vsafe=top.v_min,
                           iterations=1, feasible=False, converged=False,
                           tolerance=tolerance)

    lo, hi = v_off, v_high
    hi_vmin = top.v_min
    iterations = 1
    while hi - lo > tolerance and iterations < max_iterations:
        mid = 0.5 * (lo + hi)
        result = attempt_load(system, trace, mid)
        iterations += 1
        if result.completed:
            hi = mid
            hi_vmin = result.v_min
        else:
            lo = mid
    return GroundTruth(v_safe=hi, v_min_at_vsafe=hi_vmin,
                       iterations=iterations, feasible=True,
                       converged=hi - lo <= tolerance,
                       tolerance=tolerance)
