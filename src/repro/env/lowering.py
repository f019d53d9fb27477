"""Lower an environment model + MPPT front-end into a harvest trace.

The contract that makes the rest of the stack exact: the lowered
:class:`~repro.power.harvester.TraceHarvester` carries every model
breakpoint as a piece edge **verbatim** — the same float the model
reported, not a rounded neighbour — so step discontinuities (cloud
edges, kinetic bursts) land on trace edges, trace edges land on
simulation-step clamps and segment-algebra chunk boundaries, and no
engine ever integrates through a discontinuity.

Between breakpoints the profile is smooth and the trace approximates it
by **adaptive bisection**: an interval is split while its quarter-point
powers disagree with its midpoint power by more than ``tol`` of the
full-sun maximum power (or while it is longer than ``max_dt``), down to
a ``min_dt`` floor. Each surviving interval becomes one piece holding
its midpoint power, so the trace's energy converges to the model's as
the tolerance tightens — piecewise-constant models (kinetic burst) are
reproduced *exactly*.

Stateful front-ends (perturb-and-observe) cannot be sampled out of
order, so they skip refinement: the grid is the union of the model
breakpoints and a uniform ``sample_dt`` lattice, walked left to right
with one tracker sample per piece (observed at the piece start).
"""

from __future__ import annotations

from typing import Callable, List

import numpy as np

from repro.obs import current as _obs_current
from repro.power.harvester import TraceHarvester

#: Refinement floor (seconds): below this an interval is committed even
#: if its midpoint still disagrees with its quarter points. Two decades
#: under the shortest task segment widths the generators emit.
MIN_DT = 1e-3


def _refine(f: Callable[[float], float], a: float, b: float, p_a_mid: float,
            p_scale: float, max_dt: float, tol: float, min_dt: float,
            edges: List[float], powers: List[float]) -> None:
    """Recursively bisect ``[a, b]``; emit pieces holding midpoint power.

    ``p_a_mid`` is the midpoint power of the interval, precomputed by
    the caller (each split reuses the parent's quarter-point samples as
    the children's midpoints, keeping evaluations O(pieces)).
    """
    width = b - a
    mid = 0.5 * (a + b)
    if width <= min_dt:
        edges.append(b)
        powers.append(p_a_mid)
        return
    p_l = f(0.5 * (a + mid))
    p_r = f(0.5 * (mid + b))
    budget = tol * p_scale
    if (width > max_dt or abs(p_l - p_a_mid) > budget
            or abs(p_r - p_a_mid) > budget):
        _refine(f, a, mid, p_l, p_scale, max_dt, tol, min_dt, edges, powers)
        _refine(f, mid, b, p_r, p_scale, max_dt, tol, min_dt, edges, powers)
    else:
        edges.append(b)
        powers.append(p_a_mid)


def _merge(edges: List[float], powers: List[float]) -> TraceHarvester:
    """Drop interior edges between equal-power neighbours (exact edges)."""
    m_edges = [edges[0]]
    m_powers: List[float] = []
    for k, p in enumerate(powers):
        if m_powers and m_powers[-1] == p:
            m_edges[-1] = edges[k + 1]
        else:
            m_edges.append(edges[k + 1])
            m_powers.append(p)
    return TraceHarvester(np.asarray(m_edges), np.asarray(m_powers))


def lower_environment(model, pv, mppt, duration: float, *,
                      max_dt: float = 2.0, tol: float = 0.02,
                      min_dt: float = MIN_DT,
                      sample_dt: float = 0.5) -> TraceHarvester:
    """Lower ``(model, pv, mppt)`` over ``[0, duration]`` to a trace.

    ``tol`` is relative to the transducer's full-sun maximum power.
    Stateless front-ends get adaptive refinement; stateful ones get the
    sequential uniform-plus-breakpoints grid described in the module
    docstring. The returned trace always starts at 0.0 and ends exactly
    at ``duration``.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    base = [0.0]
    base.extend(float(t) for t in model.breakpoints(duration))
    base.append(float(duration))

    mppt.reset()
    edges: List[float] = [0.0]
    powers: List[float] = []
    if mppt.stateful:
        if sample_dt <= 0:
            raise ValueError(f"sample_dt must be positive, got {sample_dt}")
        lattice = np.arange(1, int(np.ceil(duration / sample_dt))) \
            * sample_dt
        grid = sorted(set(base) | set(lattice[lattice < duration].tolist()))
        for a, b in zip(grid[:-1], grid[1:]):
            p = mppt.harvest_power(pv, model.intensity(a))
            edges.append(b)
            powers.append(p)
    else:
        _unused, p_scale = pv.mpp(1.0)
        p_scale = max(p_scale, 1e-12)

        def f(t: float) -> float:
            return mppt.harvest_power(pv, model.intensity(t))

        for a, b in zip(base[:-1], base[1:]):
            if b <= a:
                continue
            _refine(f, a, b, f(0.5 * (a + b)), p_scale, max_dt, tol,
                    min_dt, edges, powers)

    trace = _merge(edges, powers)
    obs = _obs_current()
    if obs is not None:
        obs.metrics.counter("env.lowered").inc()
        obs.metrics.counter("env.pieces").inc(len(trace.powers))
    return trace


__all__ = ["MIN_DT", "lower_environment"]
