"""``repro.segalg`` — the event-driven segment-algebra simulation core.

The stepping engines (:mod:`repro.sim.engine`, :mod:`repro.sim.fastpath`,
:mod:`repro.fleet.kernel`) integrate the paper's charge model with
fixed sub-steps; this package advances the *same* model in closed form
between **events** — brown-out crossings, monitor hysteresis flips,
the V_max rail, harvest-trace edges — so cost scales with how often
the system changes regime, not with simulated time.

Layout:

* :mod:`~repro.segalg.model` — component parameters hoisted into the
  closed-form constants of the two-branch charge model;
* :mod:`~repro.segalg.program` — traces precompiled (and cached) into
  flat structure-of-arrays segment programs;
* :mod:`~repro.segalg.core` — the per-interval stepper and the event
  primitives (pure array math);
* :mod:`~repro.segalg.vector` — the one driver: a program advanced
  per-interval across a whole device batch (a single device is a
  batch of one).

Results match the stepping engines to *method* tolerances (~1e-4 V) —
this is a different integrator, not a reordering of the same floating
point (DESIGN §12).
"""

from repro.segalg.program import canonical_fingerprint, compile_segments
from repro.segalg.vector import advance_fleet

__all__ = [
    "advance_fleet",
    "canonical_fingerprint",
    "compile_segments",
]
