"""Fleet-scale vectorized simulation: N jittered devices per step.

The scalar stack simulates one device at a time; this package holds the
whole deployment in numpy arrays and advances every device per vector
operation — the regime the ROADMAP's production north star (millions of
harvesting devices) actually runs in. Three layers:

* :mod:`~repro.fleet.spec` — :class:`FleetSpec`, a seeded serializable
  recipe expanding one base plant into per-device parameter arrays;
* :mod:`~repro.fleet.kernel` — the batched stepping kernel, replaying
  the scalar fastpath recurrence across the batch with masked brown-out
  handling (documented tolerance, enforced by the equivalence suite);
* :mod:`~repro.fleet.runner` — shared-firmware program execution over
  the batch, aggregating the chaos campaign's four-way classification
  into any-jobs byte-identical :class:`FleetReport`s, with a
  :mod:`~repro.fleet.differential` mode re-running sampled devices
  alone on each engine's mirror (``repro fleet --check N``).

A fourth entry point, :mod:`~repro.fleet.batch`, inverts the spec's
shape for the serving layer: N *unrelated* one-shot queries — each with
its own plant and start voltage — stepped one by one on scalar plants
through the fastpath kernel, so every answer is the reference loop's,
bit for bit, in any batch.
"""

from repro.fleet.batch import (
    BatchPlant,
    BatchQuery,
    BatchResult,
    BatchShared,
    advance_batch,
    shared_key,
)
from repro.fleet.differential import (
    CrossCheckResult,
    DeviceMismatch,
    cross_check,
    run_device_mirror,
    sample_indices,
)
from repro.fleet.kernel import (
    T_TOL,
    V_TOL,
    FleetRecorder,
    FleetState,
    advance,
)
from repro.fleet.runner import (
    FLEET_ENGINES,
    FleetOutcomes,
    FleetReport,
    run_fleet,
    run_fleet_raw,
    summarize,
)
from repro.fleet.spec import FleetParams, FleetSpec
from repro.segalg.vector import advance_fleet

__all__ = [
    "BatchPlant",
    "BatchQuery",
    "BatchResult",
    "BatchShared",
    "advance_batch",
    "shared_key",
    "FLEET_ENGINES",
    "advance_fleet",
    "FleetSpec",
    "FleetParams",
    "FleetState",
    "FleetRecorder",
    "advance",
    "V_TOL",
    "T_TOL",
    "FleetOutcomes",
    "FleetReport",
    "run_fleet",
    "run_fleet_raw",
    "summarize",
    "CrossCheckResult",
    "DeviceMismatch",
    "cross_check",
    "run_device_mirror",
    "sample_indices",
]
