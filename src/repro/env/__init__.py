"""Harvesting-environment engine: parametric models lowered to traces.

The paper's bench approximates harvested solar energy as weak, roughly
constant power; real deployments see diurnal arcs, cloud transients,
motion bursts and thermal cycles. This package models those environments
*parametrically* — a seeded, serializable :class:`EnvSpec` describes an
irradiance/vibration/temperature profile and an MPPT harvester front-end
— and **lowers** them into the piecewise-constant
:class:`~repro.power.harvester.TraceHarvester` representation every
simulation engine already consumes natively: the reference loop and the
scalar fastpath clamp their steps at piece edges, and the fleet kernels
(stepping and segment algebra) replay shared edge grids with per-device
power columns.

There is one lowering: a uniform grid of ``grid_dt`` pieces, each
holding the front-end's power at its midpoint (a stateless front-end)
or at its start (perturb-and-observe, which steps its setpoint once per
piece). :meth:`EnvSpec.lower` is that grid as one trace, the one a fleet
device with no front delay replays, so a spec means the same harvest on
the verify and chaos environment axes, in fleets, in recordings and in
the daemon.

Layout:

* :mod:`repro.env.models` — intensity-versus-time models (diurnal solar
  with seeded cloud transients, kinetic burst, thermal gradient);
* :mod:`repro.env.mppt` — the PV transducer IV curve and the MPPT
  front-ends (constant-voltage, V_OC-fraction, perturb-and-observe)
  that turn intensity into electrical watts;
* :mod:`repro.env.spec` — the frozen, serializable :class:`EnvSpec`;
* :mod:`repro.env.correlate` — the grid lowering, and spatio-temporal
  correlation: one environment swept across a fleet as a moving front,
  as whole-step shifts of the grid;
* :mod:`repro.env.trace_io` — recordings: a canonical JSON document of
  the spec, the fleet size and the fingerprint of the columns it expands
  to, which the loader regenerates and checks.
"""

from repro.env.correlate import fleet_columns
from repro.env.models import (
    DiurnalSolarModel,
    KineticBurstModel,
    ThermalGradientModel,
)
from repro.env.mppt import (
    ConstantVoltageMPPT,
    PerturbObserveMPPT,
    PVTransducer,
    VocFractionMPPT,
)
from repro.env.spec import ENV_MODELS, ENV_MPPTS, EnvSpec
from repro.env.trace_io import (
    EnvFleetTrace,
    generate_fleet_trace,
    load_trace,
    save_trace,
)

__all__ = [
    "ConstantVoltageMPPT",
    "DiurnalSolarModel",
    "ENV_MODELS",
    "ENV_MPPTS",
    "EnvFleetTrace",
    "EnvSpec",
    "KineticBurstModel",
    "PVTransducer",
    "PerturbObserveMPPT",
    "ThermalGradientModel",
    "VocFractionMPPT",
    "fleet_columns",
    "generate_fleet_trace",
    "load_trace",
    "save_trace",
]
