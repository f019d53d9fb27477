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

Layout:

* :mod:`repro.env.models` — intensity-versus-time models (diurnal solar
  with seeded cloud transients, kinetic burst, thermal gradient);
* :mod:`repro.env.mppt` — the PV transducer IV curve and the MPPT
  front-ends (constant-voltage, V_OC-fraction, perturb-and-observe)
  that turn intensity into electrical watts;
* :mod:`repro.env.lowering` — adaptive, breakpoint-exact lowering of a
  model + front-end into a :class:`TraceHarvester`;
* :mod:`repro.env.spec` — the frozen, serializable :class:`EnvSpec`;
* :mod:`repro.env.correlate` — spatio-temporal correlation: one
  environment swept across a fleet as a moving front, on a shared grid;
* :mod:`repro.env.trace_io` — recordings: a canonical JSON document of
  the spec, the fleet size and the fingerprint of the columns it expands
  to, which the loader regenerates and checks.
"""

from repro.env.correlate import fleet_columns
from repro.env.lowering import lower_environment
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
    "lower_environment",
    "save_trace",
]
