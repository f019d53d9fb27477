"""The serializable recipe for a harvesting environment.

:class:`EnvSpec` is to an environment what
:class:`~repro.fleet.spec.FleetSpec` is to a deployment: a frozen,
seedable value object from which everything else is a pure function —
the parametric model, the transducer, the MPPT front-end, the lowered
scalar trace, and (through :mod:`repro.env.correlate`) the per-device
power columns of a whole correlated fleet. Two processes holding equal
specs regenerate bit-identical traces, which is what lets the sharded
fleet runner replay an environment without ever shipping the columns
between processes.

The spec's :attr:`~EnvSpec.fingerprint` digests the canonical field
dict, so it is stable across sessions and keys the serving tier's
environment grids; the *lowered trace* carries its own content fingerprint
(:attr:`TraceHarvester.fingerprint`) which keys the V_safe cache.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

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
from repro.power.harvester import TraceHarvester

ENV_MODELS = ("diurnal-solar", "kinetic-burst", "thermal-gradient")
ENV_MPPTS = ("constant-voltage", "voc-fraction", "perturb-observe")

#: What each float field must be besides finite: the range the model,
#: transducer, front-end or lowering that reads it enforces (checked for
#: every field, whichever model is picked, since all of them are in the
#: fingerprint).
_RANGES = (
    ("duration", "positive", lambda v: v > 0),
    ("peak_power", ">= 0", lambda v: v >= 0),
    ("v_oc", "positive", lambda v: v > 0),
    ("knee", "> 1", lambda v: v > 1),
    ("voc_exponent", "in [0, 1)", lambda v: 0 <= v < 1),
    ("period", "positive", lambda v: v > 0),
    ("daylight_fraction", "in (0, 1]", lambda v: 0 < v <= 1),
    ("cloud_rate", ">= 0", lambda v: v >= 0),
    ("cloud_depth", "in [0, 1]", lambda v: 0 <= v <= 1),
    ("cloud_duration", "positive", lambda v: v > 0),
    ("base_intensity", "in [0, 1]", lambda v: 0 <= v <= 1),
    ("burst_rate", ">= 0", lambda v: v >= 0),
    ("burst_duration", "positive", lambda v: v > 0),
    ("burst_intensity", "in [0, 1]", lambda v: 0 <= v <= 1),
    ("intensity_low", "in [0, 1]", lambda v: 0 <= v <= 1),
    ("intensity_high", "in [0, 1]", lambda v: 0 <= v <= 1),
    ("mppt_voltage", "positive", lambda v: v > 0),
    ("mppt_fraction", "in (0, 1)", lambda v: 0 < v < 1),
    ("po_step", "positive", lambda v: v > 0),
    ("po_dt", "positive", lambda v: v > 0),
    ("max_dt", "positive", lambda v: v > 0),
    ("tol", ">= 0", lambda v: v >= 0),
    ("front_delay", ">= 0", lambda v: v >= 0),
    ("grid_dt", "positive", lambda v: v > 0),
)


@dataclass(frozen=True)
class EnvSpec:
    """A seeded environment + front-end recipe (serializable).

    Model-specific knobs are namespaced by prefix and ignored by the
    models that do not consume them, so one flat record round-trips
    through JSON without unions. ``front_delay`` is the spatio-temporal
    correlation knob: device ``i`` of a fleet sees the environment
    delayed by ``front_delay * i`` seconds — a weather front sweeping
    the deployment — quantized to the shared ``grid_dt`` lattice.
    """

    model: str
    duration: float = 240.0
    seed: int = 0
    mppt: str = "voc-fraction"
    peak_power: float = 4e-3
    # -- transducer --------------------------------------------------------
    v_oc: float = 2.2
    knee: float = 8.0
    voc_exponent: float = 0.06
    # -- diurnal-solar -----------------------------------------------------
    period: float = 240.0
    daylight_fraction: float = 0.5
    cloud_rate: float = 4.0
    cloud_depth: float = 0.7
    cloud_duration: float = 6.0
    # -- kinetic-burst -----------------------------------------------------
    base_intensity: float = 0.05
    burst_rate: float = 0.1
    burst_duration: float = 2.0
    burst_intensity: float = 0.9
    # -- thermal-gradient --------------------------------------------------
    intensity_low: float = 0.2
    intensity_high: float = 1.0
    # -- MPPT front-end ----------------------------------------------------
    mppt_voltage: float = 1.7
    mppt_fraction: float = 0.76
    po_step: float = 0.05
    po_dt: float = 0.5
    # -- lowering / fleet correlation --------------------------------------
    max_dt: float = 2.0
    tol: float = 0.02
    front_delay: float = 0.0
    grid_dt: float = 0.25

    def __post_init__(self) -> None:
        if self.model not in ENV_MODELS:
            raise ValueError(
                f"unknown environment model {self.model!r}; "
                f"choose from {ENV_MODELS}")
        if self.mppt not in ENV_MPPTS:
            raise ValueError(
                f"unknown MPPT front-end {self.mppt!r}; "
                f"choose from {ENV_MPPTS}")
        for name, rule, holds in _RANGES:
            value = getattr(self, name)
            if not (math.isfinite(value) and holds(value)):
                raise ValueError(
                    f"{name} must be finite and {rule}, got {value}")
        if self.intensity_low > self.intensity_high:
            raise ValueError(
                f"intensity_low must not exceed intensity_high, got "
                f"{self.intensity_low} > {self.intensity_high}")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        data = asdict(self)
        data["format"] = "repro.env-spec"
        data["version"] = 1
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "EnvSpec":
        if data.get("format", "repro.env-spec") != "repro.env-spec":
            raise ValueError(f"not an env spec: {data.get('format')!r}")
        fields = {k: v for k, v in data.items()
                  if k not in ("format", "version")}
        return cls(**fields)

    @property
    def fingerprint(self) -> str:
        """Digest of the canonical field dict (artifact identity)."""
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":")).encode()
        digest = hashlib.blake2b(payload, digest_size=16)
        return digest.hexdigest()

    # -- builders -----------------------------------------------------------

    def build_model(self, horizon: float = 0.0):
        """The parametric model, drawn over at least ``duration`` (plus
        any extra ``horizon`` a correlated fleet's trailing devices need)."""
        span = max(self.duration, horizon)
        if self.model == "diurnal-solar":
            return DiurnalSolarModel(
                period=self.period,
                daylight_fraction=self.daylight_fraction,
                seed=self.seed, cloud_rate=self.cloud_rate,
                cloud_depth=self.cloud_depth,
                cloud_duration=self.cloud_duration, horizon=span)
        if self.model == "kinetic-burst":
            return KineticBurstModel(
                base_intensity=self.base_intensity, seed=self.seed,
                burst_rate=self.burst_rate,
                burst_duration=self.burst_duration,
                burst_intensity=self.burst_intensity, horizon=span)
        return ThermalGradientModel(
            period=self.period, intensity_low=self.intensity_low,
            intensity_high=self.intensity_high)

    def build_transducer(self) -> PVTransducer:
        return PVTransducer.scaled_to(
            self.peak_power, v_oc=self.v_oc, knee=self.knee,
            voc_exponent=self.voc_exponent)

    def build_mppt(self):
        if self.mppt == "constant-voltage":
            return ConstantVoltageMPPT(v_ref=self.mppt_voltage)
        if self.mppt == "voc-fraction":
            return VocFractionMPPT(fraction=self.mppt_fraction)
        return PerturbObserveMPPT(step=self.po_step)

    def lower(self) -> TraceHarvester:
        """The breakpoint-exact scalar lowering of this environment."""
        return lower_environment(
            self.build_model(), self.build_transducer(), self.build_mppt(),
            self.duration, max_dt=self.max_dt, tol=self.tol,
            sample_dt=self.po_dt)


__all__ = ["ENV_MODELS", "ENV_MPPTS", "EnvSpec"]
