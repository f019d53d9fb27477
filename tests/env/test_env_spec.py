"""EnvSpec: validation, serialization, fingerprints, builders."""

import dataclasses

import pytest

from repro.env import ENV_MODELS, ENV_MPPTS, EnvSpec
from repro.env.models import (
    DiurnalSolarModel,
    KineticBurstModel,
    ThermalGradientModel,
)
from repro.env.mppt import (
    ConstantVoltageMPPT,
    PerturbObserveMPPT,
    VocFractionMPPT,
)
from repro.power.harvester import TraceHarvester

FLOAT_FIELDS = [field.name for field in dataclasses.fields(EnvSpec)
                if field.type == "float"]


class TestValidation:
    def test_rejects_unknown_model_and_mppt(self):
        with pytest.raises(ValueError, match="unknown environment model"):
            EnvSpec(model="lunar")
        with pytest.raises(ValueError, match="unknown MPPT"):
            EnvSpec(model="diurnal-solar", mppt="oracle")

    def test_rejects_degenerate_scalars(self):
        with pytest.raises(ValueError):
            EnvSpec(model="diurnal-solar", duration=0.0)
        with pytest.raises(ValueError):
            EnvSpec(model="diurnal-solar", peak_power=-1e-3)
        with pytest.raises(ValueError):
            EnvSpec(model="diurnal-solar", grid_dt=0.0)
        with pytest.raises(ValueError):
            EnvSpec(model="diurnal-solar", front_delay=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_rejects_non_finite_scalars(self, name, value):
        """NaN passed the ``< 0`` guards: a NaN front delay wrote a
        recording, a NaN duration failed later in an integer cast, and a
        NaN cloud rate recorded a cloudless sky."""
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            EnvSpec(model="diurnal-solar", **{name: value})

    @pytest.mark.parametrize("name, value", [
        ("v_oc", 0.0), ("knee", 1.0), ("voc_exponent", 1.0),
        ("period", 0.0), ("daylight_fraction", 0.0), ("cloud_rate", -1.0),
        ("cloud_depth", 1.5), ("cloud_duration", 0.0),
        ("base_intensity", -0.1), ("burst_rate", -0.1),
        ("burst_duration", 0.0), ("burst_intensity", 1.1),
        ("intensity_low", -0.1), ("intensity_high", 1.1),
        ("mppt_voltage", 0.0), ("mppt_fraction", 1.0), ("po_step", 0.0),
        ("po_dt", 0.0), ("max_dt", 0.0), ("tol", -0.01),
    ])
    def test_rejects_values_outside_the_model_range(self, name, value):
        """Every field is held to the range of the model, transducer,
        front-end or lowering that reads it, whichever model is picked."""
        for model in ENV_MODELS:
            with pytest.raises(ValueError, match=f"{name} must be finite "
                                                 f"and .*, got {value}"):
                EnvSpec(model=model, **{name: value})

    def test_rejects_inverted_thermal_intensities(self):
        with pytest.raises(ValueError, match="intensity_low must not exceed"):
            EnvSpec(model="thermal-gradient", intensity_low=0.8,
                    intensity_high=0.5)


class TestSerialization:
    def test_round_trip_every_model(self):
        for model in ENV_MODELS:
            for mppt in ENV_MPPTS:
                spec = EnvSpec(model=model, mppt=mppt, duration=45.0,
                               seed=9, front_delay=0.2)
                again = EnvSpec.from_dict(spec.to_dict())
                assert again == spec

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError, match="not an env spec"):
            EnvSpec.from_dict({"format": "repro.fleet-spec",
                               "model": "diurnal-solar"})

    def test_fingerprint_is_stable_and_field_sensitive(self):
        spec = EnvSpec(model="diurnal-solar", seed=1)
        assert spec.fingerprint == EnvSpec(model="diurnal-solar",
                                           seed=1).fingerprint
        assert spec.fingerprint != \
            dataclasses.replace(spec, seed=2).fingerprint
        assert spec.fingerprint != \
            dataclasses.replace(spec, cloud_rate=5.0).fingerprint


class TestBuilders:
    def test_model_dispatch(self):
        assert isinstance(EnvSpec(model="diurnal-solar").build_model(),
                          DiurnalSolarModel)
        assert isinstance(EnvSpec(model="kinetic-burst").build_model(),
                          KineticBurstModel)
        assert isinstance(EnvSpec(model="thermal-gradient").build_model(),
                          ThermalGradientModel)

    def test_mppt_dispatch(self):
        base = dict(model="diurnal-solar")
        assert isinstance(EnvSpec(mppt="constant-voltage",
                                  **base).build_mppt(),
                          ConstantVoltageMPPT)
        assert isinstance(EnvSpec(mppt="voc-fraction", **base).build_mppt(),
                          VocFractionMPPT)
        assert isinstance(EnvSpec(mppt="perturb-observe",
                                  **base).build_mppt(),
                          PerturbObserveMPPT)

    def test_horizon_extends_stochastic_draw(self):
        spec = EnvSpec(model="kinetic-burst", duration=30.0,
                       burst_rate=0.5, seed=2)
        short = spec.build_model()
        long = spec.build_model(horizon=120.0)
        assert long.horizon == 120.0
        assert len(long.burst_starts) >= len(short.burst_starts)

    def test_lower_returns_trace_harvester_for_all_combos(self):
        for model in ENV_MODELS:
            for mppt in ENV_MPPTS:
                trace = EnvSpec(model=model, mppt=mppt,
                                duration=20.0).lower()
                assert isinstance(trace, TraceHarvester)
                assert trace.duration == pytest.approx(20.0)
                assert trace.fingerprint
