"""Parametric environment models: invariants and seeded determinism.

The models feed the lowering, so everything downstream leans on two
promises checked here: intensity stays inside ``[0, 1]``, and the
stochastic structure is a pure function of the seed — the same seed
always yields the same sky.
"""

import numpy as np
import pytest

from repro.env import (
    DiurnalSolarModel,
    KineticBurstModel,
    ThermalGradientModel,
)

DURATION = 120.0


def _models():
    return [
        DiurnalSolarModel(period=60.0, seed=3, horizon=DURATION),
        KineticBurstModel(seed=5, burst_rate=0.2, horizon=DURATION),
        ThermalGradientModel(period=40.0),
    ]


class TestIntensityRange:
    @pytest.mark.parametrize("model", _models(),
                             ids=lambda m: type(m).__name__)
    def test_intensity_in_unit_interval(self, model):
        for t in np.linspace(0.0, DURATION, 4001):
            e = model.intensity(float(t))
            assert 0.0 <= e <= 1.0, (type(model).__name__, t, e)

    def test_solar_night_is_dark(self):
        model = DiurnalSolarModel(period=60.0, daylight_fraction=0.5,
                                  seed=0, cloud_rate=0.0, horizon=DURATION)
        for t in np.linspace(30.0, 59.9, 100):
            assert model.intensity(float(t)) == 0.0

    def test_overlapping_bursts_cap_at_one(self):
        # Deterministic overlap: force many long bursts into a short
        # horizon so several are always simultaneously active.
        model = KineticBurstModel(base_intensity=0.5, seed=1,
                                  burst_rate=3.0, burst_duration=10.0,
                                  burst_intensity=1.0, horizon=20.0)
        assert len(model.burst_starts) >= 2
        peaks = [model.intensity(float(t))
                 for t in np.linspace(0.0, 20.0, 2001)]
        assert max(peaks) == 1.0


class TestSeededDeterminism:
    def test_same_seed_same_sky(self):
        a = DiurnalSolarModel(seed=11, cloud_rate=8.0, horizon=DURATION)
        b = DiurnalSolarModel(seed=11, cloud_rate=8.0, horizon=DURATION)
        np.testing.assert_array_equal(a.cloud_starts, b.cloud_starts)
        np.testing.assert_array_equal(a.cloud_ends, b.cloud_ends)
        np.testing.assert_array_equal(a.cloud_depths, b.cloud_depths)
        for t in np.linspace(0.0, DURATION, 501):
            assert a.intensity(float(t)) == b.intensity(float(t))

    def test_different_seed_different_clouds(self):
        a = DiurnalSolarModel(seed=11, cloud_rate=8.0, horizon=DURATION)
        b = DiurnalSolarModel(seed=12, cloud_rate=8.0, horizon=DURATION)
        assert a.cloud_starts.tolist() != b.cloud_starts.tolist()

    def test_same_seed_same_bursts(self):
        a = KineticBurstModel(seed=4, burst_rate=0.5, horizon=DURATION)
        b = KineticBurstModel(seed=4, burst_rate=0.5, horizon=DURATION)
        np.testing.assert_array_equal(a.burst_starts, b.burst_starts)
        np.testing.assert_array_equal(a.burst_amps, b.burst_amps)


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DiurnalSolarModel(period=0.0)
        with pytest.raises(ValueError):
            DiurnalSolarModel(daylight_fraction=0.0)
        with pytest.raises(ValueError):
            KineticBurstModel(base_intensity=1.5)
        with pytest.raises(ValueError):
            ThermalGradientModel(intensity_low=0.8, intensity_high=0.2)
