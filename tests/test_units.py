"""Unit helpers and OperatingRange."""

import pytest

from repro.units import (
    OperatingRange,
    capacitor_energy,
    micro,
    milli,
    nano,
    voltage_for_energy,
)


class TestScalers:
    def test_milli(self):
        assert milli(45) == pytest.approx(0.045)

    def test_micro(self):
        assert micro(100) == pytest.approx(1e-4)

    def test_nano(self):
        assert nano(20) == pytest.approx(2e-8)


class TestCapacitorEnergy:
    def test_known_value(self):
        # 45 mF at 2.56 V stores about 147 mJ.
        assert capacitor_energy(0.045, 2.56) == pytest.approx(0.1475, rel=1e-3)

    def test_zero_voltage(self):
        assert capacitor_energy(0.045, 0.0) == 0.0

    def test_negative_capacitance_rejected(self):
        with pytest.raises(ValueError):
            capacitor_energy(-1.0, 2.0)

    def test_roundtrip_with_voltage_for_energy(self):
        c = 0.033
        for v in (0.5, 1.6, 2.56):
            e = capacitor_energy(c, v)
            assert voltage_for_energy(c, e) == pytest.approx(v)

    def test_voltage_for_energy_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            voltage_for_energy(0.0, 1.0)
        with pytest.raises(ValueError):
            voltage_for_energy(0.045, -1.0)


class TestOperatingRange:
    def test_span(self):
        r = OperatingRange(v_off=1.6, v_high=2.56)
        assert r.span == pytest.approx(0.96)

    def test_contains_boundaries(self):
        r = OperatingRange(v_off=1.6, v_high=2.56)
        assert r.contains(1.6)
        assert r.contains(2.56)
        assert not r.contains(1.599)
        assert not r.contains(2.561)

    def test_clamp(self):
        r = OperatingRange(v_off=1.6, v_high=2.56)
        assert r.clamp(1.0) == 1.6
        assert r.clamp(3.0) == 2.56
        assert r.clamp(2.0) == 2.0

    def test_fraction(self):
        r = OperatingRange(v_off=1.6, v_high=2.6)
        assert r.fraction(1.6) == pytest.approx(0.0)
        assert r.fraction(2.6) == pytest.approx(1.0)
        assert r.fraction(2.1) == pytest.approx(0.5)

    def test_as_percent_of_range(self):
        r = OperatingRange(v_off=1.6, v_high=2.56)
        assert r.as_percent_of_range(0.096) == pytest.approx(10.0)
        assert r.as_percent_of_range(-0.048) == pytest.approx(-5.0)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            OperatingRange(v_off=0.0, v_high=1.0)
        with pytest.raises(ValueError):
            OperatingRange(v_off=2.0, v_high=2.0)
        with pytest.raises(ValueError):
            OperatingRange(v_off=2.5, v_high=1.6)

    def test_frozen(self):
        r = OperatingRange(v_off=1.6, v_high=2.56)
        with pytest.raises(Exception):
            r.v_off = 1.0
