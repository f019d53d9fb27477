"""PowerSystem assembly and characterization."""

import pytest

from repro.power.harvester import ConstantPowerHarvester, NullHarvester
from repro.power.system import PowerSystemModel, capybara_power_system


class TestCapybaraFactory:
    def test_default_rails(self, system):
        assert system.monitor.v_high == pytest.approx(2.56)
        assert system.monitor.v_off == pytest.approx(1.6)
        assert system.v_out == pytest.approx(2.55)

    def test_true_capacitance_exceeds_datasheet(self, system):
        assert system.buffer.total_capacitance > system.datasheet_capacitance

    def test_custom_bank(self):
        ps = capybara_power_system(datasheet_capacitance=15e-3, dc_esr=10.0)
        assert ps.buffer.total_capacitance == pytest.approx(15e-3 * 1.06)
        assert ps.buffer.r_esr == pytest.approx(10.0)

    def test_rejects_overfull_decoupling(self):
        with pytest.raises(ValueError):
            capybara_power_system(datasheet_capacitance=1e-4,
                                  c_decoupling=1e-3)

    def test_rest_at_syncs_monitor(self, system):
        system.rest_at(2.0)
        assert system.monitor.output_enabled
        system.rest_at(1.0)
        assert not system.monitor.output_enabled

    def test_copy_is_deep_for_state(self, system):
        system.rest_at(2.2)
        clone = system.copy()
        clone.buffer.step(0.050, 0.01)
        assert system.buffer.terminal_voltage == pytest.approx(2.2)

    def test_with_harvester(self, system):
        powered = system.with_harvester(ConstantPowerHarvester(1e-3))
        assert powered.harvester.power_at(0.0) == pytest.approx(1e-3)
        assert isinstance(system.harvester, NullHarvester)


class TestCharacterize:
    @pytest.mark.parametrize("kwargs", [
        dict(linearize_at=(1.8, 2.4)),
        dict(test_current=0.0),
        dict(pulse_widths=[0.001, float("nan")]),
    ])
    def test_takes_no_measurement_parameters(self, system, kwargs):
        with pytest.raises(TypeError):
            system.characterize(**kwargs)

    def test_model_uses_datasheet_capacitance(self, system, model):
        assert model.capacitance == pytest.approx(45e-3)
        assert model.capacitance < system.buffer.total_capacitance

    def test_esr_curve_rises_with_pulse_width(self, model):
        short = model.esr_curve.esr_for_pulse_width(0.0005)
        long = model.esr_curve.esr_for_pulse_width(0.100)
        assert long > short

    def test_linearized_efficiency_monotone(self, model):
        assert model.eta(2.56) > model.eta(1.6)

    def test_rails_copied(self, model):
        assert model.v_off == pytest.approx(1.6)
        assert model.v_high == pytest.approx(2.56)
        assert model.v_out == pytest.approx(2.55)

    def test_operating_range(self, model):
        assert model.operating_range.span == pytest.approx(0.96)


class TestPowerSystemModel:
    def test_validation(self, model):
        with pytest.raises(ValueError):
            PowerSystemModel(capacitance=0.0, esr_curve=model.esr_curve,
                             efficiency=model.efficiency,
                             v_off=1.6, v_high=2.56, v_out=2.55)
        with pytest.raises(ValueError):
            PowerSystemModel(capacitance=45e-3, esr_curve=model.esr_curve,
                             efficiency=model.efficiency,
                             v_off=2.56, v_high=1.6, v_out=2.55)
