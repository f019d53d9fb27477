"""Fault injector registries: seams, seeding, and serialization."""

import json

import numpy as np
import pytest

from repro.power.harvester import ConstantPowerHarvester
from repro.power.system import capybara_power_system
from repro.resilience.injectors import (
    INJECTORS,
    AdcDropoutFault,
    AdcNoiseFault,
    AdcStuckFault,
    CapacitanceDegradation,
    DropoutStormHarvester,
    EsrAgingDrift,
    FaultInjector,
    IsrTimerJitter,
    NoFault,
)
from repro.serve.chaos import SERVICE_INJECTORS, ServiceInjector
from repro.sim.adc import Adc
from repro.sim.faults import FaultyAdc

EXPECTED_NAMES = {
    "none", "harvester-dropout-storm", "esr-aging",
    "capacitance-degradation", "adc-dropout", "adc-stuck", "adc-noise",
    "isr-timer-jitter", "bank-switch-stuck", "bank-redistribution-loss",
    "bank-config-tag-mismatch",
}
BANK_NAMES = {"bank-switch-stuck", "bank-redistribution-loss",
              "bank-config-tag-mismatch"}


def make_system():
    return capybara_power_system(harvester=ConstantPowerHarvester(3e-3))


def make_bank_system():
    from repro.power.reconfigurable import (
        ReconfigurableBuffer,
        capybara_bank_set,
    )
    system = make_system()
    system.buffer = ReconfigurableBuffer(capybara_bank_set(), ("large",))
    system.datasheet_capacitance = None
    system.rest_at(system.monitor.v_high)
    system.buffer.rest_all(system.monitor.v_high)
    return system


def _other_number_type(value):
    """``value`` as the other JSON number type (2.0 <-> 2), else as is."""
    if type(value) is float and value.is_integer():
        return int(value)
    return float(value) if type(value) is int else value


class TestRegistry:
    """The recipe registry contract, on the simulator's injectors;
    :class:`TestServiceRegistry` runs the same tests on the daemon's."""

    REGISTRY = INJECTORS
    BASE = FaultInjector
    #: ``REGISTRY.defaults()`` as JSON, pinned: a recipe's parameter
    #: order or value types cannot change unnoticed.
    DEFAULTS = (
        '[{"injector": "adc-dropout", "params": {"dropout_rate": 0.05}}, '
        '{"injector": "adc-noise", "params": {"sigma": 0.004}}, '
        '{"injector": "adc-stuck", "params": {"stuck_code": null}}, '
        '{"injector": "bank-config-tag-mismatch", "params": {}}, '
        '{"injector": "bank-redistribution-loss", '
        '"params": {"loss_min": 0.02, "loss_max": 0.08}}, '
        '{"injector": "bank-switch-stuck", "params": {}}, '
        '{"injector": "capacitance-degradation", '
        '"params": {"factor_min": 0.5, "factor_max": 0.8}}, '
        '{"injector": "esr-aging", "params": {"factor_min": 2.0, "factor_max": 3.0}}, '
        '{"injector": "harvester-dropout-storm", '
        '"params": {"mean_up": 6.0, "mean_down": 1.5, "horizon": 600.0}}, '
        '{"injector": "isr-timer-jitter", "params": {"fraction": 0.1}}, '
        '{"injector": "none", "params": {}}]')
    #: One out-of-range value for every recipe whose parameters have a
    #: range.
    BAD_PARAMS = (
        ("harvester-dropout-storm", {"mean_up": 0.0}),
        ("harvester-dropout-storm", {"horizon": -1.0}),
        ("esr-aging", {"factor_min": 0.5}),  # below 1: that's healing
        ("capacitance-degradation", {"factor_min": 0.9, "factor_max": 0.5}),
        ("bank-redistribution-loss", {"loss_max": 1.0}),
        ("adc-dropout", {"dropout_rate": 0.0}),
        ("adc-noise", {"sigma": -1.0}),
        ("isr-timer-jitter", {"fraction": 1.0}),
    )

    def test_all_expected_injectors_registered(self):
        assert json.dumps(self.REGISTRY.defaults()) == self.DEFAULTS

    def test_duplicate_registration_rejected(self):
        control = self.REGISTRY["none"]

        class Imposter(self.BASE):
            name = "none"

        with pytest.raises(ValueError, match="duplicate"):
            self.REGISTRY.register(Imposter)
        assert self.REGISTRY["none"] is control  # registry untouched

    def test_unnamed_injector_rejected(self):
        class Anonymous(self.BASE):
            pass

        with pytest.raises(ValueError, match="name"):
            self.REGISTRY.register(Anonymous)

    def test_unknown_name_in_dict_rejected(self):
        label = self.REGISTRY.label
        with pytest.raises(ValueError, match=f"unknown {label} 'solar-flare'"):
            self.REGISTRY.from_dict({"injector": "solar-flare", "params": {}})
        with pytest.raises(ValueError, match=f"unknown {label}.*solar-flare"):
            self.REGISTRY.defaults(["none", "solar-flare"])

    def test_every_injector_round_trips_through_dict(self):
        for name, cls in self.REGISTRY.items():
            original = cls()
            data = original.to_dict()
            assert data["injector"] == name
            rebuilt = self.REGISTRY.from_dict(json.loads(json.dumps(data)))
            assert type(rebuilt) is cls
            assert rebuilt == original
            assert rebuilt.to_dict() == data
            # A number given as the other type is stored as declared.
            params = {key: _other_number_type(value)
                      for key, value in data["params"].items()}
            assert cls(**params).to_dict() == data

    def test_parameter_validation(self):
        for name, params in self.BAD_PARAMS:
            with pytest.raises(ValueError):
                self.REGISTRY.from_dict({"injector": name, "params": params})


class TestServiceRegistry(TestRegistry):
    REGISTRY = SERVICE_INJECTORS
    BASE = ServiceInjector
    DEFAULTS = (
        '[{"injector": "connection-reset", "params": {"every": 4, "jitter": 3}}, '
        '{"injector": "deadline-storm", "params": {"fraction": 0.3}}, '
        '{"injector": "disk-full", "params": {"after_bytes": 1500}}, '
        '{"injector": "fsync-eio", "params": {"after": 1}}, '
        '{"injector": "half-open-stall", "params": {"after": 6, "jitter": 4}}, '
        '{"injector": "none", "params": {}}, '
        '{"injector": "short-write", "params": {"at_write": 3}}, '
        '{"injector": "sigkill", "params": {"at_fraction": 0.5}}, '
        '{"injector": "sigterm", "params": {"at_fraction": 0.5}}, '
        '{"injector": "slow-loris", "params": {"chunk": 48, "delay_ms": 2.0}}]')
    BAD_PARAMS = (
        ("connection-reset", {"every": 1}),
        ("connection-reset", {"jitter": -1}),
        ("half-open-stall", {"after": 0}),
        ("slow-loris", {"chunk": 0}),
        ("slow-loris", {"delay_ms": -1.0}),
        ("disk-full", {"after_bytes": -1}),
        ("short-write", {"at_write": 0}),
        ("fsync-eio", {"after": 0}),
        ("sigkill", {"at_fraction": 1.0}),
        ("sigterm", {"at_fraction": 0.0}),
        ("deadline-storm", {"fraction": 1.5}),
    )


class TestEnvironmentFaults:
    def test_no_fault_is_identity(self):
        system = make_system()
        assert NoFault().apply_to_system(system,
                                         np.random.default_rng(0)) is system

    def test_dropout_storm_gates_the_inner_harvester(self):
        storm = DropoutStormHarvester(
            ConstantPowerHarvester(5e-3), np.random.default_rng(42),
            mean_up=6.0, mean_down=1.5, horizon=600.0)
        powers = {storm.power_at(t) for t in np.linspace(0.0, 600.0, 4001)}
        assert powers == {0.0, 5e-3}  # gated, never attenuated
        assert 0.0 in powers and 5e-3 in powers

    def test_dropout_storm_is_a_pure_function_of_seed_and_time(self):
        def build():
            return DropoutStormHarvester(
                ConstantPowerHarvester(5e-3), np.random.default_rng(7),
                mean_up=6.0, mean_down=1.5, horizon=600.0)

        a, b = build(), build()
        ts = np.linspace(0.0, 600.0, 997)
        assert [a.power_at(t) for t in ts] == [b.power_at(t) for t in ts]

    def test_esr_aging_raises_esr_and_keeps_capacitance(self):
        system = make_system()
        before_c = system.buffer.total_capacitance
        before_r = system.buffer.r_esr
        EsrAgingDrift().apply_to_system(system, np.random.default_rng(1))
        assert system.buffer.r_esr >= 2.0 * before_r
        assert system.buffer.total_capacitance == pytest.approx(before_c)

    def test_capacitance_degradation_shrinks_the_bank(self):
        system = make_system()
        before_c = system.buffer.c_main
        before_r = system.buffer.r_esr
        CapacitanceDegradation().apply_to_system(
            system, np.random.default_rng(1))
        assert system.buffer.c_main <= 0.8 * before_c
        assert system.buffer.r_esr == pytest.approx(before_r)

    def test_datasheet_knowledge_stays_stale_after_aging(self):
        # The model must keep believing the datasheet — that knowledge gap
        # is what the campaign probes.
        system = make_system()
        datasheet = system.datasheet_capacitance
        CapacitanceDegradation().apply_to_system(
            system, np.random.default_rng(2))
        assert system.datasheet_capacitance == datasheet


class TestBankFaults:
    def test_bank_injectors_are_marked_bank_only(self):
        from repro.resilience.injectors import INJECTORS
        for name in BANK_NAMES:
            assert INJECTORS[name].bank_only
        for name in EXPECTED_NAMES - BANK_NAMES:
            assert not INJECTORS[name].bank_only

    def test_default_grid_excludes_bank_faults_unless_axis_on(self):
        from repro.resilience.campaign import default_injector_dicts
        plain = {d["injector"] for d in default_injector_dicts()}
        with_bank = {d["injector"]
                     for d in default_injector_dicts(include_bank=True)}
        assert plain & BANK_NAMES == set()
        assert BANK_NAMES <= with_bank
        assert with_bank - BANK_NAMES == plain  # nothing else moved

    def test_bank_faults_are_identity_on_fixed_buffers(self):
        from repro.resilience.injectors import INJECTORS
        for name in BANK_NAMES:
            system = make_system()
            before = system.buffer
            INJECTORS[name]().apply_to_system(system,
                                              np.random.default_rng(0))
            assert system.buffer is before

    def test_stuck_switch_freezes_configuration_and_tag(self):
        from repro.resilience.injectors import BankSwitchStuck
        system = make_bank_system()
        BankSwitchStuck().apply_to_system(system, np.random.default_rng(0))
        before_v = system.buffer.terminal_voltage
        system.buffer.configure(("large", "small"))
        assert system.buffer.config_id == frozenset({"large"})
        assert system.buffer.terminal_voltage == before_v

    def test_redistribution_loss_sags_the_rail_on_each_switch(self):
        from repro.resilience.injectors import BankRedistributionLoss
        system = make_bank_system()
        BankRedistributionLoss(loss_min=0.05, loss_max=0.05) \
            .apply_to_system(system, np.random.default_rng(0))
        before = system.buffer.terminal_voltage
        system.buffer.configure(("large", "small"))
        # the switch actuated (tag is honest) but burned extra charge
        assert system.buffer.config_id == frozenset({"large", "small"})
        assert system.buffer.terminal_voltage < 0.96 * before

    def test_stale_tag_lags_one_switch_behind(self):
        from repro.resilience.injectors import BankConfigTagMismatch
        system = make_bank_system()
        BankConfigTagMismatch().apply_to_system(system,
                                                np.random.default_rng(0))
        system.buffer.configure(("large", "small"))
        assert system.buffer.config_id == frozenset({"large"})  # the lag
        system.buffer.configure(("small",))
        assert system.buffer.config_id == frozenset({"large", "small"})

    def test_faults_survive_the_harness_copy(self):
        from repro.resilience.injectors import BankSwitchStuck
        system = make_bank_system()
        BankSwitchStuck().apply_to_system(system, np.random.default_rng(0))
        duplicate = system.buffer.copy()
        duplicate.configure(("large", "small"))
        assert duplicate.config_id == frozenset({"large"})


class FakeIsrRuntime:
    """Duck-typed stand-in exposing the ISR runtime's ADC seams."""

    def __init__(self):
        self._adc = Adc(bits=12, v_ref=2.56)
        self._sampler = type("S", (), {"adc": self._adc})()


class FakeUarchRuntime:
    def __init__(self):
        self.block = type("B", (), {"adc": Adc(bits=10, v_ref=2.56)})()


class TestMeasurementFaults:
    def test_adc_dropout_swaps_both_isr_seams(self):
        runtime = FakeIsrRuntime()
        AdcDropoutFault(dropout_rate=0.25).apply_to_runtime(
            runtime, np.random.default_rng(3))
        assert isinstance(runtime._adc, FaultyAdc)
        assert runtime._sampler.adc is runtime._adc
        assert runtime._adc.bits == 12  # geometry preserved

    def test_adc_stuck_swaps_the_uarch_block_adc(self):
        runtime = FakeUarchRuntime()
        AdcStuckFault().apply_to_runtime(runtime, np.random.default_rng(4))
        adc = runtime.block.adc
        assert isinstance(adc, FaultyAdc)
        assert adc.bits == 10
        # Stuck from the first conversion: every read is the same code.
        reads = {adc.convert(v) for v in (1.7, 2.0, 2.4)}
        assert len(reads) == 1

    def test_adc_fault_schedule_derives_from_the_trial_stream(self):
        # Same trial rng state -> same fault schedule; different trial ->
        # different schedule. This is the regression for the old implicit
        # default_rng(0) that made every campaign repeat one schedule.
        def dropped(seed):
            runtime = FakeIsrRuntime()
            AdcDropoutFault(dropout_rate=0.5).apply_to_runtime(
                runtime, np.random.default_rng(seed))
            return [runtime._adc.convert(2.0) for _ in range(64)]

        assert dropped(5) == dropped(5)
        assert dropped(5) != dropped(6)

    def test_adc_noise_installs_a_seeded_noisy_converter(self):
        runtime = FakeIsrRuntime()
        AdcNoiseFault(sigma=0.01).apply_to_runtime(
            runtime, np.random.default_rng(8))
        adc = runtime._adc
        assert adc.noise_sigma == pytest.approx(0.01)
        assert len({adc.convert(2.0) for _ in range(32)}) > 1

    def test_timer_jitter_reaches_a_jitterable_sampler(self):
        calls = []

        class Sampler:
            def set_jitter(self, rng, fraction):
                calls.append((rng, fraction))

        runtime = type("R", (), {"_sampler": Sampler()})()
        IsrTimerJitter(fraction=0.2).apply_to_runtime(
            runtime, np.random.default_rng(9))
        assert len(calls) == 1
        assert calls[0][1] == pytest.approx(0.2)

    def test_timer_jitter_is_a_noop_without_the_seam(self):
        IsrTimerJitter().apply_to_runtime(FakeUarchRuntime(),
                                          np.random.default_rng(10))

    def test_unknown_runtime_shape_is_an_error(self):
        with pytest.raises(TypeError):
            AdcStuckFault().apply_to_runtime(object(),
                                             np.random.default_rng(11))
