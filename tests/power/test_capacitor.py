"""Energy-buffer models: ESR behaviour, rebound, charge conservation."""

import pytest

from repro.power.capacitor import TwoBranchSupercap


def make_supercap(voltage=2.2, **overrides):
    params = dict(c_main=0.040, r_esr=4.0, c_redist=0.004, r_redist=20.0,
                  c_decoupling=100e-6, leakage_current=0.0, voltage=voltage)
    params.update(overrides)
    return TwoBranchSupercap(**params)


class TestIdealCapacitor:
    """The ideal capacitor with ESR (paper §IV-B, Figure 4's circuit): a
    TwoBranchSupercap with no redistribution branch and no decoupling."""

    def test_terminal_drop_is_ohmic(self):
        cap = TwoBranchSupercap(c_main=0.045, r_esr=10.0, voltage=2.0)
        cap.step(0.050, 1e-5)
        # ESR drop = 50 mA * 10 ohm = 0.5 V (plus a sliver of charge).
        assert cap.terminal_voltage == pytest.approx(1.5, abs=0.002)

    def test_rebound_is_instant(self):
        cap = TwoBranchSupercap(c_main=0.045, r_esr=10.0, voltage=2.0)
        cap.step(0.050, 0.001)
        cap.step(0.0, 1e-6)
        assert cap.terminal_voltage == pytest.approx(
            cap.open_circuit_voltage)

    def test_discharge_follows_i_over_c(self):
        cap = TwoBranchSupercap(c_main=0.010, r_esr=1.0, voltage=2.0)
        cap.step(0.010, 1.0)  # 10 mA for 1 s from 10 mF: dV = 1 V
        assert cap.open_circuit_voltage == pytest.approx(1.0)

    def test_leakage_drains(self):
        cap = TwoBranchSupercap(c_main=0.010, r_esr=1.0,
                                leakage_current=1e-3, voltage=2.0)
        cap.step(0.0, 1.0)
        assert cap.open_circuit_voltage == pytest.approx(1.9)

    def test_voltage_clamped_at_zero(self):
        cap = TwoBranchSupercap(c_main=1e-3, r_esr=1.0, voltage=0.1)
        cap.step(1.0, 10.0)
        assert cap.open_circuit_voltage == 0.0
        assert cap.terminal_voltage == 0.0

    def test_stored_energy(self):
        cap = TwoBranchSupercap(c_main=0.045, r_esr=4.0, voltage=2.0)
        assert cap.stored_energy == pytest.approx(0.09)

    def test_copy_is_independent(self):
        cap = TwoBranchSupercap(c_main=0.045, r_esr=4.0, voltage=2.0)
        clone = cap.copy()
        cap.step(0.010, 1.0)
        assert clone.open_circuit_voltage == pytest.approx(2.0)

    def test_reset(self):
        cap = TwoBranchSupercap(c_main=0.045, r_esr=4.0, voltage=2.0)
        cap.step(0.050, 0.01)
        cap.reset(2.4)
        assert cap.terminal_voltage == pytest.approx(2.4)

    @pytest.mark.parametrize("kwargs", [
        dict(c_main=0.0, r_esr=1.0),
        dict(c_main=-1.0, r_esr=1.0),
        dict(c_main=0.01, r_esr=-1.0),
        dict(c_main=0.01, r_esr=1.0, leakage_current=-1e-9),
    ])
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            TwoBranchSupercap(**kwargs)

    def test_invalid_step(self):
        cap = TwoBranchSupercap(c_main=0.01, r_esr=1.0, voltage=1.0)
        with pytest.raises(ValueError):
            cap.step(0.01, 0.0)

    def test_negative_reset_rejected(self):
        cap = TwoBranchSupercap(c_main=0.01, r_esr=1.0, voltage=1.0)
        with pytest.raises(ValueError):
            cap.reset(-0.1)


class TestTwoBranchSupercap:
    def test_rest_state_is_stable(self):
        cap = make_supercap(2.2)
        for _ in range(100):
            cap.step(0.0, 0.01)
        assert cap.terminal_voltage == pytest.approx(2.2, abs=1e-9)

    def test_load_causes_esr_drop(self):
        cap = make_supercap(2.2)
        v = 2.2
        for _ in range(100):
            v = cap.step(0.070, 1e-3)
        # Separate the ohmic drop from the consumed charge: the ESR part
        # should be near I * R_parallel(4 || 20) = 0.23 V.
        charge_drop = 0.070 * 0.100 / cap.total_capacitance
        esr_drop = (2.2 - v) - charge_drop
        assert 0.18 < esr_drop < 0.30

    def test_rebound_is_gradual_not_instant(self):
        cap = make_supercap(2.2)
        for _ in range(100):
            cap.step(0.070, 1e-3)
        v_loaded = cap.terminal_voltage
        cap.step(0.0, 1e-4)
        v_shortly_after = cap.terminal_voltage
        for _ in range(5000):
            cap.step(0.0, 1e-3)
        v_settled = cap.terminal_voltage
        assert v_loaded < v_shortly_after < v_settled
        # A fast read right after load removal must still be visibly
        # depressed — this is what separates Catnap-Measured from -Slow.
        assert v_settled - v_shortly_after > 0.02

    def test_charge_conserved_without_load_or_leakage(self):
        cap = make_supercap(2.3)
        q_before = (cap.c_main * cap._v_main
                    + cap.c_redist * cap._v_redist
                    + cap.c_decoupling * cap._v_term)
        for _ in range(1000):
            cap.step(0.0, 1e-3)
        q_after = (cap.c_main * cap._v_main
                   + cap.c_redist * cap._v_redist
                   + cap.c_decoupling * cap._v_term)
        assert q_after == pytest.approx(q_before, rel=1e-6)

    def test_energy_decreases_under_load(self):
        cap = make_supercap(2.2)
        e0 = cap.stored_energy
        for _ in range(100):
            cap.step(0.010, 1e-3)
        assert cap.stored_energy < e0

    def test_total_capacitance(self):
        cap = make_supercap()
        assert cap.total_capacitance == pytest.approx(0.0441)

    def test_settle_conserves_charge(self):
        cap = make_supercap(2.2)
        for _ in range(50):
            cap.step(0.050, 1e-3)
        oc = cap.open_circuit_voltage
        cap.settle()
        assert cap.terminal_voltage == pytest.approx(oc)

    def test_no_redist_branch(self):
        cap = TwoBranchSupercap(c_main=0.045, r_esr=4.0, voltage=2.0)
        cap.step(0.050, 1e-3)
        assert cap.terminal_voltage < 2.0

    def test_no_decoupling_means_instant_terminal(self):
        cap = TwoBranchSupercap(c_main=0.045, r_esr=4.0, voltage=2.0)
        cap.step(0.050, 1e-6)
        # Without decoupling the terminal node tracks v* immediately:
        # drop = I * R = 0.2 V.
        assert 2.0 - cap.terminal_voltage == pytest.approx(0.2, abs=0.01)

    def test_leakage_drains_main_branch(self):
        cap = make_supercap(2.0, leakage_current=1e-4)
        for _ in range(1000):
            cap.step(0.0, 0.01)   # 10 s at 100 uA on ~44 mF: ~23 mV
        assert cap.open_circuit_voltage == pytest.approx(1.977, abs=0.005)

    def test_aged_copy(self):
        cap = make_supercap(2.2)
        old = cap.aged(capacitance_factor=0.8, esr_factor=2.0)
        assert old.c_main == pytest.approx(cap.c_main * 0.8)
        assert old.r_esr == pytest.approx(cap.r_esr * 2.0)
        assert old.open_circuit_voltage == pytest.approx(2.2)

    def test_aged_rejects_nonpositive_factors(self):
        with pytest.raises(ValueError):
            make_supercap().aged(capacitance_factor=0.0)

    def test_with_decoupling(self):
        cap = make_supercap(2.2)
        more = cap.with_decoupling(6.4e-3)
        assert more.c_decoupling == pytest.approx(6.4e-3)
        assert more.open_circuit_voltage == pytest.approx(2.2)

    def test_more_decoupling_softens_short_pulse(self):
        small = make_supercap(2.2, c_decoupling=100e-6)
        big = make_supercap(2.2, c_decoupling=6.4e-3)
        for cap in (small, big):
            for _ in range(10):
                cap.step(0.050, 1e-4)  # 1 ms pulse
        assert big.terminal_voltage > small.terminal_voltage

    def test_copy_preserves_state(self):
        cap = make_supercap(2.2)
        for _ in range(10):
            cap.step(0.050, 1e-3)
        clone = cap.copy()
        assert clone.terminal_voltage == pytest.approx(cap.terminal_voltage)
        assert clone.open_circuit_voltage == pytest.approx(
            cap.open_circuit_voltage)

    @pytest.mark.parametrize("kwargs", [
        dict(c_main=0.0, r_esr=1.0),
        dict(c_main=0.01, r_esr=0.0),
        dict(c_main=0.01, r_esr=1.0, c_redist=-0.001),
        dict(c_main=0.01, r_esr=1.0, c_redist=0.001, r_redist=0.0),
        dict(c_main=0.01, r_esr=1.0, c_decoupling=-1e-6),
        dict(c_main=0.01, r_esr=1.0, leakage_current=-1e-9),
    ])
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            TwoBranchSupercap(**kwargs)

    def test_invalid_step_dt(self):
        with pytest.raises(ValueError):
            make_supercap().step(0.01, -1e-3)

    def test_repr_mentions_esr(self):
        assert "ESR" in repr(make_supercap())
