"""Property-based tests on the energy-buffer physics."""

import importlib.util
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power.capacitor import IdealCapacitor, TwoBranchSupercap
from repro.power.catalog import build_bank_survey, reference_catalog
from repro.power.esr_profile import DEFAULT_PULSE_WIDTHS, measure_esr_curve
from repro.power.reconfigurable import ReconfigurableBuffer, capybara_bank_set

voltages = st.floats(min_value=0.5, max_value=3.0)
currents = st.floats(min_value=0.0, max_value=0.2)
small_dts = st.floats(min_value=1e-6, max_value=1e-2)


def make_supercap(voltage):
    return TwoBranchSupercap(c_main=0.040, r_esr=4.0, c_redist=0.004,
                             r_redist=20.0, c_decoupling=100e-6,
                             voltage=voltage)


class TestIdealCapacitorProperties:
    @given(v=voltages, i=currents, dt=small_dts)
    def test_discharge_never_increases_open_circuit_voltage(self, v, i, dt):
        cap = IdealCapacitor(capacitance=0.045, esr=4.0, voltage=v)
        cap.step(i, dt)
        assert cap.open_circuit_voltage <= v + 1e-12

    @given(v=voltages, i=currents)
    def test_terminal_drop_matches_ohms_law(self, v, i):
        cap = IdealCapacitor(capacitance=0.045, esr=4.0, voltage=v)
        cap.step(i, 1e-9)  # negligible charge movement
        expected = max(0.0, v - i * 4.0)
        assert math.isclose(cap.terminal_voltage, expected,
                            rel_tol=1e-6, abs_tol=1e-6)

    @given(v=voltages)
    def test_energy_consistent_with_voltage(self, v):
        cap = IdealCapacitor(capacitance=0.045, voltage=v)
        assert math.isclose(cap.stored_energy, 0.5 * 0.045 * v * v,
                            rel_tol=1e-12)


class TestSupercapProperties:
    @given(v=voltages, i=currents, dt=small_dts)
    @settings(max_examples=60)
    def test_terminal_voltage_stays_nonnegative(self, v, i, dt):
        cap = make_supercap(v)
        for _ in range(5):
            assert cap.step(i, dt) >= 0.0

    @given(v=voltages, i=st.floats(min_value=1e-4, max_value=0.2),
           dt=small_dts)
    @settings(max_examples=60)
    def test_loaded_terminal_below_rest(self, v, i, dt):
        cap = make_supercap(v)
        cap.step(i, dt)
        assert cap.terminal_voltage < v

    @given(v=voltages, i=currents, dt=small_dts, steps=st.integers(1, 20))
    @settings(max_examples=60)
    def test_energy_never_created(self, v, i, dt, steps):
        cap = make_supercap(v)
        e0 = cap.stored_energy
        for _ in range(steps):
            cap.step(i, dt)
        assert cap.stored_energy <= e0 + 1e-12

    @given(v=voltages)
    def test_settle_preserves_charge(self, v):
        cap = make_supercap(v)
        cap.step(0.05, 0.005)
        q_before = (cap.c_main * cap._v_main + cap.c_redist * cap._v_redist
                    + cap.c_decoupling * cap._v_term)
        cap.settle()
        q_after = (cap.c_main + cap.c_redist + cap.c_decoupling) * \
            cap.terminal_voltage
        assert math.isclose(q_before, q_after, rel_tol=1e-9)

    @given(v=voltages, i=st.floats(min_value=1e-3, max_value=0.1))
    @settings(max_examples=40)
    def test_rebound_monotone_after_load_removal(self, v, i):
        cap = make_supercap(v)
        for _ in range(20):
            cap.step(i, 1e-3)
        last = cap.terminal_voltage
        for _ in range(50):
            now = cap.step(0.0, 1e-3)
            assert now >= last - 1e-12
            last = now

    @given(v=voltages, factor_c=st.floats(0.5, 1.0),
           factor_r=st.floats(1.0, 3.0))
    @settings(max_examples=40)
    def test_aging_preserves_rest_voltage(self, v, factor_c, factor_r):
        cap = make_supercap(v)
        aged = cap.aged(factor_c, factor_r)
        assert math.isclose(aged.open_circuit_voltage, v, rel_tol=1e-9)


# -- one stepping body per buffer ---------------------------------------------
#
# ``step`` is the one-step case of ``pulse``, so neither can serve as the
# other's oracle. The reference below is a transcription of the two step
# bodies as they read when every call re-derived its constants through
# the properties (``_has_redist``, ``_conductance``, ``_target_terminal``).
# The hoisted body must reproduce it bit for bit, and the whole state, not
# only the returned minimum: a 1-ulp change in ``v_avg`` almost never
# reaches the minimum, but it is still a different program.


def reference_ideal_step(cap, i_load, dt):
    drain = i_load + (cap.leakage_current if cap._v > 0 else 0.0)
    cap._v = max(0.0, cap._v - drain * dt / cap.capacitance)
    cap._i_last = i_load
    return max(0.0, cap._v - cap._i_last * cap.esr)


def reference_supercap_step(cap, i_load, dt):
    has_redist = cap.c_redist > 0 and math.isfinite(cap.r_redist)
    g = 1.0 / cap.r_esr
    if has_redist:
        g += 1.0 / cap.r_redist
    num = cap._v_main / cap.r_esr - i_load
    if has_redist:
        num += cap._v_redist / cap.r_redist
    v_star = num / g
    if cap.c_decoupling > 0:
        tau = cap.c_decoupling / g
        ratio = dt / tau
        alpha = math.exp(-ratio)
        v_avg = v_star + (cap._v_term - v_star) * (1.0 - alpha) / ratio
        v_term_new = v_star + (cap._v_term - v_star) * alpha
    else:
        v_avg = v_star
        v_term_new = v_star

    i_main = (cap._v_main - v_avg) / cap.r_esr
    leak = cap.leakage_current if cap._v_main > 0 else 0.0
    cap._v_main = max(0.0, cap._v_main - (i_main + leak) * dt / cap.c_main)
    if has_redist:
        i_redist = (cap._v_redist - v_avg) / cap.r_redist
        cap._v_redist = max(
            0.0, cap._v_redist - i_redist * dt / cap.c_redist
        )
    cap._v_term = max(0.0, v_term_new)
    return cap._v_term


def _stepped(buffer):
    """The object holding the stepping state (a reconfigurable buffer's
    active group)."""
    if isinstance(buffer, ReconfigurableBuffer):
        return buffer._group
    return buffer


def reference_step(buffer, i_load, dt):
    cap = _stepped(buffer)
    if isinstance(cap, IdealCapacitor):
        return reference_ideal_step(cap, i_load, dt)
    return reference_supercap_step(cap, i_load, dt)


def reference_pulse(buffer, i_load, dt, steps):
    v_min = math.inf
    for _ in range(steps):
        v_min = min(v_min, reference_step(buffer, i_load, dt))
    return v_min


def reference_esr_curve(buffer, test_current=0.010, rest_voltage=2.2):
    """``measure_esr_curve`` as a per-step loop of 400 reference steps."""
    values = []
    for width in DEFAULT_PULSE_WIDTHS:
        probe = buffer.copy()
        probe.reset(rest_voltage)
        dt = width / 400
        v_min = rest_voltage
        for _ in range(400):
            v_min = min(v_min, reference_step(probe, test_current, dt))
        charge_drop = test_current * width / probe.total_capacitance
        esr_drop = (rest_voltage - v_min) - charge_drop
        values.append(max(0.0, esr_drop / test_current))
    return tuple(values)


def state(buffer):
    cap = _stepped(buffer)
    if isinstance(cap, IdealCapacitor):
        return (cap._v, cap._i_last)
    return (cap._v_main, cap._v_redist, cap._v_term)


def bits(*values):
    """Exact identity of floats: unlike ``==``, it tells 0.0 from -0.0,
    and a NaN equals a NaN."""
    return tuple(float(v).hex() for v in values)


node_voltages = st.floats(min_value=0.0, max_value=3.0)
pulse_currents = st.floats(min_value=-0.2, max_value=0.2)
pulse_dts = st.floats(min_value=1e-7, max_value=1e-2)
leakages = st.just(0.0) | st.floats(min_value=1e-9, max_value=1e-3)


@st.composite
def supercaps(draw):
    """Two-branch buffers with and without a redistribution branch (no
    C_redist, or an infinite R_redist), decoupling and leakage. Low ESR
    with long steps puts some far past ``max_stable_dt``."""
    branch = draw(st.sampled_from(["redist", "no-c-redist", "no-r-redist"]))
    c_redist = (0.0 if branch == "no-c-redist"
                else draw(st.floats(min_value=1e-4, max_value=0.05)))
    r_redist = (math.inf if branch == "no-r-redist"
                else draw(st.floats(min_value=0.05, max_value=200.0)))
    cap = TwoBranchSupercap(
        c_main=draw(st.floats(min_value=1e-4, max_value=0.1)),
        r_esr=draw(st.floats(min_value=1e-3, max_value=50.0)),
        c_redist=c_redist,
        r_redist=r_redist,
        c_decoupling=draw(st.just(0.0)
                          | st.floats(min_value=1e-6, max_value=1e-3)),
        leakage_current=draw(leakages),
    )
    cap._v_main = draw(node_voltages)
    cap._v_redist = draw(node_voltages)
    cap._v_term = draw(node_voltages)
    return cap


@st.composite
def ideal_caps(draw):
    cap = IdealCapacitor(
        capacitance=draw(st.floats(min_value=1e-4, max_value=0.1)),
        esr=draw(st.just(0.0) | st.floats(min_value=1e-3, max_value=50.0)),
        leakage_current=draw(leakages),
        voltage=draw(node_voltages),
    )
    cap._i_last = draw(pulse_currents)
    return cap


buffers = supercaps() | ideal_caps()


def _golden_survey_buffers():
    """The buffer of every surveyed golden catalog part, built exactly as
    the corpus builds it (``tests/golden/regen.py``, loaded by path)."""
    path = Path(__file__).resolve().parents[1] / "golden" / "regen.py"
    spec = importlib.util.spec_from_file_location("golden_regen_buffers",
                                                  path)
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    catalog = reference_catalog(
        parts_per_technology=regen.PARTS_PER_TECHNOLOGY,
        seed=regen.CATALOG_SEED)
    survey = {}
    for part in catalog:
        banks = build_bank_survey([part])
        if banks:
            survey[part.part_number] = \
                regen._system_for_bank(banks[0]).buffer
    return survey


class TestSharedSteppingBody:
    @given(buffer=buffers, i_load=pulse_currents, dt=pulse_dts,
           steps=st.integers(min_value=1, max_value=50))
    @settings(max_examples=300, deadline=None)
    def test_pulse_equals_reference_loop(self, buffer, i_load, dt, steps):
        expected = buffer.copy()
        v_min = reference_pulse(expected, i_load, dt, steps)
        assert bits(buffer.pulse(i_load, dt, steps)) == bits(v_min)
        assert bits(*state(buffer)) == bits(*state(expected))

    @given(buffer=buffers, i_load=pulse_currents, dt=pulse_dts)
    @settings(max_examples=300, deadline=None)
    def test_step_equals_one_reference_step(self, buffer, i_load, dt):
        expected = buffer.copy()
        v = reference_step(expected, i_load, dt)
        assert bits(buffer.step(i_load, dt)) == bits(v)
        assert bits(*state(buffer)) == bits(*state(expected))

    @pytest.mark.parametrize("i_load", [math.nan, math.inf, -math.inf,
                                        0.0, -0.0])
    @pytest.mark.parametrize("make", [
        lambda v: IdealCapacitor(capacitance=0.045, esr=4.0,
                                 leakage_current=1e-6, voltage=v),
        make_supercap,
        lambda v: TwoBranchSupercap(c_main=0.040, r_esr=4.0, voltage=v),
        lambda v: TwoBranchSupercap(c_main=0.040, r_esr=4.0, c_redist=0.004,
                                    r_redist=math.inf, c_decoupling=100e-6,
                                    voltage=v),
    ])
    def test_clamps_pick_what_max_picks(self, make, i_load):
        # NaN and -0.0 reach the zero clamps only from odd inputs; the
        # body must still clamp them to the float max(0.0, x) returns.
        for v in (2.0, 0.0, -0.0):
            buffer = make(v)
            expected = buffer.copy()
            v_min = reference_pulse(expected, i_load, 1e-4, 3)
            assert bits(buffer.pulse(i_load, 1e-4, 3)) == bits(v_min)
            assert bits(*state(buffer)) == bits(*state(expected))

    @pytest.mark.parametrize("branch", [{}, {"c_redist": 0.0},
                                        {"r_redist": math.inf}])
    def test_diverging_bank_pulses_match_reference(self, branch):
        # The golden catalog's CERA-0001 bank: max_stable_dt ~7e-8 s, far
        # below the 0.5 µs to 0.75 ms steps of a 400-step pulse, so its
        # state blows up and collapses to 0 V. Also without its
        # redistribution branch, either way (those stay bounded).
        cera = _golden_survey_buffers()["CERA-0001"]
        params = dict(c_main=cera.c_main, r_esr=cera.r_esr,
                      c_redist=cera.c_redist, r_redist=cera.r_redist,
                      c_decoupling=cera.c_decoupling,
                      leakage_current=cera.leakage_current)
        params.update(branch)
        buffer = TwoBranchSupercap(**params)
        diverged = collapsed = False
        for width in DEFAULT_PULSE_WIDTHS:
            probe = buffer.copy()
            probe.reset(2.2)
            expected = probe.copy()
            dt = width / 400
            assert bits(probe.pulse(0.010, dt, 400)) \
                == bits(reference_pulse(expected, 0.010, dt, 400))
            assert bits(*state(probe)) == bits(*state(expected))
            diverged = diverged or max(state(probe)) > 1e100
            collapsed = collapsed or state(probe) == (0.0, 0.0, 0.0)
        assert (diverged and collapsed) == (not branch)

    @pytest.mark.parametrize("config", [["small"], ["large"],
                                        ["large", "small"]])
    def test_reconfigurable_buffer_pulses_its_group(self, config):
        buffer = ReconfigurableBuffer(capybara_bank_set(), config,
                                      voltage=2.4)
        expected = buffer.copy()
        for i_load, dt, steps in ((0.010, 1e-5, 400), (-0.002, 1e-4, 37),
                                  (0.050, 1e-3, 1)):
            assert bits(buffer.pulse(i_load, dt, steps)) \
                == bits(reference_pulse(expected, i_load, dt, steps))
            assert bits(*state(buffer)) == bits(*state(expected))
        assert bits(buffer.step(0.020, 2e-4)) \
            == bits(reference_step(expected, 0.020, 2e-4))
        assert bits(*state(buffer)) == bits(*state(expected))
        assert bits(*measure_esr_curve(buffer).esr_values) \
            == bits(*reference_esr_curve(buffer))

    def test_esr_curves_of_golden_parts_match_reference(self):
        # Value for value, the unstable ones included: CERA-0001 and
        # TANT-0000 read a dc ESR of about 213 ohm from a pulse that
        # collapsed to 0 V (an unstable step, not the part's ESR), and the
        # shared body keeps that exactly.
        survey = _golden_survey_buffers()
        assert len(survey) == 8
        for part_number, buffer in survey.items():
            curve = measure_esr_curve(buffer)
            assert curve.pulse_widths == DEFAULT_PULSE_WIDTHS
            assert bits(*curve.esr_values) \
                == bits(*reference_esr_curve(buffer)), part_number

    @pytest.mark.parametrize("cap", [
        IdealCapacitor(capacitance=0.045, esr=4.0, voltage=2.0),
        make_supercap(2.0),
    ])
    def test_pulse_rejects_bad_steps(self, cap):
        for dt, steps in ((0.0, 1), (-1e-3, 4), (1e-3, 0), (1e-3, -3)):
            with pytest.raises(ValueError):
                cap.pulse(0.010, dt, steps)
        assert cap.terminal_voltage == 2.0
