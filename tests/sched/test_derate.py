"""Brown-out backoff: policy derates and the adaptive scheduler's use."""

import pytest

from repro.loads.trace import CurrentTrace
from repro.power.harvester import ConstantPowerHarvester
from repro.power.system import capybara_power_system
from repro.sched.adaptive import DERATE_MAX, AdaptiveCulpeoScheduler
from repro.sched.estimators import CulpeoREstimator
from repro.sched.policy import CulpeoPolicy
from repro.sched.task import Task, TaskChain
from repro.sim.engine import PowerSystemSimulator
from repro.sim.faults import FaultyAdc


@pytest.fixture
def chains():
    sense = Task("sense", CurrentTrace.constant(0.003, 0.3))
    return [TaskChain("report", [sense], deadline=5.0)]


@pytest.fixture
def policy(system, calculator, chains):
    return CulpeoPolicy.build(system, CulpeoREstimator(calculator, "isr"),
                              chains, [])


class TestPolicyDerate:
    def test_no_derate_means_base_gate(self, policy):
        assert policy.derate == {}
        base = policy.gate("report", 0)
        assert policy.v_off < base <= policy.v_high

    def test_derate_adds_on_top_of_the_compiled_gate(self, policy):
        base = policy.gate("report", 0)
        policy.derate["report"] = 0.04
        assert policy.gate("report", 0) == pytest.approx(base + 0.04)

    def test_derated_gate_caps_at_v_high(self, policy):
        policy.derate["report"] = 10.0
        assert policy.gate("report", 0) == pytest.approx(policy.v_high)

    def test_unknown_chain_still_raises(self, policy):
        policy.derate["ghost"] = 0.1
        with pytest.raises(KeyError):
            policy.gate("ghost", 0)


def make_scheduler():
    system = capybara_power_system(harvester=ConstantPowerHarvester(5e-3))
    system.rest_at(system.monitor.v_high)
    engine = PowerSystemSimulator(system)
    sense = Task("sense", CurrentTrace.constant(0.003, 0.3))
    chain = TaskChain("report", [sense], deadline=5.0)
    return AdaptiveCulpeoScheduler(engine, [chain]), chain


class TestAdaptiveBackoff:
    def test_backoff_doubles_per_brownout(self):
        sched, chain = make_scheduler()
        sched._raise_derate(chain.name)
        assert sched.policy.derate[chain.name] == pytest.approx(0.02)
        sched._raise_derate(chain.name)
        assert sched.policy.derate[chain.name] == pytest.approx(0.04)
        assert sched.brownout_backoffs == 2

    def test_backoff_caps_at_derate_max(self):
        sched, chain = make_scheduler()
        for _ in range(16):
            sched._raise_derate(chain.name)
        assert sched.policy.derate[chain.name] == pytest.approx(DERATE_MAX)

    def test_success_decays_and_clears(self):
        sched, chain = make_scheduler()
        sched._raise_derate(chain.name)
        sched._decay_derate(chain.name)
        assert sched.policy.derate[chain.name] == pytest.approx(0.01)
        for _ in range(8):
            sched._decay_derate(chain.name)
        assert chain.name not in sched.policy.derate

    def test_decay_without_derate_is_a_noop(self):
        sched, chain = make_scheduler()
        sched._decay_derate(chain.name)
        assert chain.name not in sched.policy.derate

    def test_discarded_profiles_degrade_to_v_high_gating(self):
        # Corrupt the runtime's ADC so every re-profile capture is
        # discarded, forget the earlier estimate, and re-profile: the
        # policy must compile a V_high fallback, not crash or gate low.
        sched, chain = make_scheduler()
        bad = FaultyAdc(bits=12, v_ref=2.56, dropout_rate=1.0, seed=3)
        sched.runtime._adc = bad
        sched.runtime._sampler.adc = bad
        sched.policy.estimates.pop("sense")
        sched._profile_all()
        estimate = sched.policy.estimates["sense"]
        assert "fallback" in estimate.method
        assert estimate.v_safe == pytest.approx(sched.policy.v_high)
        assert sched.policy.gate("report", 0) == pytest.approx(
            sched.policy.v_high)

    def test_prior_estimate_survives_a_discarded_reprofile(self):
        # With a previous good estimate on file, a poisoned re-profile
        # keeps the stale-but-trusted value instead of jumping to V_high.
        sched, chain = make_scheduler()
        before = sched.policy.estimates["sense"]
        bad = FaultyAdc(bits=12, v_ref=2.56, dropout_rate=1.0, seed=4)
        sched.runtime._adc = bad
        sched.runtime._sampler.adc = bad
        sched._profile_all()
        assert sched.policy.estimates["sense"] == before
