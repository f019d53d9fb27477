"""The compiled stepping kernel: that it runs, its errors, its build.

The ``==`` suites (``tests/properties/test_property_fastpath.py``,
``test_idle_hops.py`` and others) hold only if ``fast=True`` really runs
the compiled body. Where a C compiler is on PATH, the first test here
fails if it did not, so those suites cannot pass by comparing the
reference loop with itself.
"""

import errno
import math
import shutil
import threading

import pytest

from repro import obs
from repro.loads.trace import CurrentTrace
from repro.power.booster import CurvedEfficiency, OutputBooster
from repro.power.capacitor import TwoBranchSupercap
from repro.power.harvester import SolarHarvester
from repro.power.reconfigurable import (
    ReconfigurableBuffer,
    RedistLossBuffer,
    StaleTagBuffer,
    StuckSwitchBuffer,
    capybara_bank_set,
)
from repro.power.system import capybara_power_system
from repro.sim import fastpath
from repro.sim.adc import Adc, SamplingObserver
from repro.sim.engine import PowerSystemSimulator

HAS_COMPILER = any(shutil.which(cc) for cc in ("cc", "gcc", "clang"))


def counted_run(fast, system, trace, observers=()):
    """Run ``trace``; returns the result, the end state and the number
    of kernel and reference-loop calls."""
    with obs.observe() as state:
        sim = PowerSystemSimulator(system, observers=list(observers),
                                   fast=fast)
        result = sim.run_trace(trace, settle_after=0.01)
    counters = state.metrics.snapshot()["counters"]
    calls = (counters.get("sim.fastpath.calls", 0),
             counters.get("sim.reference.calls", 0))
    return (result, sim.time, system.buffer.terminal_voltage), calls


@pytest.mark.skipif(not HAS_COMPILER, reason="no C compiler on PATH")
def test_fast_runs_the_compiled_kernel():
    system = capybara_power_system()
    system.rest_at(2.4)
    assert fastpath.plant(system) is not None
    _, (kernel, reference) = counted_run(
        True, system, CurrentTrace([(0.02, 0.05), (0.0, 0.01)]))
    assert kernel > 0 and reference == 0


class CalledSolar(SolarHarvester):
    """Solar harvest the kernel does not inline: a subclass may override
    ``power_at``, so the kernel asks Python for it."""


class Sqrt:
    """A non-stock efficiency model: only the reference loop runs it."""

    def efficiency(self, v):
        return min(0.93, 0.6 * math.sqrt(v))


def solar_plant(efficiency=None):
    """A plant whose harvester Python evaluates: every step re-enters
    the kernel for its power. ``efficiency`` replaces both boosters'
    efficiency models."""
    system = capybara_power_system()
    system.harvester = CalledSolar(peak=6e-3, period=0.2)
    if efficiency is not None:
        system.output_booster.efficiency_model = efficiency
        system.input_booster.efficiency_model = efficiency
    system.rest_at(2.3)
    return system


def sampled_runs(efficiency=None):
    """The called-solar plant on both loops with a sampler attached:
    per loop, the end state, the sampler's count and minimum, and the
    kernel and reference-loop calls."""
    trace = CurrentTrace([(0.015, 0.03), (0.0, 0.05), (0.03, 0.02)])
    runs = []
    for fast in (True, False):
        sampler = SamplingObserver(Adc(bits=12), 1e-3,
                                   burden_current=2e-4)
        sampler.enable(0.0)
        out, calls = counted_run(fast, solar_plant(efficiency), trace,
                                 [sampler])
        runs.append((out, sampler.sample_count, sampler.v_min, calls))
    assert runs[0][:3] == runs[1][:3]
    assert runs[0][1] > 50
    return runs


def test_called_components_match_the_reference():
    runs = sampled_runs()
    if HAS_COMPILER:
        assert runs[0][3][1] == 0  # the fast run never left the kernel


def test_a_custom_efficiency_model_runs_the_reference_loop():
    runs = sampled_runs(Sqrt())
    assert fastpath.plant(solar_plant(Sqrt())) is None
    kernel, reference = runs[0][3]
    assert kernel == 0 and reference > 0


class SteppedBank(ReconfigurableBuffer):
    """A bank set that steps itself: only the reference loop runs it."""

    def step(self, i_load, dt):
        return super().step(i_load, dt)


#: The bank-fault proxies, which change how banks are configured and
#: tagged, never how they step; "none" is the bare bank set.
BANK_FAULTS = {
    "none": lambda bank: bank,
    "stuck-switch": StuckSwitchBuffer,
    "redistribution-loss": lambda bank: RedistLossBuffer(bank, 0.05),
    "stale-tag": StaleTagBuffer,
}


@pytest.mark.parametrize("fault", sorted(BANK_FAULTS))
@pytest.mark.parametrize("bank_type", [ReconfigurableBuffer, SteppedBank])
def test_the_kernel_steps_stock_banks_behind_a_fault_proxy(bank_type,
                                                           fault):
    trace = CurrentTrace([(0.02, 0.05), (0.0, 0.01)])
    runs = []
    for fast in (True, False):
        system = capybara_power_system()
        system.buffer = BANK_FAULTS[fault](
            bank_type(capybara_bank_set(), ("large", "small")))
        system.rest_at(2.4)
        runs.append(counted_run(fast, system, trace))
    (on_kernel, (kernel, reference)), (on_reference, _) = runs
    assert on_kernel == on_reference
    stock = bank_type is ReconfigurableBuffer
    assert fastpath.supported(system) is stock
    if HAS_COMPILER:
        assert (kernel > 0, reference == 0) == (stock, stock)


def test_solar_harvest_is_evaluated_in_the_kernel():
    trace = CurrentTrace([(0.015, 0.03), (0.0, 0.3), (0.03, 0.02)])
    runs = []
    for fast in (True, False):
        system = capybara_power_system()
        system.harvester = SolarHarvester(peak=6e-3, period=0.2, phase=0.4)
        calls = []
        power_at = system.harvester.power_at
        system.harvester.power_at = lambda t: calls.append(t) or power_at(t)
        system.rest_at(2.3)
        out, _ = counted_run(fast, system, trace)
        runs.append((out, len(calls)))
    assert runs[0][0] == runs[1][0]
    assert runs[1][1] > 50  # the reference loop asks at every step
    if HAS_COMPILER:
        assert runs[0][1] == 0  # the kernel evaluates the sinusoid itself


# -- the reference loop's errors ---------------------------------------------

def zero_efficiency(system):
    """An output booster whose efficiency clips to 0 under load."""
    system.output_booster = OutputBooster(
        v_out=system.output_booster.v_out,
        efficiency_model=CurvedEfficiency(base=0.0, slope=0.0,
                                          curvature=0.0, floor=0.0))


def open_esr(system):
    """An open main branch and no redistribution: zero conductance."""
    system.buffer = TwoBranchSupercap(c_main=0.045, r_esr=math.inf,
                                      voltage=2.4)


def negative_tau(system):
    """A decoupled node with a negative time constant: exp overflows."""
    system.buffer = TwoBranchSupercap(c_main=0.045, r_esr=1.0,
                                      c_decoupling=1e-6, voltage=2.4)
    system.buffer.r_esr = -1e-3


def negative_harvest(system):
    """A harvester reporting negative power (the fast loop used to charge
    with it; the reference rejects it)."""
    class Negative:
        def power_at(self, t):
            return -1e-3

    system.harvester = Negative()


def short_esr_negative_harvest(system):
    """A zero ESR and a negative harvest power on an undecoupled buffer:
    the reference rejects the harvest before its buffer step divides by
    zero, so the kernel must too (it derives the conductance itself and
    reports the zero divisor where the reference divides)."""
    system.buffer = TwoBranchSupercap(c_main=0.045, r_esr=1.0, voltage=2.4)
    system.buffer.r_esr = 0.0
    negative_harvest(system)


def short_decoupled_esr_negative_harvest(system):
    """The same on a decoupled buffer under load: the reference's
    ``_transient_tau`` divides by zero at the segment's start, before
    any step asks the harvester."""
    system.buffer = TwoBranchSupercap(c_main=0.045, r_esr=1.0,
                                      c_decoupling=1e-4, voltage=2.4)
    system.buffer.r_esr = 0.0
    negative_harvest(system)


def infinite_phase(system):
    """A solar harvester whose sine argument is infinite: math.sin
    raises a domain error."""
    system.harvester = SolarHarvester(peak=1e-3, period=1.0, phase=math.inf)


@pytest.mark.parametrize("make, error", [
    (zero_efficiency, ZeroDivisionError),
    (open_esr, ZeroDivisionError),
    (negative_tau, OverflowError),
    (negative_harvest, ValueError),
    (infinite_phase, ValueError),
    (short_esr_negative_harvest, ValueError),
    (short_decoupled_esr_negative_harvest, ZeroDivisionError),
], ids=["zero-efficiency", "zero-conductance", "exp-overflow",
        "negative-harvest", "solar-domain", "harvest-before-zero-esr",
        "zero-esr-at-loaded-start"])
@pytest.mark.parametrize("fast", [True, False])
def test_errors_match_the_reference(make, error, fast):
    system = capybara_power_system()
    system.rest_at(2.4)
    make(system)
    sim = PowerSystemSimulator(system, fast=fast)
    with pytest.raises(error):
        sim.run_trace(CurrentTrace([(0.01, 0.01)]))


# -- building and loading ----------------------------------------------------

@pytest.fixture
def cold(tmp_path, monkeypatch):
    """A private copy of the source, so builds start from a cold cache."""
    source = tmp_path / "_kernel.c"
    shutil.copy(fastpath._SOURCE, source)
    monkeypatch.setattr(fastpath, "_SOURCE", source)
    return tmp_path / "__pycache__"


@pytest.mark.skipif(not HAS_COMPILER, reason="no C compiler on PATH")
def test_concurrent_cold_builds_publish_one_library(cold, monkeypatch):
    built = []
    compile_ = fastpath._compile
    monkeypatch.setattr(fastpath, "_compile",
                        lambda *a: built.append(1) or compile_(*a))
    kernels, errors = [], []

    def build():
        try:
            kernels.append(fastpath._build())
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=build) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
        assert not thread.is_alive()
    assert not errors and len(kernels) == 4
    # one library, no temporary file left behind
    names = [p.name for p in cold.iterdir()]
    assert len(names) == 1 and names[0].startswith("_kernel-")
    assert 1 <= len(built) <= 4
    # warm: loaded from the cache, nothing compiled
    built.clear()
    fastpath._build()
    assert built == []


@pytest.mark.skipif(not HAS_COMPILER, reason="no C compiler on PATH")
def test_edited_source_gets_its_own_library(cold):
    fastpath._build()
    fastpath._SOURCE.write_text(fastpath._SOURCE.read_text() + "\n")
    fastpath._build()
    assert len(list(cold.glob("_kernel-*.so"))) == 2


@pytest.mark.skipif(not HAS_COMPILER, reason="no C compiler on PATH")
@pytest.mark.parametrize("refusal", [
    PermissionError(errno.EACCES, "Permission denied"),
    OSError(errno.EROFS, "Read-only file system"),
])
def test_read_only_cache_builds_privately(cold, monkeypatch, refusal):
    compile_ = fastpath._compile

    def refuse_cache(compiler, cache, name):
        if cache == cold:
            raise refusal
        return compile_(compiler, cache, name)

    monkeypatch.setattr(fastpath, "_compile", refuse_cache)
    assert fastpath._build() is not None
    assert not list(cold.glob("_kernel-*.so"))


def test_without_a_compiler_fast_runs_the_reference_loop(monkeypatch):
    monkeypatch.setattr(fastpath, "_kernel", None)
    monkeypatch.setattr(shutil, "which", lambda name: None)
    system = capybara_power_system()
    system.rest_at(2.4)
    trace = CurrentTrace([(0.02, 0.05)])
    with pytest.warns(RuntimeWarning, match="reference loop"):
        assert fastpath.plant(system) is None
    assert fastpath._kernel is False
    fast, (kernel, reference) = counted_run(True, system.copy(), trace)
    assert kernel == 0 and reference > 0
    ref, _ = counted_run(False, system.copy(), trace)
    assert fast == ref
