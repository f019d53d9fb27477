"""Segment-program compilation, fingerprints, and the program cache."""

import numpy as np
import pytest

from repro import obs
from repro.env.spec import EnvSpec
from repro.fleet.kernel import FleetState
from repro.fleet.runner import run_fleet_raw
from repro.fleet.spec import FleetSpec
from repro.loads.trace import CurrentTrace
from repro.segalg import program as prog
from repro.segalg import vector
from repro.segalg.model import Bank
from repro.segalg.program import (
    DV_BUDGET,
    MAX_SUB,
    SegmentProgram,
    cache_clear,
    cached_program,
    compile_segments,
    segments_cache_token,
)
from repro.segalg.vector import advance_fleet


@pytest.fixture(autouse=True)
def _fresh_cache():
    cache_clear()
    yield
    cache_clear()


@pytest.fixture
def bank():
    """The un-jittered Capybara base plant as a one-lane bank."""
    spec = FleetSpec(devices=1, seed=0, esr_jitter=0.0,
                     capacitance_jitter=0.0, harvest_jitter=0.0,
                     eta_jitter=0.0)
    return Bank.from_fleet_state(FleetState(spec.parameters()), True)


class TestCompile:
    def test_canonical_is_one_to_one(self):
        runs = [(0.01, 0.5), (0.0, 1.0), (0.02, 0.25)]
        p = compile_segments(runs)
        assert p.n == 3
        np.testing.assert_array_equal(p.i_out, [0.01, 0.0, 0.02])
        np.testing.assert_array_equal(p.dur, [0.5, 1.0, 0.25])
        np.testing.assert_array_equal(p.seg_bounds, [1, 2, 3])
        assert p.dur.sum() == pytest.approx(1.75)

    def test_zero_and_negative_segments_dropped(self):
        runs = [(0.01, 0.5), (0.02, 0.0), (0.03, -1.0), (0.0, 1.0)]
        p = compile_segments(runs)
        assert p.n == 2
        np.testing.assert_array_equal(p.i_out, [0.01, 0.0])
        # dropped source segments contribute a repeated bound, so
        # boundary consumers (the fleet recorder) still see one entry
        # per *source* segment
        np.testing.assert_array_equal(p.seg_bounds, [1, 1, 1, 2])

    def test_empty(self):
        p = compile_segments([])
        assert p.n == 0
        assert p.dur.sum() == 0.0

    def test_subdivision_preserves_totals(self, bank):
        runs = [(0.025, 2.0), (0.0, 5.0)]
        p = compile_segments(runs, bank)
        assert p.n > 2  # the draw segment must subdivide under DV_BUDGET
        assert float(p.dur.sum()) == pytest.approx(7.0)
        # every interval carries its source current
        bound0 = int(p.seg_bounds[0])
        assert set(p.i_out[:bound0]) == {0.025}
        assert set(p.i_out[bound0:]) == {0.0}

    def test_dv_budget_bounds_interval_charge(self, bank):
        runs = [(0.030, 1.0)]
        p = compile_segments(runs, bank)
        c_ref = float(np.min(np.asarray(bank.c_tot)))
        from repro.segalg.model import bound_current
        i_bound = bound_current(bank, 0.030)
        moved = p.dur * i_bound / c_ref
        assert float(moved.max()) <= DV_BUDGET * (1.0 + 1e-9)

    def test_subdivision_capped(self, bank):
        # a pathological segment cannot explode past MAX_SUB intervals
        p = compile_segments([(0.030, 1e9)], bank)
        assert p.n == MAX_SUB

    def test_arrays_immutable(self):
        p = compile_segments([(0.01, 1.0)])
        with pytest.raises(ValueError):
            p.i_out[0] = 5.0


class TestFingerprint:
    def test_stable_and_content_addressed(self):
        a = compile_segments([(0.01, 1.0), (0.0, 2.0)])
        b = compile_segments([(0.01, 1.0), (0.0, 2.0)])
        c = compile_segments([(0.01, 1.0), (0.0, 2.5)])
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_independent_of_seg_bounds(self):
        bare = SegmentProgram(np.array([0.01]), np.array([1.0]))
        bounded = SegmentProgram(np.array([0.01]), np.array([1.0]),
                                 seg_bounds=np.array([1, 1]))
        assert bare.fingerprint() == bounded.fingerprint()

    def test_canonical_ignores_zero_length_segments(self):
        a = compile_segments([(0.01, 1.0), (0.0, 2.0)])
        b = compile_segments([(0.01, 1.0), (0.02, 0.0), (0.0, 2.0)])
        assert a.fingerprint() == b.fingerprint()

    def test_canonical_is_plant_independent(self, bank):
        trace = CurrentTrace([(0.025, 2.0)])
        # the canonical program never sees the bank, so its fingerprint
        # differs from the bank-subdivided program's
        assert compile_segments(trace.segments()).fingerprint() != \
            compile_segments(trace.segments(), bank).fingerprint()


class TestCacheToken:
    def test_trace_token_uses_fingerprint(self):
        trace = CurrentTrace([(0.01, 1.0)])
        token = segments_cache_token(trace)
        assert token[0] == "trace"
        assert token[1] == trace.fingerprint()

    def test_runs_token_captures_segments(self):
        token = segments_cache_token([(0.01, 1.0), (0.0, 2.0)])
        assert token[0] == "runs"
        assert token[2] == ((0.01, 1.0), (0.0, 2.0))

    def test_equal_runs_equal_tokens(self):
        a = segments_cache_token([(0.01, 1.0)])
        b = segments_cache_token(((0.01, 1.0),))
        assert a == b


class TestCachedProgram:
    def test_hit_returns_same_object(self):
        built = []

        def build():
            built.append(1)
            return compile_segments([(0.01, 1.0)])

        first = cached_program(("k",), build)
        second = cached_program(("k",), build)
        assert first is second
        assert len(built) == 1

    def test_obs_counters_at_batch_granularity(self):
        with obs.observe() as ob:
            cached_program(("a",), lambda: compile_segments([(0.01, 1.0)]))
            cached_program(("a",), lambda: compile_segments([(0.01, 1.0)]))
            cached_program(("b",), lambda: compile_segments([(0.02, 1.0)]))
        hits = ob.metrics.counter("segalg.program_cache.hits").value
        misses = ob.metrics.counter("segalg.program_cache.misses").value
        assert (hits, misses) == (1, 2)

    def test_lru_eviction(self):
        cap = prog._CACHE_CAP
        for i in range(cap + 1):
            cached_program(("k", i),
                           lambda: compile_segments([(0.01, 1.0)]))
        assert ("k", 0) not in prog._cache
        assert ("k", cap) in prog._cache

    def test_fleet_caches_per_plant_and_trace(self, monkeypatch):
        keys = []
        plant_key = vector._plant_key

        def counting_plant_key(state, harvesting):
            key = plant_key(state, harvesting)
            keys.append(key)
            return key

        monkeypatch.setattr(vector, "_plant_key", counting_plant_key)
        trace = CurrentTrace([(0.01, 1.0), (0.0, 2.0)])
        params = FleetSpec(devices=4, seed=1).parameters()
        with obs.observe() as ob:
            advance_fleet(FleetState(params), trace, True, None)
            advance_fleet(FleetState(params), trace, True, None)
            advance_fleet(FleetState(params), CurrentTrace([(0.02, 1.0)]),
                          True, None)
            advance_fleet(FleetState(params.slice(0, 1)), trace, True,
                          None)
        hits = ob.metrics.counter("segalg.program_cache.hits").value
        misses = ob.metrics.counter("segalg.program_cache.misses").value
        # equal parameters share programs across states
        assert (hits, misses) == (1, 3)
        assert len(keys) == 4

        # one state derives its plant once per harvesting value
        keys.clear()
        state = FleetState(params)
        for _ in range(3):
            advance_fleet(state, trace, True, None)
            advance_fleet(state, [(0.0, 0.25)], False, None)
        assert [key[-1] for key in keys] == [True, False]

        # environment fleet: the sliced columns are each shard's harvest
        # identity, so two shards that differ only by their columns (a
        # cloud front, no jitter) get distinct keys
        env = EnvSpec(model="diurnal-solar", duration=20.0, seed=3,
                      period=20.0, front_delay=2.0)
        env_spec = FleetSpec(devices=4, seed=1, esr_jitter=0.0,
                             capacitance_jitter=0.0, harvest_jitter=0.0,
                             eta_jitter=0.0, env=env)
        env_params = env_spec.parameters()
        keys.clear()
        advance_fleet(FleetState(env_params.slice(0, 2)), trace, True, None)
        advance_fleet(FleetState(env_params.slice(2, 4)), trace, True, None)
        assert len(keys) == 2 and keys[0] != keys[1]

        # the fleet runner derives the plant once per shard (one here),
        # not once per charge chunk
        keys.clear()
        with obs.observe() as ob:
            run_fleet_raw(env_spec, cycles=1, horizon=20.0, jobs=1,
                          engine="segalg")
        assert ob.metrics.counter("segalg.fleet.calls").value > 1
        assert len(keys) == 1
