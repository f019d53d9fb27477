"""VsafeCache behavior: hits, eviction, and structural invalidation."""

import pytest

from repro.core.analysis import analyze_tasks
from repro.core.profile_guided import CulpeoPG
from repro.core.vsafe_cache import VsafeCache, cache_stats, default_cache
from repro.loads.synthetic import pulse_with_compute_tail, uniform_load
from repro.power.system import capybara_power_system
from repro.sched.estimators import CatnapEstimator, estimator_cache_key
from repro.sched.policy import cached_estimate


@pytest.fixture()
def system():
    return capybara_power_system()


@pytest.fixture()
def trace():
    return pulse_with_compute_tail(0.025, 0.010).trace


class TestVsafeCacheMechanics:
    def test_miss_then_hit(self):
        cache = VsafeCache()
        assert cache.get("k") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        stats = cache.stats
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.hit_rate == 0.5

    def test_get_or_compute_computes_once(self):
        cache = VsafeCache()
        calls = []

        def compute():
            calls.append(1)
            return "value"

        assert cache.get_or_compute("k", compute) == "value"
        assert cache.get_or_compute("k", compute) == "value"
        assert len(calls) == 1

    def test_lru_eviction(self):
        cache = VsafeCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b is now least recent
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.stats.evictions == 1

    def test_invalidate_clears_entries(self):
        cache = VsafeCache()
        cache.put("a", 1)
        cache.invalidate()
        assert cache.get("a") is None
        assert cache.stats.invalidations == 1
        assert len(cache) == 0

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            VsafeCache(maxsize=0)


class TestCulpeoPGCaching:
    def test_repeat_analysis_hits(self, system, trace):
        cache = VsafeCache()
        pg = CulpeoPG(system.characterize(), cache=cache)
        first = pg.analyze(trace)
        second = pg.analyze(trace)
        assert second == first
        stats = cache.stats
        assert stats.hits == 1
        assert stats.misses == 1

    def test_cached_equals_uncached(self, system, trace):
        model = system.characterize()
        cached = CulpeoPG(model, cache=VsafeCache())
        uncached = CulpeoPG(model, use_cache=False)
        warm = cached.analyze(trace)
        warm = cached.analyze(trace)  # second call: a hit
        assert warm == uncached.analyze(trace)

    def test_record_steps_bypasses_cache(self, system, trace):
        cache = VsafeCache()
        pg = CulpeoPG(system.characterize(), cache=cache,
                      record_steps=True)
        pg.analyze(trace)
        assert pg.last_steps
        pg.analyze(trace)
        assert cache.stats.hits == 0

    def test_analyze_tasks_hit_rate(self, system, trace):
        cache = VsafeCache()
        pg = CulpeoPG(system.characterize(), cache=cache)
        tasks = {"sense": uniform_load(0.003, 0.050).trace,
                 "radio": trace}
        analyze_tasks(pg, tasks)
        analyze_tasks(pg, tasks)        # repeated feasibility check
        stats = cache.stats
        assert stats.hits >= len(tasks)
        assert stats.hit_rate > 0

        # Many tasks over few load shapes, the redundancy the cache
        # exists for: exactly one miss per distinct shape, ever.
        cache = VsafeCache()
        pg = CulpeoPG(system.characterize(), cache=cache)
        shapes = [uniform_load(0.005 + 0.002 * i, 0.005 + 0.001 * i).trace
                  for i in range(10)]
        tasks = {f"task{i:03d}": shapes[i % 10] for i in range(100)}
        analyze_tasks(pg, tasks)
        assert (cache.stats.hits, cache.stats.misses) == (90, 10)
        analyze_tasks(pg, tasks)
        assert (cache.stats.hits, cache.stats.misses) == (190, 10)


class TestStructuralInvalidation:
    """Derived configurations must never hit entries of the original."""

    def test_aged_buffer_changes_key_and_misses(self, system, trace):
        cache = VsafeCache()
        fresh_model = system.characterize()
        CulpeoPG(fresh_model, cache=cache).analyze(trace)

        aged_system = system.copy()
        aged_system.buffer = aged_system.buffer.aged()
        aged_model = aged_system.characterize()
        assert aged_model.config_key() != fresh_model.config_key()

        hits_before = cache.stats.hits
        aged_estimate = CulpeoPG(aged_model, cache=cache).analyze(trace)
        assert cache.stats.hits == hits_before            # no stale hit
        fresh_estimate = CulpeoPG(fresh_model, cache=cache).analyze(trace)
        assert aged_estimate.v_safe > fresh_estimate.v_safe

    def test_temperature_derating_changes_key(self, system, trace):
        cache = VsafeCache()
        warm_model = system.characterize()
        CulpeoPG(warm_model, cache=cache).analyze(trace)

        cold_system = system.copy()
        cold_system.buffer = cold_system.buffer.at_temperature(-20.0)
        cold_model = cold_system.characterize()
        assert cold_model.config_key() != warm_model.config_key()

        hits_before = cache.stats.hits
        CulpeoPG(cold_model, cache=cache).analyze(trace)
        assert cache.stats.hits == hits_before

    def test_reconfiguration_changes_system_key(self):
        from repro.power.reconfigurable import (
            ReconfigurableBuffer,
            capybara_bank_set,
        )
        buffer = ReconfigurableBuffer(capybara_bank_set(),
                                      initial_config=("small",))
        key_small = buffer.config_key()
        buffer.configure(("small", "large"))
        assert buffer.config_key() != key_small

    def test_trace_fingerprint_distinguishes_content(self):
        a = uniform_load(0.025, 0.010).trace
        b = uniform_load(0.026, 0.010).trace
        assert a.fingerprint() != b.fingerprint()


class TestDeratingRestoreRoundTrip:
    """Mutate the configuration, then restore it: the original entries must
    still be live — invalidation is structural (key-based), not a flush."""

    def test_restore_after_aging_hits_original_entry(self, system, trace):
        cache = VsafeCache()
        fresh_model = system.characterize()
        baseline = CulpeoPG(fresh_model, cache=cache).analyze(trace)

        aged_system = system.copy()
        aged_system.buffer = aged_system.buffer.aged()
        aged = CulpeoPG(aged_system.characterize(),
                        cache=cache).analyze(trace)
        assert aged.v_safe > baseline.v_safe    # recomputed, not stale

        # Re-characterizing the untouched system reproduces the original
        # key, so the very first analysis on the "restored" part is a hit.
        hits_before = cache.stats.hits
        restored_model = system.characterize()
        assert restored_model.config_key() == fresh_model.config_key()
        restored = CulpeoPG(restored_model, cache=cache).analyze(trace)
        assert cache.stats.hits == hits_before + 1
        assert restored == baseline

    def test_restore_after_temperature_excursion_hits(self, system, trace):
        cache = VsafeCache()
        warm_model = system.characterize()
        baseline = CulpeoPG(warm_model, cache=cache).analyze(trace)

        cold_system = system.copy()
        cold_system.buffer = cold_system.buffer.at_temperature(-20.0)
        CulpeoPG(cold_system.characterize(), cache=cache).analyze(trace)
        assert len(cache) == 2                  # both configs resident

        hits_before = cache.stats.hits
        back_warm = CulpeoPG(system.characterize(),
                             cache=cache).analyze(trace)
        assert cache.stats.hits == hits_before + 1
        assert back_warm == baseline

    def test_aging_misses_at_scheduler_level(self, system, trace):
        """``cached_estimate`` keys on ``system.config_key()`` too: an aged
        plant must recompute even through the estimator-level cache."""
        model = system.characterize()
        estimator = CatnapEstimator.measured(model)
        default_cache().invalidate()
        default_cache().reset_stats()
        fresh = cached_estimate(estimator, system, trace)
        aged_system = system.copy()
        aged_system.buffer = aged_system.buffer.aged()
        assert aged_system.config_key() != system.config_key()
        aged = cached_estimate(estimator, aged_system, trace)
        assert cache_stats().hits == 0
        # Restoring the original plant (a fresh copy keys identically)
        # hits the entry computed before the excursion.
        restored = cached_estimate(estimator, system.copy(), trace)
        assert cache_stats().hits == 1
        assert restored == fresh
        assert aged != fresh


class TestSchedulerCachedEstimate:
    def test_cached_estimate_hits_shared_cache(self, system, trace):
        model = system.characterize()
        estimator = CatnapEstimator.measured(model)
        assert estimator_cache_key(estimator) is not None
        default_cache().invalidate()
        default_cache().reset_stats()
        first = cached_estimate(estimator, system, trace)
        second = cached_estimate(estimator, system, trace)
        assert second == first
        stats = cache_stats()
        assert stats.hits >= 1
