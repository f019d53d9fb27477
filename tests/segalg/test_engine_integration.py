"""Estimator cache keys carry the canonical segment-program fingerprint."""

from repro.core.profile_guided import CulpeoPG
from repro.loads.trace import CurrentTrace
from repro.segalg.program import canonical_fingerprint

TRACE = CurrentTrace([(0.012, 0.05), (0.0, 0.2), (0.025, 0.02),
                      (0.0, 0.5)])


class TestEstimatorCacheKey:
    def test_key_carries_canonical_fingerprint(self, model):
        pg = CulpeoPG(model)
        key = pg._cache_key(TRACE, resistance=10.0)
        assert canonical_fingerprint(TRACE) in key

    def test_key_ignores_zero_length_segments(self, model):
        # CurrentTrace normalizes zero-length runs away at construction,
        # and compile_segments drops them independently — either way the
        # canonical program (and hence the key) is invariant to padding
        pg = CulpeoPG(model)
        padded = CurrentTrace([(0.012, 0.05), (0.5, 0.0), (0.0, 0.2),
                               (0.025, 0.02), (0.0, 0.5)])
        assert canonical_fingerprint(padded) == canonical_fingerprint(
            TRACE)
        assert pg._cache_key(padded, 10.0) == pg._cache_key(TRACE, 10.0)

    def test_key_distinguishes_different_programs(self, model):
        pg = CulpeoPG(model)
        other = CurrentTrace([(0.012, 0.05), (0.0, 0.3)])
        assert pg._cache_key(TRACE, 10.0) != pg._cache_key(other, 10.0)
