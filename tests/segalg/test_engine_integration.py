"""Estimate memo keys follow the trace's merged segment runs."""

from repro.loads.trace import CurrentTrace

TRACE = CurrentTrace([(0.012, 0.05), (0.0, 0.2), (0.025, 0.02),
                      (0.0, 0.5)])


class TestEstimatorCacheKey:
    def test_key_ignores_zero_length_segments(self):
        # CurrentTrace normalizes zero-length runs away at construction,
        # so the trace fingerprint (and hence the memo key) is invariant
        # to padding
        padded = CurrentTrace([(0.012, 0.05), (0.5, 0.0), (0.0, 0.2),
                               (0.025, 0.02), (0.0, 0.5)])
        assert padded.fingerprint() == TRACE.fingerprint()

    def test_key_distinguishes_different_programs(self):
        other = CurrentTrace([(0.012, 0.05), (0.0, 0.3)])
        assert other.fingerprint() != TRACE.fingerprint()
