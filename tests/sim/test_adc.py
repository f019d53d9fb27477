"""ADC and sampling-observer models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.adc import Adc, FilteringSamplingObserver, SamplingObserver
from repro.sim.faults import FaultyAdc


class TestAdc:
    def test_lsb_sizes(self):
        assert Adc(bits=8, v_ref=2.56).lsb == pytest.approx(0.010)
        assert Adc(bits=12, v_ref=2.56).lsb == pytest.approx(0.000625)

    def test_convert_floors_into_bin(self):
        adc = Adc(bits=8, v_ref=2.56)
        assert adc.convert(2.005) == 200
        assert adc.code_to_voltage(200) == pytest.approx(2.000)

    def test_measure_error_bounded_by_lsb(self):
        adc = Adc(bits=8, v_ref=2.56)
        for v in np.linspace(0.0, 2.55, 50):
            measured = adc.measure(v)
            assert 0.0 <= v - measured < adc.lsb + 1e-12

    def test_clamps_out_of_range(self):
        adc = Adc(bits=8, v_ref=2.56)
        assert adc.convert(-1.0) == 0
        assert adc.convert(5.0) == 255

    def test_noise_is_seeded(self):
        a = Adc(bits=12, noise_sigma=0.002,
                rng=np.random.default_rng(1))
        b = Adc(bits=12, noise_sigma=0.002,
                rng=np.random.default_rng(1))
        assert [a.convert(2.0) for _ in range(5)] == \
            [b.convert(2.0) for _ in range(5)]

    def test_code_to_voltage_validation(self):
        adc = Adc(bits=8)
        with pytest.raises(ValueError):
            adc.code_to_voltage(256)
        with pytest.raises(ValueError):
            adc.code_to_voltage(-1)

    @pytest.mark.parametrize("kwargs", [
        dict(bits=0), dict(bits=25), dict(bits=8, v_ref=0.0),
        dict(bits=8, noise_sigma=-0.1),
    ])
    def test_construction_validation(self, kwargs):
        with pytest.raises(ValueError):
            Adc(**kwargs)


class TestSamplingObserver:
    @pytest.fixture
    def sampler(self):
        return SamplingObserver(Adc(bits=12), sample_period=0.001,
                                burden_current=72e-6)

    def test_disabled_by_default(self, sampler):
        assert not sampler.enabled
        assert sampler.next_event_time() is None
        assert sampler.burden_current == 0.0

    def test_burden_only_while_enabled(self, sampler):
        sampler.enable(0.0)
        assert sampler.burden_current == pytest.approx(72e-6)
        sampler.disable()
        assert sampler.burden_current == 0.0

    def test_tracks_min_max_first_last(self, sampler):
        sampler.enable(0.0)
        for t, v in [(0.0, 2.5), (0.001, 2.3), (0.002, 2.1), (0.003, 2.4)]:
            sampler.on_sample(t, v)
        assert sampler.v_first == pytest.approx(2.5, abs=0.001)
        assert sampler.v_last == pytest.approx(2.4, abs=0.001)
        assert sampler.v_min == pytest.approx(2.1, abs=0.001)
        assert sampler.v_max == pytest.approx(2.5, abs=0.001)
        assert sampler.sample_count == 4

    def test_schedule_advances(self, sampler):
        sampler.enable(0.0)
        sampler.on_sample(0.0, 2.0)
        assert sampler.next_event_time() == pytest.approx(0.001)

    def test_reset_clears_stats(self, sampler):
        sampler.enable(0.0)
        sampler.on_sample(0.0, 2.0)
        sampler.reset()
        assert sampler.v_min is None
        assert sampler.sample_count == 0

    def test_ignores_samples_when_disabled(self, sampler):
        sampler.on_sample(0.0, 2.0)
        assert sampler.sample_count == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingObserver(Adc(bits=8), sample_period=0.0)
        with pytest.raises(ValueError):
            SamplingObserver(Adc(bits=8), sample_period=0.001,
                             burden_current=-1e-6)


# -- chunked delivery (on_samples) -------------------------------------------

def make_converter(kind, seed):
    if kind == "noisy":
        return Adc(bits=12, noise_sigma=0.01,
                   rng=np.random.default_rng(seed))
    if kind == "stuck":
        return FaultyAdc(bits=12, stuck_code=seed % 4096,
                         stuck_after=seed % 30)
    if kind == "dropout":
        return FaultyAdc(bits=12, dropout_rate=0.3, seed=seed)
    return Adc(bits=12)


def make_pair(filtering, kind, seed):
    """Two equal enabled samplers: one for per-sample delivery, one for
    chunks."""
    pair = []
    for _ in range(2):
        adc = make_converter(kind, seed)
        if filtering:
            sampler = FilteringSamplingObserver(
                adc, 1e-3, burden_current=72e-6, plausibility_floor=1.6)
        else:
            sampler = SamplingObserver(adc, 1e-3, burden_current=72e-6)
        sampler.enable(0.0)
        pair.append(sampler)
    return pair


def captures(sampler):
    """Everything a sample can change but the schedule: the captures,
    the filter's window and the converter's counters and random
    streams."""
    adc = sampler.adc
    rngs = [getattr(adc, name, None) for name in ("_rng", "_fault_rng")]
    return (sampler.v_first, sampler.v_last, sampler.v_min, sampler.v_max,
            sampler.sample_count, getattr(sampler, "rejected_count", None),
            tuple(getattr(sampler, "_recent", ())),
            getattr(adc, "_conversions", None),
            tuple(r.bit_generator.state["state"]["state"]
                  for r in rngs if r is not None))


def sampler_state(sampler):
    """The captures and the next due time."""
    return captures(sampler) + (sampler.next_event_time(),)


chunk_volts = st.lists(st.floats(min_value=0.0, max_value=3.0),
                       min_size=1, max_size=40)
converter_kinds = st.sampled_from(["plain", "noisy", "stuck", "dropout"])


class TestChunkedSamples:
    """``on_samples`` leaves a sampler as ``on_sample`` per voltage would,
    from a list or from a float64 array (the kernel's buffer)."""

    @given(chunks=st.lists(chunk_volts, min_size=1, max_size=3),
           filtering=st.booleans(), kind=converter_kinds,
           seed=st.integers(min_value=0, max_value=2**31 - 1),
           as_array=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_sample_delivery(self, chunks, filtering, kind,
                                         seed, as_array):
        one, chunked = make_pair(filtering, kind, seed)
        t = 0.0
        for volts in chunks:
            for v in volts:
                t += 1e-3
                one.on_sample(t, v)
            chunked.on_samples(np.array(volts) if as_array else volts, t)
            assert sampler_state(chunked) == sampler_state(one)

    @pytest.mark.parametrize("filtering", [False, True])
    def test_rejections_and_the_median_window(self, filtering):
        volts = [2.0, 2.01, 2.4, 0.0, 2.02, 1.2, 2.03, 2.5, 2.04]
        one, chunked = make_pair(filtering, "plain", 0)
        for i, v in enumerate(volts):
            one.on_sample(i * 1e-3, v)
        chunked.on_samples(np.array(volts), (len(volts) - 1) * 1e-3)
        assert sampler_state(chunked) == sampler_state(one)
        if filtering:
            assert chunked.rejected_count == 2
            assert chunked.v_max < 2.4   # lone spikes are filtered
        else:
            assert chunked.v_min == 0.0 and chunked.v_max >= 2.49

    @pytest.mark.parametrize("filtering", [False, True])
    def test_overflowing_sample_raises_after_the_same_captures(
            self, filtering):
        """A conversion that overflows raises at the same sample, after
        the same captures. The schedule differs: the chunk's counts from
        its last sample, per-sample delivery from the sample before the
        failing one (the filter, which schedules first: from the failing
        one)."""
        volts = [2.0, 1.7, 1e307, 1.9]
        times = [1e-3, 2e-3, 3e-3, 4e-3]
        one, chunked = make_pair(filtering, "plain", 0)
        with pytest.raises(OverflowError):
            for t, v in zip(times, volts):
                one.on_sample(t, v)
        with pytest.raises(OverflowError):
            chunked.on_samples(np.array(volts), times[-1])
        assert captures(chunked) == captures(one)
        assert chunked.sample_count == 2
        scheduled_from = times[2] if filtering else times[1]
        assert one.next_event_time() == scheduled_from + 1e-3
        assert chunked.next_event_time() == times[-1] + 1e-3

    def test_fixed_period(self):
        adc = Adc(bits=12)
        assert SamplingObserver(adc, 5e-7).fixed_period() == 5e-7
        sampler = FilteringSamplingObserver(adc, 5e-7)
        assert sampler.fixed_period() == 1e-6
        sampler.set_jitter(np.random.default_rng(7), 0.2)
        assert sampler.fixed_period() is None
        sampler.set_jitter(None, 0.0)
        assert sampler.fixed_period() == 1e-6

    @pytest.mark.parametrize("filtering", [False, True])
    def test_disabled_sampler_ignores_samples(self, filtering):
        sampler, _ = make_pair(filtering, "plain", 0)
        sampler.disable()
        sampler.on_samples(np.array([1.0, 2.0]), 0.0)
        sampler.on_samples([], 0.0)
        assert sampler.sample_count == 0
        assert sampler.next_event_time() is None
