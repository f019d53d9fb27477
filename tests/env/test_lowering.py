"""Lowering: environment model + front-end -> piecewise harvest trace.

There is one lowering, the uniform ``grid_dt`` grid that fleets,
recordings and the daemon replay: :meth:`EnvSpec.lower` is row 0 of a
spec's fleet columns. Each piece holds the front-end's power at its
midpoint (stateless front-ends) or, in order, at its start
(perturb-and-observe). The grid's energy tracks the model's true
``integral(P dt)`` within a bound that shrinks with ``grid_dt``.
"""

import numpy as np
import pytest

from repro.env import EnvSpec, fleet_columns

DURATION = 60.0

#: All nine model x front-end combinations the spec can express.
COMBOS = [(model, mppt)
          for model in ("diurnal-solar", "kinetic-burst",
                        "thermal-gradient")
          for mppt in ("constant-voltage", "voc-fraction",
                       "perturb-observe")]

#: Step of the fine reference quadrature (s).
FINE_DT = 0.002


def _spec(model, mppt, **overrides):
    base = dict(model=model, mppt=mppt, duration=DURATION, seed=3,
                peak_power=4e-3, period=40.0, cloud_rate=6.0,
                burst_rate=0.3)
    base.update(overrides)
    return EnvSpec(**base)


def _trace_energy(trace):
    return float(np.sum(trace.powers * np.diff(trace.edges)))


def _fine_samples(spec):
    """The front-end power at the midpoints of a ``FINE_DT`` lattice.

    Only used for stateless front-ends, where evaluation order does not
    matter.
    """
    model = spec.build_model()
    pv = spec.build_transducer()
    mppt = spec.build_mppt()
    mppt.reset()
    mids = np.arange(FINE_DT / 2.0, spec.duration, FINE_DT)
    return np.array([mppt.harvest_power(pv, model.intensity(float(t)))
                     for t in mids])


def _model_energy(spec):
    """Fine midpoint quadrature of the front-end power over the model."""
    return float(np.sum(_fine_samples(spec)) * FINE_DT)


class TestTraceShape:
    @pytest.mark.parametrize("model,mppt", COMBOS)
    def test_lowered_trace_is_well_formed(self, model, mppt):
        spec = _spec(model, mppt)
        trace = spec.lower()
        pieces = int(DURATION / spec.grid_dt)
        np.testing.assert_array_equal(
            trace.edges, np.arange(pieces + 1) * spec.grid_dt)
        assert trace.edges[-1] == DURATION
        assert np.all(trace.powers >= 0.0)
        assert np.all(np.isfinite(trace.powers))

    @pytest.mark.parametrize("model,mppt", COMBOS)
    def test_power_never_exceeds_full_sun_mpp(self, model, mppt):
        spec = _spec(model, mppt)
        _v, p_max = spec.build_transducer().mpp(1.0)
        trace = spec.lower()
        assert float(trace.powers.max()) <= p_max + 1e-15

    def test_same_spec_lowers_to_identical_trace(self):
        a = _spec("diurnal-solar", "voc-fraction").lower()
        b = _spec("diurnal-solar", "voc-fraction").lower()
        np.testing.assert_array_equal(a.edges, b.edges)
        np.testing.assert_array_equal(a.powers, b.powers)
        assert a.fingerprint == b.fingerprint


class TestOneLowering:
    @pytest.mark.parametrize("model,mppt", COMBOS)
    def test_lower_is_row_zero_of_the_fleet_columns(self, model, mppt):
        # a front delay shifts later rows only: row 0 is the base grid
        spec = _spec(model, mppt, front_delay=0.4)
        trace = spec.lower()
        edges, powers = fleet_columns(spec, 1)
        np.testing.assert_array_equal(trace.edges, edges)
        np.testing.assert_array_equal(trace.powers, powers[0])


class TestEnergyConservation:
    @pytest.mark.parametrize("model", ["diurnal-solar", "kinetic-burst",
                                       "thermal-gradient"])
    @pytest.mark.parametrize("mppt", ["constant-voltage", "voc-fraction"])
    def test_energy_within_refinement_tolerance(self, model, mppt):
        """A piece's midpoint power misses the piece's mean power by at
        most the power's variation across the piece, so the grid's
        energy differs from the exact integral by at most ``grid_dt``
        times the power's total variation (the fine quadrature's own
        error adds ``FINE_DT`` times the same)."""
        spec = _spec(model, mppt)
        fine = _fine_samples(spec)
        variation = float(np.sum(np.abs(np.diff(fine))))
        budget = (spec.grid_dt + FINE_DT) * variation
        error = abs(_trace_energy(spec.lower()) - float(np.sum(fine))
                    * FINE_DT)
        assert error <= budget

    def test_tighter_tolerance_tightens_energy(self):
        # grid_dt is the lowering's one fidelity knob
        coarse = _spec("diurnal-solar", "voc-fraction").lower()
        spec = _spec("diurnal-solar", "voc-fraction", grid_dt=0.05)
        fine = spec.lower()
        reference = _model_energy(spec)
        assert abs(_trace_energy(fine) - reference) < \
            0.5 * abs(_trace_energy(coarse) - reference)
        assert len(fine.powers) == 5 * len(coarse.powers)


class TestRefinementControls:
    def test_stateful_front_end_uses_sequential_grid(self):
        # P&O cannot be sampled out of order: it takes one tracker
        # sample per piece, at the piece start, left to right, so it
        # steps its setpoint once per grid_dt.
        spec = _spec("thermal-gradient", "perturb-observe")
        trace = spec.lower()
        model = spec.build_model()
        pv = spec.build_transducer()
        mppt = spec.build_mppt()
        mppt.reset()
        expected = [mppt.harvest_power(pv, model.intensity(float(t)))
                    for t in trace.edges[:-1]]
        np.testing.assert_array_equal(trace.powers, expected)
