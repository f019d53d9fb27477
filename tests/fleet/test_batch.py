"""Batch-composition invariance: the serving layer's load-bearing wall.

``advance_batch`` on the stepping engine must answer every lane
*byte-identically* to the same query in a batch of one — that is the
whole reason a coalescing daemon can batch unrelated queries without
changing an answer. The chain back to the scalar library goes through
``FleetSpec``: a batch lane holds bit-for-bit the same floats a
zero-jitter single-device spec expands to, and the existing equivalence
suite anchors that spec to the scalar fastpath.
"""

import numpy as np
import pytest

from repro.fleet.batch import (
    BatchPlant,
    BatchQuery,
    BatchShared,
    advance_batch,
    build_batch,
    shared_key,
)
from repro.fleet.spec import FleetSpec
from repro.serve.protocol import canonical

MIXED_SEGMENTS = [
    (0.012, 0.05), (0.0, 0.2), (0.025, 0.02), (0.0, 0.5),
    (0.008, 0.10), (0.0, 0.05), (0.018, 0.03), (0.0, 0.3),
]

#: A heterogeneous batch: default, high-ESR, big-cap, and a small plant
#: near the brown-out edge, at distinct start voltages.
PLANTS = (
    BatchPlant(),
    BatchPlant(dc_esr=8.0, leakage_current=1e-6),
    BatchPlant(datasheet_capacitance=80e-3, capacitance_tolerance=0.15,
               redist_fraction=0.25),
    BatchPlant(datasheet_capacitance=8e-3, harvest_power=1e-4),
)
V_STARTS = (2.56, 2.3, 2.1, 1.8)


def _queries():
    return [BatchQuery(plant=p, v_start=v)
            for p, v in zip(PLANTS, V_STARTS)]


class TestBatchCompositionInvariance:
    @pytest.mark.parametrize("harvesting,stop", [
        (False, None), (True, None), (False, 1.6), (True, 1.6),
    ])
    def test_batch_of_n_equals_n_batches_of_one(self, harvesting, stop):
        queries = _queries()
        batched = advance_batch(queries, MIXED_SEGMENTS,
                                harvesting=harvesting, stop_below=stop)
        for i, query in enumerate(queries):
            solo = advance_batch([query], MIXED_SEGMENTS,
                                 harvesting=harvesting, stop_below=stop)
            # Byte identity, through the same canonical encoding the
            # serving layer answers with.
            assert canonical(batched.lane(i)) == canonical(solo.lane(0))

    def test_browned_lane_does_not_disturb_neighbours(self):
        # A heavy draw sized so some lanes brown out and some survive;
        # the survivors must finish exactly as if the browned lanes had
        # never shared their batch.
        segments = [(0.030, 0.4)]
        queries = _queries()
        batched = advance_batch(queries, segments, stop_below=1.6)
        browned = [i for i in range(batched.n)
                   if batched.lane(i)["brownout"] is not None]
        assert browned, "workload was meant to brown out a lane"
        assert len(browned) < len(queries)
        for i, query in enumerate(queries):
            solo = advance_batch([query], segments, stop_below=1.6)
            assert canonical(batched.lane(i)) == canonical(solo.lane(0))

    def test_lane_order_is_preserved_under_permutation(self):
        queries = _queries()
        forward = advance_batch(queries, MIXED_SEGMENTS)
        backward = advance_batch(list(reversed(queries)), MIXED_SEGMENTS)
        for i in range(len(queries)):
            assert canonical(forward.lane(i)) == \
                canonical(backward.lane(len(queries) - 1 - i))


class TestSpecMirror:
    def test_lane_floats_equal_zero_jitter_spec_expansion(self):
        # The documented contract: build_batch mirrors
        # FleetSpec.parameters() with unit jitter factors, bit for bit.
        plant = PLANTS[1]
        shared = BatchShared()
        spec = FleetSpec(
            devices=1,
            datasheet_capacitance=plant.datasheet_capacitance,
            capacitance_tolerance=plant.capacitance_tolerance,
            dc_esr=plant.dc_esr,
            c_decoupling=plant.c_decoupling,
            leakage_current=plant.leakage_current,
            redist_fraction=plant.redist_fraction,
            harvest_power=plant.harvest_power,
            v_high=shared.v_high, v_off=shared.v_off, v_out=shared.v_out,
            input_efficiency=shared.input_efficiency,
            esr_jitter=0.0, capacitance_jitter=0.0,
            harvest_jitter=0.0, eta_jitter=0.0,
        )
        expected = spec.parameters()
        state = build_batch([BatchQuery(plant=plant, v_start=2.56)],
                            shared=shared)
        params = state.params
        assert np.array_equal(params.c_main, expected.c_main)
        assert np.array_equal(params.r_esr, expected.r_esr)
        assert np.array_equal(params.c_redist, expected.c_redist)
        assert np.array_equal(params.r_redist, expected.r_redist)
        assert np.array_equal(params.leakage, expected.leakage)
        assert np.array_equal(params.eta_base, expected.eta_base)
        assert np.array_equal(params.p_harvest, expected.p_harvest)

    def test_v_start_below_v_off_starts_disabled(self):
        state = build_batch([BatchQuery(plant=BatchPlant(), v_start=1.0)])
        assert not bool(state.enabled[0])


class TestValidation:
    def test_plant_and_query_bounds(self):
        with pytest.raises(ValueError):
            BatchPlant(datasheet_capacitance=0.0)
        with pytest.raises(ValueError):
            BatchPlant(redist_fraction=1.0)
        with pytest.raises(ValueError):
            BatchPlant(harvest_power=-1e-3)
        with pytest.raises(ValueError):
            BatchQuery(plant=BatchPlant(), v_start=-0.1)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            build_batch([])

    def test_overcommitted_capacitance_is_caught(self):
        plant = BatchPlant(datasheet_capacitance=50e-6,
                           c_decoupling=100e-6)
        with pytest.raises(ValueError):
            build_batch([BatchQuery(plant=plant, v_start=2.0)])

    def test_config_key_discriminates(self):
        assert BatchPlant().config_key() == BatchPlant().config_key()
        assert BatchPlant().config_key() != \
            BatchPlant(dc_esr=5.0).config_key()


class TestSharedKey:
    def test_equal_inputs_share_a_key(self):
        shared = BatchShared()
        key = shared_key(shared, MIXED_SEGMENTS, True, 1.6, "env-a")
        assert key == shared_key(shared, MIXED_SEGMENTS, True, 1.6,
                                 "env-a")

    @pytest.mark.parametrize("variant", [
        dict(shared=BatchShared(v_high=2.50)),
        dict(segments=[(0.012, 0.05)]),
        dict(harvesting=False),
        dict(stop_below=None),
        dict(env="env-b"),
    ])
    def test_any_shared_difference_changes_the_key(self, variant):
        base = dict(shared=BatchShared(), segments=MIXED_SEGMENTS,
                    harvesting=True, stop_below=1.6, env="env-a")
        changed = dict(base)
        changed.update(variant)
        assert shared_key(base["shared"], base["segments"],
                          base["harvesting"], base["stop_below"],
                          base["env"]) != \
            shared_key(changed["shared"], changed["segments"],
                       changed["harvesting"], changed["stop_below"],
                       changed["env"])
