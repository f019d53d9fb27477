"""``advance_batch``: the serving layer's simulate entry point.

Each lane steps on its own scalar plant (:meth:`BatchPlant.system`)
through the fastpath kernel. Two properties carry the serving layer's
correctness bar:

* batch-composition invariance — a query answered in a batch of N is
  byte-identical to the same query in a batch of one, in any order and
  whatever its neighbours do, which is why a coalescing daemon may
  group unrelated queries;
* reference agreement — every lane equals the reference stepping loop
  on the same plant, bit for bit, across harvest modes, stop levels and
  start voltages on both sides of V_off. The reference loop is the
  second answer path ``repro.serve.check`` compares served bytes with.
"""

import pytest

from repro.env.correlate import base_grid
from repro.env.spec import EnvSpec
from repro.fleet.batch import (
    BatchPlant,
    BatchQuery,
    BatchShared,
    advance_batch,
    shared_key,
)
from repro.power.harvester import ConstantPowerHarvester, TraceHarvester
from repro.serve.protocol import canonical
from repro.sim.engine import PowerSystemSimulator

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


#: A small recorded sky: the env-harvest lanes replay its base grid.
ENV_GRID = base_grid(EnvSpec(model="diurnal-solar", duration=60.0, seed=3))


def _reference_lane(query, segments, harvest, stop):
    """One query on the reference stepping loop, as a lane dict."""
    plant = query.plant
    if harvest == "env":
        harvester = TraceHarvester(*ENV_GRID)
    else:
        harvester = ConstantPowerHarvester(plant.harvest_power)
    system = plant.system(BatchShared(), harvester)
    system.rest_at(query.v_start)
    sim = PowerSystemSimulator(system, fast=False)
    brownout = sim._advance_span(segments, harvest != "off", stop)
    return {"v_end": system.buffer.terminal_voltage,
            "v_min": sim._v_min_seen, "time": sim.time,
            "energy": sim._energy_out, "brownout": brownout}


def _advance(queries, segments, harvest, stop):
    env = {}
    if harvest == "env":
        edges, base = ENV_GRID
        env = dict(harvest_edges=edges,
                   harvest_powers=[base] * len(queries))
    return advance_batch(queries, segments, harvesting=harvest != "off",
                         stop_below=stop, **env)


class TestReferenceLoop:
    @pytest.mark.parametrize("stop", [None, 1.6])
    @pytest.mark.parametrize("harvest", ["off", "constant", "env"])
    def test_every_lane_equals_the_reference_loop(self, harvest, stop):
        # Every plant from above and from below V_off.
        queries = [BatchQuery(plant=p, v_start=v)
                   for p in PLANTS for v in (2.3, 1.5)]
        batch = _advance(queries, MIXED_SEGMENTS, harvest, stop)
        for i, query in enumerate(queries):
            expected = _reference_lane(query, MIXED_SEGMENTS, harvest,
                                       stop)
            assert canonical(batch.lane(i)) == canonical(expected)

    def test_v_start_below_v_off_starts_disabled(self):
        # The monitor starts off below V_off: the load never draws, and
        # with the stop level at V_off the lane browns out on its first
        # step.
        query = BatchQuery(plant=BatchPlant(), v_start=1.0)
        free = advance_batch([query], [(0.02, 0.1)]).lane(0)
        assert free["energy"] == 0.0 and free["brownout"] is None
        stopped = advance_batch([query], [(0.02, 0.1)],
                                stop_below=1.6).lane(0)
        assert stopped["brownout"] == stopped["time"] < 1e-3


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
            advance_batch([], MIXED_SEGMENTS)

    def test_overcommitted_capacitance_is_caught(self):
        plant = BatchPlant(datasheet_capacitance=50e-6,
                           c_decoupling=100e-6)
        with pytest.raises(ValueError):
            plant.system(BatchShared())
        with pytest.raises(ValueError):
            advance_batch([BatchQuery(plant=plant, v_start=2.0)],
                          MIXED_SEGMENTS)

    @pytest.mark.parametrize("plant,shared", [
        (BatchPlant(dc_esr=0.0), BatchShared()),
        (BatchPlant(), BatchShared(v_off=3.0)),
    ])
    def test_scalar_model_rejects_bad_plants(self, plant, shared):
        with pytest.raises(ValueError):
            plant.system(shared)

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
