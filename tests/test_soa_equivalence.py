"""The NodeStateStore API and the WorldConfig parameter plumbing.

The store's columns are the only node state: the unit tests pin its
public API (``charge``, ``alive_view``, ``route_columns``) and that the
routing layer mirrors its tables into the route columns; the
:class:`~repro.world.WorldConfig` tests pin round-trip, cache-key
identity and the removal of bare kwargs and retired settings.  Whole-run
behaviour is pinned by the recorded golden digests (``tests/golden/``).
"""

import math
import warnings

import numpy as np
import pytest

from repro.core.spr import SPR
from repro.exceptions import ConfigurationError
from repro.experiments.common import make_grid_scenario
from repro.faults.plan import Crash, FaultPlan
from repro.runner.spec import cache_key
from repro.sim.network import Network
from repro.sim.node import NodeKind
from repro.sim.serialize import to_jsonable
from repro.sim.state import NO_ROUTE, NodeStateStore
from repro.world import WorldBuilder, WorldConfig


class TestSoAEquivalence:
    def test_route_column_mirrors_routing_table(self):
        sensors = np.array([[float(10 * i), 0.0] for i in range(5)])
        world = (
            WorldBuilder()
            .seed(3)
            .sensors(sensors)
            .gateways([[50.0, 0.0]])
            .comm_range(12.0)
            .ideal_radio()
            .build()
        )
        spr = world.attach(SPR)
        spr.send_data(0)
        world.sim.run(until=20.0)
        store = world.network.store
        next_hop, route_seq = store.route_columns()
        for i in range(5):
            best = spr.routing_table(i).best()
            expected = NO_ROUTE if best is None else best.next_hop
            assert next_hop[i] == expected
        assert next_hop[0] == 1  # the line's only way out
        assert (route_seq[:5] > 0).all()


class TestNodeStateStore:
    def _store(self, capacities):
        kinds = [NodeKind.SENSOR] * len(capacities)
        return NodeStateStore(kinds, capacities)

    def test_batched_charge_matches_scalar_charges(self):
        a = self._store([math.inf] * 4)
        b = self._store([math.inf] * 4)
        ids = np.array([0, 2, 3])
        a.charge(ids, 0.25, kind="rx")
        for i in ids:
            b.charge_rx(int(i), 0.25, now=1.0)
        assert a.spent_rx.tolist() == b.spent_rx.tolist()
        assert a.remaining.tolist() == b.remaining.tolist()
        a_tx, a_rx = a.counter_columns()
        b_tx, b_rx = b.counter_columns()
        assert a_rx.tolist() == b_rx.tolist() == [1, 0, 1, 1]
        assert a_tx.tolist() == b_tx.tolist() == [0, 0, 0, 0]

    def test_alive_view_is_readonly_and_tracks_failures(self):
        store = self._store([math.inf] * 3)
        alive = store.alive_view()
        assert alive.all()
        with pytest.raises((ValueError, RuntimeError)):
            alive[0] = False
        store.set_failed(1, True)
        assert store.alive_view().tolist() == [True, False, True]

    def test_note_route_bumps_seq_only_on_change(self):
        store = self._store([math.inf] * 2)
        next_hop, route_seq = store.route_columns()
        store.note_route(0, 7)
        assert (next_hop[0], route_seq[0]) == (7, 1)
        store.note_route(0, 7)  # same hop: no bump
        assert route_seq[0] == 1
        store.note_route(0, None)
        assert (next_hop[0], route_seq[0]) == (NO_ROUTE, 2)
        with pytest.raises((ValueError, RuntimeError)):
            next_hop[0] = 3

    def test_note_queued_accumulates_deltas(self):
        store = self._store([math.inf])
        store.note_queued(0, 2)
        store.note_queued(0, -1)
        assert store.queue_depth[0] == 1


class TestWorldConfigAPI:
    def test_from_param_round_trips_jsonable_form(self):
        cfg = WorldConfig(
            audit=True,
            faults=FaultPlan((Crash(node=2, t=1.5),)),
        )
        assert WorldConfig.from_param(to_jsonable(cfg)) == cfg
        assert WorldConfig.from_param(cfg) is cfg
        assert WorldConfig.from_param(None) is None

    def test_from_param_rejects_bare_dicts(self):
        with pytest.raises(ConfigurationError):
            WorldConfig.from_param({"audit": True})

    def test_cache_key_separates_execution_configs(self):
        base = cache_key("e", {"world": WorldConfig()}, 0, version="t")
        audited = cache_key(
            "e", {"world": WorldConfig(audit=True)}, 0, version="t"
        )
        as_jsonable = cache_key(
            "e", {"world": to_jsonable(WorldConfig())}, 0, version="t"
        )
        assert base != audited
        assert base == as_jsonable
        # tuple params keep their historical list encoding
        assert cache_key("e", {"sizes": (50,)}, 0, version="t") == cache_key(
            "e", {"sizes": [50]}, 0, version="t"
        )

    def test_builder_wrappers_update_config(self):
        plan = FaultPlan((Crash(node=2, t=1.5),))
        b = WorldBuilder().audit(True).faults(plan)
        assert b.config == WorldConfig(audit=True, faults=plan)
        b.configure(WorldConfig(shards=3))
        assert b.config == WorldConfig(shards=3)
        assert not hasattr(b, "soa")

    @pytest.mark.parametrize(
        "stale",
        ["vectorized", "spatial_index", "soa", "checkpoint_dir", "checkpoint_every"],
    )
    def test_from_param_rejects_unknown_fields(self, stale):
        # A saved spec or trace from before a setting was removed must
        # not silently run the default for it.
        blob = to_jsonable(WorldConfig(audit=True))
        blob["fields"][stale] = "bruteforce" if stale == "spatial_index" else False
        with pytest.raises(ConfigurationError, match=stale):
            WorldConfig.from_param(blob)

    def test_directly_built_network_uses_the_store(self):
        net = Network(np.zeros((3, 2)), [NodeKind.SENSOR] * 3)
        assert net.store is not None
        assert net.nodes[1].energy is net.store.energy_view(1)
        with pytest.raises(TypeError, match="soa"):
            Network(np.zeros((3, 2)), [NodeKind.SENSOR] * 3, soa=True)

    def test_bare_kwargs_path_is_gone(self):
        # The deprecated resolve_world_config shim was removed outright.
        with pytest.raises(ImportError):
            from repro.experiments.common import resolve_world_config  # noqa: F401

    def test_make_scenario_rejects_bare_kwargs(self):
        with pytest.raises(TypeError, match="audit"):
            make_grid_scenario(2, 2, 10.0, [[0.0, 0.0]], comm_range=15.0, audit=False)
        with pytest.raises(TypeError, match="spatial_index"):
            make_grid_scenario(
                2, 2, 10.0, [[0.0, 0.0]],
                comm_range=15.0, spatial_index="bruteforce",
            )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            make_grid_scenario(
                2, 2, 10.0, [[0.0, 0.0]],
                comm_range=15.0, world=WorldConfig(audit=False),
            )
