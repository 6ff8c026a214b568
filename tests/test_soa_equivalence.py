"""SoA-vs-object equivalence and the NodeStateStore / WorldConfig API.

The struct-of-arrays core is an *execution strategy*, never a model
change: for any scenario — lossy radio, finite batteries, crashes and
recoveries — a world built with ``soa=True`` must produce bit-identical
metrics rows, per-node energy ledgers and RNG streams to the per-object
reference path, and both must pass the packet-conservation audit.  The
hypothesis property below holds that over randomized fault scenarios;
the unit tests pin the store's public API (``charge``, ``alive_view``,
``route_columns``) and the :class:`~repro.world.WorldConfig` parameter
plumbing (round-trip, cache-key identity, removal of bare kwargs).
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.base import ProtocolConfig
from repro.core.spr import SPR
from repro.exceptions import ConfigurationError
from repro.experiments.common import make_grid_scenario
from repro.faults.plan import BatteryDrain, Crash, FaultPlan, Recover
from repro.runner.spec import cache_key
from repro.sim.network import Network
from repro.sim.node import NodeKind
from repro.sim.radio import IEEE802154
from repro.sim.serialize import to_jsonable
from repro.sim.state import NO_ROUTE, NodeStateStore
from repro.world import WorldBuilder, WorldConfig

N_SENSORS = 14


def _fingerprint(scenario):
    """Everything that must be bit-identical across execution paths."""
    m = scenario.metrics
    return {
        "events": scenario.events_processed,
        "sent": dict(m.sent),
        "received": dict(m.received),
        "drops": dict(m.drops),
        "bytes": m.bytes_sent,
        "generated": m.data_generated,
        "deliveries": [dataclasses.astuple(d) for d in m.deliveries],
        "energy": [
            (nd.energy.spent_tx, nd.energy.spent_rx, nd.energy.spent_idle,
             nd.energy.remaining, nd.alive)
            for nd in scenario.network.nodes
        ],
        "rng": scenario.sim.rng.bit_generator.state,
    }


def _run(soa, *, seed, loss, battery, plan):
    builder = (
        WorldBuilder()
        .seed(seed)
        .uniform_sensors(N_SENSORS, field_size=80.0, topology_seed=seed)
        .gateways([[40.0, 40.0], [15.0, 15.0]])
        .comm_range(35.0)
        .sensor_battery(battery)
        .radio(dataclasses.replace(IEEE802154.ideal(), loss_rate=loss))
        .require_connected(False)
        .audit()
        .soa(soa)
    )
    if plan is not None:
        builder.faults(plan)
    world = builder.build()
    spr = world.attach(SPR, ProtocolConfig(table_answering=False))
    for i in range(N_SENSORS):
        world.sim.schedule(0.4 * i + 0.01, spr.send_data, i)
        world.sim.schedule(0.4 * i + 6.5, spr.send_data, (i * 5) % N_SENSORS)
    world.sim.run(until=30.0)
    world.assert_conserved()
    return _fingerprint(world)


@st.composite
def _fault_plans(draw):
    events = []
    for node in draw(
        st.lists(st.integers(0, N_SENSORS - 1), max_size=3, unique=True)
    ):
        t = draw(st.floats(0.5, 8.0, allow_nan=False, allow_infinity=False))
        events.append(Crash(node=node, t=t))
        if draw(st.booleans()):
            events.append(Recover(node=node, t=t + draw(st.floats(0.5, 4.0))))
    if draw(st.booleans()):
        events.append(
            BatteryDrain(
                node=draw(st.integers(0, N_SENSORS - 1)),
                t=draw(st.floats(0.5, 6.0)),
                fraction=draw(st.floats(0.1, 0.95)),
            )
        )
    return FaultPlan(tuple(events)) if events else None


class TestSoAEquivalence:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**16),
        loss=st.sampled_from([0.0, 0.15, 0.3]),
        battery=st.sampled_from([math.inf, 0.05]),
        plan=_fault_plans(),
    )
    def test_soa_is_bit_identical_to_object_path(self, seed, loss, battery, plan):
        obj = _run(False, seed=seed, loss=loss, battery=battery, plan=plan)
        soa = _run(True, seed=seed, loss=loss, battery=battery, plan=plan)
        assert obj == soa

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

    def test_batchable_rejects_finite_and_dead_rows(self):
        store = self._store([math.inf, math.inf, 0.5])
        assert store.batchable(np.array([0, 1]))
        assert not store.batchable(np.array([0, 2]))  # finite battery
        store.set_failed(0, True)
        assert not store.batchable(np.array([0, 1]))  # dead row

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
            soa=False,
            audit=True,
            faults=FaultPlan((Crash(node=2, t=1.5),)),
        )
        assert WorldConfig.from_param(to_jsonable(cfg)) == cfg
        assert WorldConfig.from_param(cfg) is cfg
        assert WorldConfig.from_param(None) is None

    def test_from_param_rejects_bare_dicts(self):
        with pytest.raises(ConfigurationError):
            WorldConfig.from_param({"soa": False})

    def test_cache_key_separates_execution_configs(self):
        base = cache_key("e", {"world": WorldConfig()}, 0, version="t")
        soa_off = cache_key(
            "e", {"world": WorldConfig(soa=False)}, 0, version="t"
        )
        as_jsonable = cache_key(
            "e", {"world": to_jsonable(WorldConfig())}, 0, version="t"
        )
        assert base != soa_off
        assert base == as_jsonable
        # tuple params keep their historical list encoding
        assert cache_key("e", {"sizes": (50,)}, 0, version="t") == cache_key(
            "e", {"sizes": [50]}, 0, version="t"
        )

    def test_builder_wrappers_update_config(self):
        b = WorldBuilder().audit(True).soa(False)
        assert b.config == WorldConfig(soa=False, audit=True)
        b.configure(WorldConfig(soa=False))
        assert b.config == WorldConfig(soa=False)

    @pytest.mark.parametrize("stale", ["vectorized", "spatial_index"])
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
        assert Network(np.zeros((3, 2)), [NodeKind.SENSOR] * 3, soa=False).store is None

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
