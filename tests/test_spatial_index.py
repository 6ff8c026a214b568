"""Spatial index suite: the incremental grid index vs a dense oracle.

The grid index behind :class:`~repro.sim.network.Network` must be
*indistinguishable* from a dense pairwise-distance computation on every
observable: neighbor arrays (values and order), patched graphs after
moves/deaths/recoveries, and CSR multi-source-BFS hop counts.  The
oracle below is deliberately naive — an ``n × n`` distance matrix and
networkx BFS over a freshly built graph — so it shares no code with the
index.  One SPR flood is also run over both the grid rows and the
oracle's rows; whole simulations are pinned by the golden digests
(``tests/test_golden.py``).
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.base import ProtocolConfig
from repro.core.spr import SPR
from repro.exceptions import ConfigurationError
from repro.sim.network import Network, build_sensor_network, uniform_deployment
from repro.sim.node import NodeKind
from repro.sim.spatial import CellGrid
from repro.world import WorldBuilder

COMM_RANGE = 30.0
FIELD = 100.0


# ----------------------------------------------------------------------
# the dense oracle
# ----------------------------------------------------------------------
def dense_neighbors(positions, comm_range=COMM_RANGE):
    """Neighbor rows from the full pairwise squared-distance matrix."""
    pos = np.asarray(positions, dtype=float)
    diff = pos[:, None, :] - pos[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    within = d2 <= comm_range * comm_range
    np.fill_diagonal(within, False)
    return [np.nonzero(row)[0] for row in within]


def dense_graph(positions, alive=None, comm_range=COMM_RANGE):
    """The link graph over ``alive`` nodes (all nodes when ``None``)."""
    rows = dense_neighbors(positions, comm_range)
    keep = [i for i in range(len(rows)) if alive is None or alive[i]]
    g = nx.Graph()
    g.add_nodes_from(keep)
    for i in keep:
        g.add_edges_from((i, int(j)) for j in rows[i] if int(j) in g)
    return g


def dense_hops(positions, targets, alive=None, comm_range=COMM_RANGE):
    """Multi-source BFS hop counts to the nearest valid target."""
    g = dense_graph(positions, alive, comm_range)
    sources = {int(t) for t in targets if int(t) in g}
    if not sources:
        return {}
    return dict(nx.multi_source_dijkstra_path_length(g, sources, weight=None))


def _kinds(n):
    return [NodeKind.SENSOR] * (n - 1) + [NodeKind.GATEWAY]


def _net(pos, comm_range=COMM_RANGE):
    return Network(pos, _kinds(len(pos)), comm_range=comm_range)


def _positions(n, seed, field=FIELD):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, field, size=(n, 2))


def assert_matches_oracle(net, comm_range=COMM_RANGE):
    expected = dense_neighbors(net.positions, comm_range)
    assert len(net) == len(expected)
    for i, want in enumerate(expected):
        got = net.neighbors(i)
        assert np.array_equal(got, want), f"node {i}: grid {got} != dense {want}"


# ----------------------------------------------------------------------
# neighbor-set equivalence
# ----------------------------------------------------------------------
class TestNeighborEquivalence:
    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_rows_match_bruteforce(self, n, seed):
        assert_matches_oracle(_net(_positions(n, seed)))

    def test_exact_comm_range_is_a_link(self):
        # d == comm_range must be an edge (closed ball).
        pos = np.array([[0.0, 0.0], [COMM_RANGE, 0.0], [2 * COMM_RANGE + 0.001, 0.0]])
        net = _net(pos)
        assert list(net.neighbors(0)) == [1]
        assert_matches_oracle(net)

    def test_nodes_on_cell_boundaries(self):
        # Coordinates at exact multiples of the cell side (== comm_range)
        # land on bucket boundaries; negative coordinates exercise floor
        # semantics below zero.
        r = COMM_RANGE
        pos = np.array([
            [0.0, 0.0], [r, 0.0], [2 * r, 0.0], [0.0, r], [r, r],
            [-r, 0.0], [-r, -r], [0.0, -r], [r / 2, r / 2],
        ])
        assert_matches_oracle(_net(pos))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_quantized_positions(self, seed):
        # Positions snapped to multiples of comm_range/2 pile nodes onto
        # cell borders and at distances exactly equal to the range.
        rng = np.random.default_rng(seed)
        pos = rng.integers(-3, 4, size=(25, 2)).astype(float) * (COMM_RANGE / 2)
        assert_matches_oracle(_net(pos))

    def test_grid_rejects_radius_beyond_cell(self):
        grid = CellGrid(np.zeros((2, 2)), cell_size=10.0)
        with pytest.raises(ConfigurationError):
            grid.neighbors_within(0, 10.5)

    def test_unknown_index_rejected(self):
        # The grid is the only index: Network takes no index selector.
        with pytest.raises(TypeError, match="index"):
            Network(np.zeros((2, 2)), [NodeKind.SENSOR] * 2, index="kdtree")


# ----------------------------------------------------------------------
# incremental moves
# ----------------------------------------------------------------------
class TestIncrementalMoves:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_random_move_sequence_matches_fresh_rebuild(self, seed):
        rng = np.random.default_rng(seed)
        pos = _positions(30, seed)
        grid_net = _net(pos)
        grid_net.neighbors(0)  # force the incremental path, not a rebuild
        for _ in range(8):
            mover = int(rng.integers(len(pos)))
            target = rng.uniform(-20, FIELD + 20, size=2)
            grid_net.move_node(mover, target)
            pos[mover] = target
            assert np.array_equal(grid_net.positions, pos)
            assert_matches_oracle(grid_net)

    def test_move_round_trip_restores_rows(self):
        pos = _positions(25, seed=3)
        grid_net = _net(pos)
        before = [grid_net.neighbors(i).copy() for i in range(len(grid_net))]
        home = pos[24].copy()
        for step in ([5.0, 5.0], [95.0, 95.0], [-10.0, 50.0], home):
            grid_net.move_node(24, step)
        for i, row in enumerate(before):
            assert np.array_equal(grid_net.neighbors(i), row)

    def test_noop_move_keeps_edge_epoch(self):
        grid_net = _net(_positions(20, seed=1))
        grid_net.neighbors(0)
        epoch = grid_net.topology_epoch
        # A tiny jiggle that changes no neighbor set must not invalidate
        # CSR/graph caches (the epoch is the validity stamp).
        grid_net.move_node(0, grid_net.positions[0] + 1e-9)
        assert grid_net.topology_epoch == epoch

    def test_move_before_first_query_builds_lazily(self):
        grid_net = _net(_positions(15, seed=2))
        grid_net.move_node(3, [0.0, 0.0])  # no cache yet: nothing to patch
        assert_matches_oracle(grid_net)

    def test_invalidate_escape_hatch(self):
        grid_net = _net(_positions(15, seed=4))
        grid_net.neighbors(0)
        grid_net.positions[:] = _positions(15, seed=5)  # wholesale rewrite
        grid_net.invalidate()
        assert_matches_oracle(grid_net)


# ----------------------------------------------------------------------
# graph patching under moves and deaths
# ----------------------------------------------------------------------
def _graph_signature(g):
    return (set(g.nodes), {frozenset(e) for e in g.edges})


class TestGraphPatching:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_patched_graph_equals_rebuilt(self, seed):
        rng = np.random.default_rng(seed)
        pos = _positions(30, seed)
        alive = np.ones(len(pos), dtype=bool)
        grid_net = _net(pos.copy())
        grid_net.graph()  # prime the cache so later queries are patches
        for _ in range(6):
            action = rng.integers(3)
            node = int(rng.integers(len(pos)))
            if action == 0:
                target = rng.uniform(0, FIELD, size=2)
                grid_net.move_node(node, target)
                pos[node] = target
            elif action == 1:
                grid_net.nodes[node].fail()
                alive[node] = False
            else:
                grid_net.nodes[node].recover()
                alive[node] = True
            assert _graph_signature(grid_net.graph()) == _graph_signature(
                dense_graph(pos, alive)
            )
            assert _graph_signature(grid_net.graph(alive_only=False)) == _graph_signature(
                dense_graph(pos)
            )

    def test_patched_graph_is_same_object(self, line_network):
        g1 = line_network.graph()
        gw = line_network.gateway_ids[0]
        line_network.move_node(gw, (0.0, 10.0))
        g2 = line_network.graph()
        assert g2 is g1  # patched in place, not rebuilt
        assert g2.has_edge(0, gw) and not g2.has_edge(4, gw)

    def test_death_patches_alive_graph(self, line_network):
        g = line_network.graph()
        line_network.nodes[2].fail()
        assert 2 not in line_network.graph()
        line_network.nodes[2].recover()
        assert sorted(line_network.graph()[2]) == [1, 3]
        assert line_network.graph() is g

    def test_sleep_counts_as_not_alive(self, line_network):
        line_network.graph()
        line_network.nodes[1].sleeping = True
        assert 1 not in line_network.graph()
        line_network.nodes[1].sleeping = False
        assert 1 in line_network.graph()

    def test_battery_death_updates_mask(self):
        net = build_sensor_network(
            np.array([[0.0, 0.0], [10.0, 0.0]]), np.array([[20.0, 0.0]]),
            comm_range=12.0, sensor_battery=1.0,
        )
        net.graph()
        assert bool(net.alive_mask[0])
        net.nodes[0].energy.charge_tx(2.0, now=1.0)
        assert not bool(net.alive_mask[0])
        assert 0 not in net.graph()


# ----------------------------------------------------------------------
# hops_to: CSR BFS vs networkx
# ----------------------------------------------------------------------
class TestHopsEquivalence:
    @given(st.integers(min_value=5, max_value=50), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_hops_match_networkx(self, n, seed):
        rng = np.random.default_rng(seed)
        pos = _positions(n, seed)
        grid_net = _net(pos)
        alive = np.ones(n, dtype=bool)
        kills = rng.choice(n, size=min(3, n - 1), replace=False)
        for k in kills:
            grid_net.nodes[int(k)].fail()
            alive[int(k)] = False
        targets = grid_net.gateway_ids + [int(kills[0])]
        assert grid_net.hops_to(targets) == dense_hops(pos, targets, alive)
        assert grid_net.hops_to(targets, alive_only=False) == dense_hops(pos, targets)

    def test_hops_after_moves(self, line_network):
        pos = line_network.positions.copy()
        gw = line_network.gateway_ids[0]
        line_network.hops_to([gw])
        for target in ([0.0, 10.0], [25.0, 5.0], [50.0, 0.0]):
            line_network.move_node(gw, target)
            pos[gw] = target
            assert line_network.hops_to([gw]) == dense_hops(pos, [gw], comm_range=12.0)

    def test_empty_and_invalid_targets(self, line_network):
        assert line_network.hops_to([]) == {}
        assert line_network.hops_to([99, -1]) == {}
        line_network.nodes[5].fail()
        assert line_network.hops_to([5]) == {}  # dead target filtered
        assert 5 in line_network.hops_to([5], alive_only=False)

    def test_collection_connectivity_matches(self):
        pos = _positions(40, seed=11)
        grid_net = _net(pos)
        hops = dense_hops(pos, grid_net.gateway_ids)
        assert grid_net.is_collection_connected() == all(
            s in hops for s in grid_net.sensor_ids
        )


# ----------------------------------------------------------------------
# alive_neighbors vectorisation
# ----------------------------------------------------------------------
class TestAliveNeighbors:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_matches_python_filter(self, seed):
        rng = np.random.default_rng(seed)
        net = _net(_positions(30, seed))
        for k in rng.choice(30, size=5, replace=False):
            net.nodes[int(k)].fail()
        for i in range(30):
            expected = [int(j) for j in net.neighbors(i) if net.nodes[int(j)].alive]
            assert list(net.alive_neighbors(i)) == expected


# ----------------------------------------------------------------------
# whole-simulation equivalence
# ----------------------------------------------------------------------
class DenseNetwork(Network):
    """A :class:`Network` whose neighbor rows come from the dense oracle.

    Only the initial neighbor build is replaced, so it supports static
    topologies (no ``move_node``); liveness, graphs and CSR adjacency
    are all derived from these rows.
    """

    def _build_neighbor_cache(self):
        return [
            row.astype(np.intp)
            for row in dense_neighbors(self.positions, self.comm_range)
        ]


class TestSimulationEquivalence:
    # A whole SPR flood run over grid rows must match the same run over
    # the dense oracle's rows, on both delivery paths of the channel
    # (batched draining and one event per reception).
    @pytest.mark.parametrize("batched", [True, False])
    def test_flood_bit_identical_across_indexes(self, batched):
        sensors = uniform_deployment(80, 150.0, seed=13)
        positions = np.vstack([sensors, [[75.0, 75.0]]])

        def run(network_cls):
            net = network_cls(positions, _kinds(len(positions)), comm_range=COMM_RANGE)
            world = WorldBuilder().seed(7).network(net).ideal_radio().build()
            world.channel._batched = batched
            spr = world.attach(SPR, ProtocolConfig(table_answering=False))
            for k in range(4):
                world.sim.schedule(0.5 * k, spr.send_data, k)
            world.sim.run()
            m = world.metrics
            return (
                world.events_processed,
                int(sum(m.sent.values())),
                int(sum(m.received.values())),
                dict(m.drops),
            )

        grid = run(Network)
        assert grid[1] > 0 and grid[2] > 0
        assert grid == run(DenseNetwork)


# ----------------------------------------------------------------------
# boundary-band queries (shard halo watch sets)
# ----------------------------------------------------------------------
class TestCellsInBand:
    """``cells_in_band`` vs a brute-force distance-to-boundary filter."""

    @staticmethod
    def _boundary_distance(p, region):
        """Distance from ``p`` to the boundary curve of ``region``."""
        import math

        x0, y0, x1, y1 = region
        x, y = float(p[0]), float(p[1])
        dx = max(x0 - x, 0.0, x - x1)
        dy = max(y0 - y, 0.0, y - y1)
        outside = math.hypot(dx, dy)
        if outside > 0.0:
            return outside
        return min(x - x0, x1 - x, y - y0, y1 - y)

    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n=st.integers(min_value=1, max_value=60),
        width=st.floats(min_value=0.0, max_value=40.0),
        fx0=st.floats(min_value=0.0, max_value=0.6),
        fy0=st.floats(min_value=0.0, max_value=0.6),
        fx1=st.floats(min_value=0.0, max_value=0.6),
        fy1=st.floats(min_value=0.0, max_value=0.6),
        cell=st.floats(min_value=5.0, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_superset_and_bounded_slack(
        self, seed, n, width, fx0, fy0, fx1, fy1, cell
    ):
        import math

        pos = _positions(n, seed, field=120.0)
        region = (
            120.0 * fx0,
            120.0 * fy0,
            120.0 * (1.0 - fx1),
            120.0 * (1.0 - fy1),
        )
        if region[2] < region[0] or region[3] < region[1]:
            return
        grid = CellGrid(pos, cell)
        got = set(int(i) for i in grid.cells_in_band(region, width))
        # Per-axis rectangle tests: a grown-rect corner point can sit
        # sqrt(2)*width from the region, plus a cell-diagonal overhang.
        slack = math.sqrt(2.0) * (width + cell)
        for i in range(n):
            d = self._boundary_distance(pos[i], region)
            if d <= width:
                assert i in got, f"node {i} at boundary distance {d} missed"
            if i in got:
                assert d <= slack, f"node {i} at distance {d} > slack {slack}"

    def test_output_is_sorted_and_typed(self):
        pos = _positions(40, 3)
        grid = CellGrid(pos, 10.0)
        out = grid.cells_in_band((20.0, 20.0, 80.0, 80.0), 5.0)
        assert out.dtype == np.intp
        assert list(out) == sorted(out)

    def test_rejects_bad_region_and_width(self):
        grid = CellGrid(_positions(10, 0), 10.0)
        with pytest.raises(ConfigurationError):
            grid.cells_in_band((50.0, 0.0, 10.0, 10.0), 5.0)
        with pytest.raises(ConfigurationError):
            grid.cells_in_band((0.0, 0.0, 10.0, 10.0), -1.0)
        with pytest.raises(ConfigurationError):
            grid.cells_in_band((0.0, 0.0, 10.0, 10.0), float("inf"))
