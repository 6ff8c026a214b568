"""Topology microbenchmark: incremental spatial index vs full rebuild.

MLR's per-round cost is topological: a gateway moves to its next
feasible place, its neighborhood is recomputed, and every sensor's
hop count to the gateway set is refreshed (Section 5.3 steps 1-3).
Pre-refactor, each move cleared every cache — an O(n^2) pairwise
distance rebuild plus a full networkx Dijkstra per round.  The grid
index makes the move O(k) (rebucket one node, patch its row and the
affected reverse rows) and answers ``hops_to`` with a multi-source
BFS over a cached CSR adjacency rebuilt only when the topology epoch
or alive mask actually changed.

This benchmark drives the same place-rotation loop through two legs of
the same grid-indexed :class:`~repro.sim.network.Network`:
``incremental`` (``move_node`` patches in place) and ``rebuild``
(``invalidate()`` after every move, so each round pays the full
neighbor-table, graph and CSR rebuild the incremental path avoids), and
reports rounds/sec plus the speedup.  Periodic sensor deaths exercise
the alive-mask path.  The two legs are observably identical — per-round
digests of the moved gateway's neighbor row and the full hop table are
asserted equal, so the benchmark doubles as an equivalence check.

Run standalone to refresh the committed record::

    PYTHONPATH=src python benchmarks/bench_topology.py --nodes 2000

The record lands at the repo root as ``BENCH_topology.json`` in the
``BENCH_hotpath.json`` schema (config + legs + digest + speedup) via
:mod:`benchmarks._record`; ``--json -`` prints it instead.  The CI
smoke job runs a small config with ``--min-speedup`` so a regression
that makes the incremental path lose its edge over a rebuild fails
loudly.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from _record import bench_record, write_bench
from repro.sim.network import build_sensor_network, uniform_deployment

#: target mean node degree — MLR fields in the paper's sweeps are dense.
_TARGET_DEGREE = 15.0
_COMM_RANGE = 40.0
_NUM_GATEWAYS = 3
_NUM_PLACES = 8
#: kill one sensor every this many rounds (alive-mask churn).
_DEATH_PERIOD = 25


def _field_size(n_nodes: int) -> float:
    """Field edge giving roughly ``_TARGET_DEGREE`` neighbors per node."""
    return math.sqrt(n_nodes * math.pi * _COMM_RANGE**2 / _TARGET_DEGREE)


def _feasible_places(field: float) -> list[tuple[float, float]]:
    """A ring of feasible places just inside the field boundary."""
    cx = cy = field / 2.0
    radius = 0.42 * field
    return [
        (cx + radius * math.cos(2 * math.pi * k / _NUM_PLACES),
         cy + radius * math.sin(2 * math.pi * k / _NUM_PLACES))
        for k in range(_NUM_PLACES)
    ]


def run_rotation(n_nodes: int, rounds: int, rebuild: bool, seed: int = 0) -> dict:
    """Drive the move -> neighbors -> hops_to loop and time it.

    ``rebuild`` drops every topology cache after each move.  Returns
    wall clock, rounds/sec and a per-round digest stream used to prove
    both legs computed the same thing.
    """
    field = _field_size(n_nodes)
    places = _feasible_places(field)
    sensors = uniform_deployment(n_nodes, field, seed=seed)
    gateways = np.asarray(places[:_NUM_GATEWAYS])
    net = build_sensor_network(sensors, gateways, comm_range=_COMM_RANGE)
    gateway_ids = net.gateway_ids

    # Pre-warm outside the timed loop: both legs start from a fully
    # built neighbor table, graph and hop cache.
    net.neighbors(0)
    net.hops_to(gateway_ids)

    digests: list[tuple[int, ...]] = []
    t0 = time.perf_counter()
    for r in range(rounds):
        gw = gateway_ids[r % _NUM_GATEWAYS]
        target = places[(r + r // _NUM_GATEWAYS + 1) % _NUM_PLACES]
        net.move_node(gw, target)
        if rebuild:
            net.invalidate()
        if r % _DEATH_PERIOD == _DEATH_PERIOD - 1:
            net.nodes[(r * 37) % n_nodes].fail()
        nbrs = net.neighbors(gw)
        alive_nbrs = net.alive_neighbors(gw)
        hops = net.hops_to(gateway_ids)
        digests.append((
            len(nbrs), int(np.sum(nbrs)), len(alive_nbrs),
            len(hops), sum(hops.values()),
        ))
    wall = time.perf_counter() - t0

    return {
        "leg": "rebuild" if rebuild else "incremental",
        "nodes": n_nodes,
        "rounds": rounds,
        "wall_clock_s": wall,
        "rounds_per_sec": rounds / wall,
        "digests": digests,
    }


def run_benchmark(n_nodes: int, rounds: int, seed: int = 0) -> dict:
    rebuild = run_rotation(n_nodes, rounds, rebuild=True, seed=seed)
    incremental = run_rotation(n_nodes, rounds, rebuild=False, seed=seed)
    # Equivalence: every round's neighbor row and hop table must match.
    digests = rebuild.pop("digests")
    for r, (want, got) in enumerate(zip(digests, incremental.pop("digests"))):
        if want != got:
            raise AssertionError(
                f"rebuild and incremental legs diverged at round {r}: "
                f"rebuild={want} incremental={got}"
            )
    return bench_record(
        config={"nodes": n_nodes, "rounds": rounds, "seed": seed,
                "comm_range": _COMM_RANGE, "field_size": _field_size(n_nodes),
                "gateways": _NUM_GATEWAYS, "places": _NUM_PLACES},
        legs={"rebuild": rebuild, "incremental": incremental},
        digest={"rounds": rounds,
                "hop_sum_checksum": sum(d[-1] for d in digests),
                "neighbor_checksum": sum(d[0] for d in digests)},
        speedup=rebuild["wall_clock_s"] / incremental["wall_clock_s"],
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=2000)
    parser.add_argument("--rounds", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="record destination ('-' for stdout; default "
                             "BENCH_topology.json at the repo root)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero when speedup falls below this")
    args = parser.parse_args(argv)

    report = run_benchmark(args.nodes, args.rounds, seed=args.seed)
    written = write_bench("topology", report, path=args.json)
    if written != "-":
        b, g = report["legs"]["rebuild"], report["legs"]["incremental"]
        print(f"nodes={args.nodes} rounds={args.rounds}")
        print(f"rebuild:     {b['wall_clock_s']:.3f}s  "
              f"{b['rounds_per_sec']:,.1f} rounds/s")
        print(f"incremental: {g['wall_clock_s']:.3f}s  "
              f"{g['rounds_per_sec']:,.1f} rounds/s")
        print(f"speedup:     {report['speedup']:.2f}x")
        print(f"record:      {written}")

    if args.min_speedup is not None and report["speedup"] < args.min_speedup:
        print(f"FAIL: speedup {report['speedup']:.2f}x < required "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
