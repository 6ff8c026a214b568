"""Hot-path microbenchmark: frozen scalar loop vs per-object vs struct-of-arrays.

Broadcast floods dominate E4/E8/E9 sweeps, and each flood frame fans out
to every neighbor of the sender — reception delivery is where simulation
time goes.  This benchmark floods a dense uniform field through three
legs:

* ``object-scalar`` — per-object node state (``soa=False``) with the
  original per-neighbor Python fan-out loop.  That loop no longer exists
  in the simulator; a frozen copy (:func:`_fanout_scalar`) lives here
  and is installed on this benchmark's own channel, so the speedup gates
  keep measuring against the same baseline;
* ``object-vec`` — per-object node state, NumPy-batched per-event
  fan-out (``soa=False``);
* ``soa`` — the :class:`~repro.sim.state.NodeStateStore` columns plus
  batched delivery draining (the default).

All three are draw-order stable, so their simulations are bit-identical;
the benchmark asserts one shared :func:`~repro.shard.runner.run_digest`
across the legs before reporting timings, making it a correctness gate
as well as a timer.  Run standalone for JSON output::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --nodes 500 \
        --json BENCH_hotpath.json

The CI smoke job runs a small config with ``--min-speedup`` (object-vec
vs object-scalar) and ``--min-soa-speedup`` (SoA vs object-scalar) so a
regression that loses the batched paths' advantage fails loudly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import types

import numpy as np

from repro.core.base import ProtocolConfig
from repro.core.spr import SPR
from repro.shard.runner import run_digest
from repro.sim.radio import _SPEED_OF_LIGHT
from repro.world import WorldBuilder, WorldConfig

#: target mean node degree of the benchmark field — dense enough that
#: fan-out dominates, sparse enough that floods terminate quickly.
_TARGET_DEGREE = 20.0
_COMM_RANGE = 40.0

def _fanout_scalar(
    self, sender, packet, attempt, neighbors, start, end, resolved=False,
):
    """Frozen per-neighbor fan-out loop: the ``object-scalar`` baseline.

    A copy of the channel's original reference loop, bound onto one
    benchmark channel in place of its per-event fan-out.  It is kept
    unchanged so the speedup gates measure against a fixed baseline;
    the shared digest proves it still simulates the same thing.
    """
    rng = None
    found_dst = packet.dst is None
    burst_lost = None
    if not resolved and self.config.burst is not None:
        intended_ids = [
            int(nb) for nb in neighbors if packet.dst is None or packet.dst == nb
        ]
        burst_lost = iter(self._burst_losses(sender, intended_ids))
    elif not resolved and self.config.loss_rate > 0.0:
        rng = self.sim.node_rng(sender)
    for nb in neighbors:
        intended = packet.dst is None or packet.dst == nb
        if intended:
            found_dst = True
        prop = self.network.distance(sender, nb) / _SPEED_OF_LIGHT
        arrive = end + prop
        if burst_lost is not None:
            lost = intended and next(burst_lost)
        else:
            lost = (
                intended
                and rng is not None
                and rng.random() < self.config.loss_rate
            )
        if lost:
            self.metrics.on_drop("loss")
            if self._medium_observed:
                self.medium.register_reception(
                    nb, start + prop, arrive, packet, sender, False, self.config.collisions
                )
            if packet.dst is not None:
                self.sim.schedule(
                    arrive - self.sim.now, self._maybe_retry, sender, packet, attempt
                )
            continue
        rec = self.medium.register_reception(
            nb, start + prop, arrive, packet, sender, intended, self.config.collisions
        )
        if intended:
            self.sim.schedule(arrive - self.sim.now, self._deliver, nb, rec, sender, attempt)

    if not found_dst:
        self.metrics.on_terminal_drop("no_link", packet, node=sender, now=self.sim.now)


#: label -> (execution configuration, frozen scalar fan-out installed?)
LEGS = {
    "object-scalar": (WorldConfig(soa=False), True),
    "object-vec": (WorldConfig(soa=False), False),
    "soa": (WorldConfig(), False),
}


def _leg_digest(world) -> str:
    """:func:`run_digest` of one leg, comparable across node-state layouts.

    Only the struct-of-arrays store keeps per-node tx/rx counters, so
    each node's spent tx/rx energy — read through the node API both
    layouts share, as exact float64 bit patterns — stands in for them.
    """
    nodes = world.network.nodes
    tx = np.array([n.energy.spent_tx for n in nodes], dtype=np.float64)
    rx = np.array([n.energy.spent_rx for n in nodes], dtype=np.float64)
    return run_digest(world.metrics, (tx.view(np.int64).tolist(), rx.view(np.int64).tolist()))


def _field_size(n_nodes: int) -> float:
    """Field edge giving roughly ``_TARGET_DEGREE`` neighbors per node."""
    return math.sqrt(n_nodes * math.pi * _COMM_RANGE**2 / _TARGET_DEGREE)


def run_flood(
    n_nodes: int, floods: int, config: WorldConfig, seed: int = 0, scalar: bool = False,
) -> dict:
    """Flood the field ``floods`` times and time the simulation run.

    ``scalar`` installs the frozen :func:`_fanout_scalar` loop on this
    world's channel (per-object worlds fan out per event, so every
    frame goes through it).
    """
    field = _field_size(n_nodes)
    world = (
        WorldBuilder()
        .seed(seed)
        .uniform_sensors(n_nodes, field_size=field, topology_seed=seed)
        .gateways([[field / 2.0, field / 2.0]])
        .comm_range(_COMM_RANGE)
        .ideal_radio()
        .configure(config)
        .build()
    )
    if scalar:
        world.channel._fanout_per_event = types.MethodType(_fanout_scalar, world.channel)
    # Table answering off: every discovery floods the whole field instead
    # of being answered one hop out, which is the fan-out stress we want.
    spr = world.attach(SPR, ProtocolConfig(table_answering=False))
    world.network.neighbors(0)  # pre-warm the neighbor cache out of the timing

    for k in range(floods):
        world.sim.schedule(0.5 * k, spr.send_data, k % n_nodes)
    t0 = time.perf_counter()
    world.sim.run()
    wall = time.perf_counter() - t0

    m = world.metrics
    receptions = int(sum(m.received.values()))
    return {
        "nodes": n_nodes,
        "floods": floods,
        "wall_clock_s": wall,
        "events_processed": world.events_processed,
        "events_per_sec": world.events_processed / wall,
        "frames_sent": int(sum(m.sent.values())),
        "receptions": receptions,
        "fanout_per_sec": receptions / wall,
        "run_digest": _leg_digest(world),
    }


def run_benchmark(n_nodes: int, floods: int, seed: int = 0, repeat: int = 1) -> dict:
    """Time every leg (best of ``repeat``) and gate on the shared digest."""
    results: dict[str, dict] = {}
    for label, (config, scalar) in LEGS.items():
        runs = [
            run_flood(n_nodes, floods, config, seed=seed, scalar=scalar)
            for _ in range(repeat)
        ]
        results[label] = min(runs, key=lambda r: r["wall_clock_s"])

    # Bit-identity digest: every execution path simulated the same thing.
    reference = results["object-scalar"]
    for label, result in results.items():
        if result["run_digest"] != reference["run_digest"]:
            raise AssertionError(
                f"execution paths diverged: run_digest object-scalar="
                f"{reference['run_digest']} {label}={result['run_digest']}"
            )

    scalar_wall = reference["wall_clock_s"]
    return {
        "config": {"nodes": n_nodes, "floods": floods, "seed": seed,
                   "repeat": repeat, "comm_range": _COMM_RANGE,
                   "field_size": _field_size(n_nodes)},
        "legs": results,
        "digest": {key: reference[key] for key in
                   ("run_digest", "events_processed", "frames_sent", "receptions")},
        "speedup": scalar_wall / results["object-vec"]["wall_clock_s"],
        "soa_speedup": scalar_wall / results["soa"]["wall_clock_s"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=500)
    parser.add_argument("--floods", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="run each leg this many times, keep the fastest")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the JSON report here ('-' for stdout)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero when the object-vec vs "
                             "object-scalar speedup falls below this")
    parser.add_argument("--min-soa-speedup", type=float, default=None,
                        help="exit non-zero when the soa vs object-scalar "
                             "speedup falls below this")
    args = parser.parse_args(argv)

    report = run_benchmark(args.nodes, args.floods, seed=args.seed,
                           repeat=args.repeat)
    blob = json.dumps(report, indent=2)
    if args.json == "-":
        print(blob)
    else:
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(blob + "\n")
        print(f"nodes={args.nodes} floods={args.floods} "
              f"events={report['digest']['events_processed']}")
        for label, r in report["legs"].items():
            print(f"{label + ':':14s} {r['wall_clock_s']:.3f}s  "
                  f"{r['events_per_sec']:,.0f} ev/s  "
                  f"{r['fanout_per_sec']:,.0f} rx/s")
        print(f"speedup:       vec {report['speedup']:.2f}x   "
              f"soa {report['soa_speedup']:.2f}x")

    status = 0
    if args.min_speedup is not None and report["speedup"] < args.min_speedup:
        print(f"FAIL: object-vec speedup {report['speedup']:.2f}x < required "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        status = 1
    if (args.min_soa_speedup is not None
            and report["soa_speedup"] < args.min_soa_speedup):
        print(f"FAIL: soa speedup {report['soa_speedup']:.2f}x < required "
              f"{args.min_soa_speedup:.2f}x", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
