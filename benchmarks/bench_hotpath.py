"""Hot-path microbenchmark: frozen scalar loop vs per-event vs batched delivery.

Broadcast floods dominate E4/E8/E9 sweeps, and each flood frame fans out
to every neighbor of the sender — reception delivery is where simulation
time goes.  This benchmark floods a dense uniform field through three
legs, all on the struct-of-arrays node state:

* ``scalar`` — the original per-neighbor Python fan-out loop, delivered
  per event.  That loop no longer exists in the simulator; a frozen copy
  (:func:`_fanout_scalar`) lives here and is installed on this
  benchmark's own channel, with batching switched off on that channel,
  so the speedup gates keep measuring against the same baseline;
* ``per-event`` — the NumPy per-event fan-out (batching switched off on
  the benchmark's channel, the delivery mode CSMA radios use);
* ``batched`` — batched same-timestamp delivery draining (the default
  for radios that do not observe the medium).

All three are draw-order stable, so their simulations are bit-identical;
the benchmark asserts one shared :func:`~repro.shard.runner.run_digest`
(metrics plus the store's per-node tx/rx counters) across the legs
before reporting timings, making it a correctness gate as well as a
timer.  The record goes through :func:`_record.write_bench` (atomic
replace, prior records kept in ``history``, host fingerprint)::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --nodes 500 --floods 10

The CI smoke job runs a small config with ``--min-speedup`` (per-event
vs scalar) and ``--min-batched-speedup`` (batched vs scalar) so a
regression that loses either path's advantage fails loudly.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
import types

from _record import bench_record, write_bench

from repro.core.base import ProtocolConfig
from repro.core.spr import SPR
from repro.shard.runner import run_digest
from repro.sim.radio import _SPEED_OF_LIGHT
from repro.world import WorldBuilder

#: target mean node degree of the benchmark field — dense enough that
#: fan-out dominates, sparse enough that floods terminate quickly.
_TARGET_DEGREE = 20.0
_COMM_RANGE = 40.0


def _fanout_scalar(self, sender, packet, attempt, neighbors, start, end, lost):
    """Frozen per-neighbor fan-out loop: the ``scalar`` baseline.

    A copy of the channel's original reference loop, bound onto one
    benchmark channel in place of its per-event fan-out.  It is kept
    unchanged so the speedup gates measure against a fixed baseline —
    except that it reads the frame's loss mask ``lost`` (drawn once by
    the channel before the fan-out) instead of drawing; the shared
    digest proves it still simulates the same thing.
    """
    found_dst = packet.dst is None
    for idx, nb in enumerate(neighbors):
        intended = packet.dst is None or packet.dst == nb
        if intended:
            found_dst = True
        prop = self.network.distance(sender, nb) / _SPEED_OF_LIGHT
        arrive = end + prop
        if lost is not None and lost[idx]:
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


#: label -> (batched delivery on?, frozen scalar fan-out installed?)
LEGS = {
    "scalar": (False, True),
    "per-event": (False, False),
    "batched": (True, False),
}


def _field_size(n_nodes: int) -> float:
    """Field edge giving roughly ``_TARGET_DEGREE`` neighbors per node."""
    return math.sqrt(n_nodes * math.pi * _COMM_RANGE**2 / _TARGET_DEGREE)


def run_flood(
    n_nodes: int, floods: int, seed: int = 0, batched: bool = True, scalar: bool = False,
) -> dict:
    """Flood the field ``floods`` times and time the simulation run.

    ``batched=False`` switches this world's channel to per-event
    delivery; ``scalar`` also installs the frozen :func:`_fanout_scalar`
    loop as its per-event fan-out.
    """
    field = _field_size(n_nodes)
    world = (
        WorldBuilder()
        .seed(seed)
        .uniform_sensors(n_nodes, field_size=field, topology_seed=seed)
        .gateways([[field / 2.0, field / 2.0]])
        .comm_range(_COMM_RANGE)
        .ideal_radio()
        .build()
    )
    world.channel._batched = batched
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
    tx, rx = world.network.store.counter_columns()
    return {
        "nodes": n_nodes,
        "floods": floods,
        "wall_clock_s": wall,
        "events_processed": world.events_processed,
        "events_per_sec": world.events_processed / wall,
        "frames_sent": int(sum(m.sent.values())),
        "receptions": receptions,
        "fanout_per_sec": receptions / wall,
        "run_digest": run_digest(m, (tx, rx)),
    }


def run_benchmark(n_nodes: int, floods: int, seed: int = 0, repeat: int = 1) -> dict:
    """Time every leg (best of ``repeat``) and gate on the shared digest."""
    results: dict[str, dict] = {}
    for label, (batched, scalar) in LEGS.items():
        runs = [
            run_flood(n_nodes, floods, seed=seed, batched=batched, scalar=scalar)
            for _ in range(repeat)
        ]
        results[label] = min(runs, key=lambda r: r["wall_clock_s"])

    # Bit-identity digest: every delivery path simulated the same thing.
    reference = results["scalar"]
    for label, result in results.items():
        if result["run_digest"] != reference["run_digest"]:
            raise AssertionError(
                f"delivery paths diverged: run_digest scalar="
                f"{reference['run_digest']} {label}={result['run_digest']}"
            )

    scalar_wall = reference["wall_clock_s"]
    return bench_record(
        config={"nodes": n_nodes, "floods": floods, "seed": seed,
                "repeat": repeat, "comm_range": _COMM_RANGE,
                "field_size": _field_size(n_nodes)},
        legs=results,
        digest={key: reference[key] for key in
                ("run_digest", "events_processed", "frames_sent", "receptions")},
        speedup=scalar_wall / results["per-event"]["wall_clock_s"],
        batched_speedup=scalar_wall / results["batched"]["wall_clock_s"],
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=500)
    parser.add_argument("--floods", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="run each leg this many times, keep the fastest")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="record destination ('-' for stdout; default "
                             "BENCH_hotpath.json at the repo root)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero when the per-event vs scalar "
                             "speedup falls below this")
    parser.add_argument("--min-batched-speedup", type=float, default=None,
                        help="exit non-zero when the batched vs scalar "
                             "speedup falls below this")
    args = parser.parse_args(argv)

    report = run_benchmark(args.nodes, args.floods, seed=args.seed,
                           repeat=args.repeat)
    written = write_bench("hotpath", report, path=args.json)
    if written != "-":
        print(f"nodes={args.nodes} floods={args.floods} "
              f"events={report['digest']['events_processed']}")
        for label, r in report["legs"].items():
            print(f"{label + ':':14s} {r['wall_clock_s']:.3f}s  "
                  f"{r['events_per_sec']:,.0f} ev/s  "
                  f"{r['fanout_per_sec']:,.0f} rx/s")
        print(f"speedup:       per-event {report['speedup']:.2f}x   "
              f"batched {report['batched_speedup']:.2f}x")
        print(f"record:        {written}")

    status = 0
    if args.min_speedup is not None and report["speedup"] < args.min_speedup:
        print(f"FAIL: per-event speedup {report['speedup']:.2f}x < required "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        status = 1
    if (args.min_batched_speedup is not None
            and report["batched_speedup"] < args.min_batched_speedup):
        print(f"FAIL: batched speedup {report['batched_speedup']:.2f}x < required "
              f"{args.min_batched_speedup:.2f}x", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
