"""Sharded-executor scaling benchmark: 1/2/4 workers, one digest.

Runs the same flooding workload through :func:`repro.shard.run_sharded`
at increasing worker counts — plus a smaller MLR workload (unicast
routing, discovery floods, a gateway relocation round) over the same
worker counts — and checks two things at once:

* **Correctness** — every leg must produce the same order-canonical
  :func:`~repro.shard.runner.run_digest`; the sharded legs additionally
  pass the merged-ledger conservation audit.  A digest mismatch is a
  hard failure, not a slow run.
* **Scaling** — the headline ``speedup`` is ``wall(1 worker) /
  wall(max workers)``, each the median of ``--repeat`` runs (every leg
  records min/median/max, and every gate reads the median).  Speedup
  only materializes with real cores:
  the record stores ``cpu_count`` so a number taken on a 1-CPU
  container is not mistaken for a regression.  The CI job on a
  multi-core runner gates with ``--min-speedup``.

Refresh the committed record (20k sensors, the E6 configuration, with
the checkpointed leg)::

    PYTHONPATH=src python benchmarks/bench_shard.py --sensors 20000 \
        --checkpoint-every 8 --repeat 3

The record lands at the repo root as ``BENCH_shard.json`` in the
``BENCH_hotpath.json`` schema via :mod:`benchmarks._record`.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from _record import bench_record, wall_clock_spread, write_bench
from repro.experiments.scalability import make_xl_mlr_workload, make_xl_workload
from repro.shard import CheckpointConfig, run_sharded

#: sensors per square meter — one per 30x30 m cell, the paper's density.
_DENSITY = 1 / 900.0
_COMM_RANGE = 55.0


def _repeated(
    workload, workers: int, repeat: int, want: str | None, label: str,
    checkpoint_every: int | None = None,
) -> tuple[object, dict]:
    """Run one leg ``repeat`` times; returns (last result, leg timing).

    Every repeat must reproduce ``want`` (the first repeat's digest when
    ``want`` is None), so a leg is a bit-identity gate as well as a
    timing.  Checkpointing legs get a fresh directory per repeat: a
    repeat must not resume from, or prune, another's snapshots.
    """
    walls = []
    for _ in range(repeat):
        if checkpoint_every is not None:
            with tempfile.TemporaryDirectory(prefix="bench-shard-ckpt-") as d:
                result = run_sharded(
                    workload, shards=workers,
                    checkpoint=CheckpointConfig(dir=d, every=checkpoint_every),
                )
        else:
            result = run_sharded(workload, shards=workers)
        if want is None:
            want = result.digest
        if result.digest != want:
            raise AssertionError(f"{label} digest diverged: {want} -> {result.digest}")
        walls.append(result.wall_clock_s)
    timing = wall_clock_spread(walls)
    leg = {
        "workers": workers,
        **timing,
        "events_processed": result.events_processed,
        "events_per_sec": result.events_processed / timing["wall_clock_s"],
        "windows": result.windows,
        "conserved": result.conservation is None or result.conservation.ok,
    }
    return result, leg


def _timed_legs(
    workload, workers: list[int], legs: dict, prefix: str, repeat: int
) -> tuple[str, object]:
    """Run ``workload`` at every worker count; returns (digest, metrics).

    Appends one ``{prefix}workers-N`` entry per leg (median wall time of
    ``repeat`` runs, with min and max) and raises on any digest
    divergence from the first run.
    """
    want = None
    baseline_metrics = None
    for w in workers:
        result, legs[f"{prefix}workers-{w}"] = _repeated(
            workload, w, repeat, want, f"{prefix or 'flooding '}{w}-worker",
        )
        if want is None:
            want, baseline_metrics = result.digest, result.metrics
    return want, baseline_metrics


def run_benchmark(
    sensors: int,
    floods: int,
    ttl: int,
    workers: list[int],
    seed: int = 0,
    mlr_sensors: int = 2000,
    mlr_datums: int = 16,
    mlr_ttl: int = 12,
    checkpoint_every: int | None = None,
    repeat: int = 1,
) -> dict:
    workload = make_xl_workload(
        sensors, floods, ttl, density=_DENSITY, comm_range=_COMM_RANGE,
        seed=seed, audit=True,
    )
    legs: dict[str, dict] = {}
    want, m_first = _timed_legs(workload, workers, legs, prefix="", repeat=repeat)
    mlr_workload = make_xl_mlr_workload(
        mlr_sensors, mlr_datums, mlr_ttl, density=_DENSITY,
        comm_range=_COMM_RANGE, seed=seed, audit=True,
    )
    mlr_want, _ = _timed_legs(mlr_workload, workers, legs, prefix="mlr-", repeat=repeat)
    base = legs[f"workers-{workers[0]}"]["wall_clock_s"]
    peak = legs[f"workers-{max(workers)}"]["wall_clock_s"]

    checkpoint_overhead = None
    if checkpoint_every is not None:
        # One extra leg at the peak worker count with barrier
        # checkpointing on: same digest (checkpoints are side-effect
        # free), and the wall-clock ratio against the uncheckpointed
        # peak leg is the price of durability.
        w = max(workers)
        result, leg = _repeated(
            workload, w, repeat, want, "checkpointed",
            checkpoint_every=checkpoint_every,
        )
        checkpoint_overhead = leg["wall_clock_s"] / legs[f"workers-{w}"]["wall_clock_s"]
        legs[f"ckpt-workers-{w}"] = {
            **leg,
            "checkpoints": result.checkpoints,
            "checkpoint_every": checkpoint_every,
            "overhead_vs_plain": checkpoint_overhead,
        }

    extra = {"cpu_count": os.cpu_count()}
    if checkpoint_overhead is not None:
        extra["checkpoint_overhead"] = checkpoint_overhead
    return bench_record(
        config={"sensors": sensors, "floods": floods, "ttl": ttl, "seed": seed,
                "comm_range": _COMM_RANGE, "density": _DENSITY,
                "workers": list(workers),
                "mlr_sensors": mlr_sensors, "mlr_datums": mlr_datums,
                "mlr_ttl": mlr_ttl,
                "checkpoint_every": checkpoint_every, "repeat": repeat},
        legs=legs,
        digest={"run_digest": want,
                "mlr_run_digest": mlr_want,
                "data_generated": m_first.data_generated,
                "delivered": len({(r.origin, r.uid) for r in m_first.deliveries}),
                "bytes_sent": m_first.bytes_sent},
        speedup=base / peak,
        **extra,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sensors", type=int, default=20000)
    parser.add_argument("--floods", type=int, default=8)
    parser.add_argument("--ttl", type=int, default=6,
                        help="flood TTL (bounds per-datum reach)")
    parser.add_argument("--workers", default="1,2,4",
                        help="comma-separated worker counts (first is baseline)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mlr-sensors", type=int, default=2000,
                        help="network size for the MLR legs")
    parser.add_argument("--mlr-datums", type=int, default=16,
                        help="unicast datums for the MLR legs")
    parser.add_argument("--mlr-ttl", type=int, default=12,
                        help="discovery-flood TTL for the MLR legs")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="record destination ('-' for stdout; default "
                             "BENCH_shard.json at the repo root)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero when speedup falls below this")
    parser.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="N",
                        help="add a checkpointing leg (peak worker count, "
                             "snapshot every N windows) and record its "
                             "overhead vs the plain leg")
    parser.add_argument("--max-checkpoint-overhead", type=float, default=None,
                        help="exit non-zero when the checkpointing leg's "
                             "wall-clock ratio exceeds this (e.g. 1.05)")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run every leg N times; legs record min/median/"
                             "max wall time and the gates read the median")
    args = parser.parse_args(argv)

    if args.max_checkpoint_overhead is not None and args.checkpoint_every is None:
        parser.error("--max-checkpoint-overhead requires --checkpoint-every")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    workers = [int(w) for w in args.workers.split(",")]
    report = run_benchmark(
        args.sensors, args.floods, args.ttl, workers, seed=args.seed,
        mlr_sensors=args.mlr_sensors, mlr_datums=args.mlr_datums,
        mlr_ttl=args.mlr_ttl, checkpoint_every=args.checkpoint_every,
        repeat=args.repeat,
    )
    written = write_bench("shard", report, path=args.json)
    if written != "-":
        print(f"sensors={args.sensors} floods={args.floods} ttl={args.ttl} "
              f"cpus={report['cpu_count']}")
        for label, leg in report["legs"].items():
            print(f"{label:<14} {leg['wall_clock_s']:.3f}s "
                  f"[{leg['wall_clock_min_s']:.3f}-{leg['wall_clock_max_s']:.3f}]  "
                  f"{leg['events_per_sec']:,.0f} ev/s  "
                  f"windows={leg['windows']}")
        print(f"digest:      {report['digest']['run_digest'][:16]}… (all legs equal)")
        print(f"mlr digest:  {report['digest']['mlr_run_digest'][:16]}… (all legs equal)")
        print(f"speedup:     {report['speedup']:.2f}x")
        if "checkpoint_overhead" in report:
            print(f"ckpt ovh:    {report['checkpoint_overhead']:.3f}x "
                  f"(every {args.checkpoint_every} windows)")
        print(f"record:      {written}")

    # Both gates are evaluated, so a failing speedup gate cannot hide a
    # checkpoint-overhead regression.
    failed = 0
    if args.min_speedup is not None and report["speedup"] < args.min_speedup:
        print(f"FAIL: speedup {report['speedup']:.2f}x < required "
              f"{args.min_speedup:.2f}x", file=sys.stderr)
        failed = 1
    if (
        args.max_checkpoint_overhead is not None
        and report["checkpoint_overhead"] > args.max_checkpoint_overhead
    ):
        print(f"FAIL: checkpoint overhead {report['checkpoint_overhead']:.3f}x > "
              f"allowed {args.max_checkpoint_overhead:.3f}x", file=sys.stderr)
        failed = 1
    return failed


if __name__ == "__main__":
    raise SystemExit(main())
