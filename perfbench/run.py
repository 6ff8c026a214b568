#!/usr/bin/env python3
"""The repository benchmark: workloads, end-to-end metrics, traced layers.

Run from the root of a checkout::

    python3 perfbench/run.py --workload shard_flood --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 3

``--workload`` takes one name, a comma-separated subset or ``all``.  The
last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separately traced run with ``--trace 1``.  Above it
the run prints every metric by name and unit with its spread, the host
fingerprint and a comparison with earlier reports from the same host.
Reports, history and kept trace spans go to ``.perfbench/`` in the
checkout.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: workload descriptions and end-to-end metrics, as BENCHMARK.json defines them
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in _SPEC["workloads"]}
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}

#: set-up probes per untraced run, and operations a run always makes
SETUP_PROBES = 5
MIN_OPS = 3


def _now() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Checker:
    """Compares operation digests with the recorded default-seed digests
    and with the first repeat of the same operation in this run."""

    def __init__(self, recorded: dict, key: str, seed: int) -> None:
        self.recorded = recorded.get(key, {}).get(str(seed), {})
        self.seen: dict[str, str] = {}

    @classmethod
    def for_run(cls, args) -> "Checker":
        """The checker for a run, against ``digests.json``."""
        recorded = json.loads((HERE / "digests.json").read_text())
        return cls(recorded, f"{args.workload}@{'tiny' if args.tiny else 'full'}", args.seed)

    def check(self, op) -> None:
        if not op.ok or op.digest is None:
            return
        want = self.recorded.get(op.name)
        if want is not None and op.digest != want:
            op.ok, op.error = False, f"digest {op.digest[:16]} != recorded {want[:16]}"
            op.extra["mismatch"] = True
            return
        first = self.seen.setdefault(op.name, op.digest)
        if op.digest != first:
            op.ok, op.error = False, f"digest {op.digest[:16]} != earlier repeat {first[:16]}"
            op.extra["mismatch"] = True


# ----------------------------------------------------------------------
# set-up probes
# ----------------------------------------------------------------------
def probe_main(args) -> int:
    """Child process: set up one operation, print the first-event time."""
    import workloads as W

    first = W.FirstEvent(stop=True)
    first.install(engine=True)
    wl = W.make(args.workload, str(ROOT), tiny=args.tiny)
    try:
        wl.run(wl.inputs(args.seed), first)
    except W.FirstEvent.Reached:
        print(json.dumps({"first_event": first.at}))
        return 0
    print("probe: the operation finished without a simulated event", file=sys.stderr)
    return 1


class SetupProbes:
    """Set-up probes spread evenly over a run's measuring window.

    Probe ``k`` is due once ``k/SETUP_PROBES`` of the window has passed;
    operations call :meth:`due` between them, so the probes sample the
    host at different moments of the run rather than back to back.
    """

    def __init__(self, args, start: float) -> None:
        self.cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload",
                    args.workload, "--seed", str(args.seed)]
        if args.tiny:
            self.cmd.append("--tiny")
        self.start, self.window = start, args.seconds
        self.samples: list[float] = []

    def due(self) -> None:
        k = len(self.samples)
        if k < SETUP_PROBES and _now() >= self.start + k * self.window / SETUP_PROBES:
            self.probe()

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_PROBES:
            self.probe()
        return self.samples

    def probe(self) -> None:
        t0 = _now()
        out = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=150, check=False)
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr[-2000:]}")
        self.samples.append(json.loads(out.stdout.strip().splitlines()[-1])["first_event"] - t0)


# ----------------------------------------------------------------------
# operation loops
# ----------------------------------------------------------------------
class Run:
    """Operations of one benchmark run and their accounting."""

    def __init__(self, args, between=lambda: None) -> None:
        import workloads as W

        self.W = W
        self.between = between
        self.wl = W.make(args.workload, str(ROOT), tiny=args.tiny)
        self.inputs = self.wl.inputs(args.seed)
        self.checker = Checker.for_run(args)
        self.ops: list = []
        self.first = W.FirstEvent()
        self.first.install(engine=False)

    def record(self, op) -> None:
        self.checker.check(op)
        self.ops.append(op)

    def unit(self, tracer=None) -> dict:
        """Run one operation; returns its run_s, events and result.

        An operation that raises is a failed operation named with its
        exception; it is never retried.
        """
        self.between()
        t0 = _now()
        with span(tracer, "run"):
            try:
                op = self.wl.run(self.inputs, self.first)
            except Exception as exc:
                message = (str(exc).splitlines() or [""])[0][:160]
                op = self.W.OpResult(name=self.wl.name, ok=False,
                                     error=f"{type(exc).__name__}: {message}")
                op.extra["wall_s"] = _now() - t0
        self.record(op)
        return {"run_s": op.run_s, "wall_s": op.extra["wall_s"],
                "events": op.events, "ops": [op]}


def untraced(args, start: float) -> tuple[dict, list]:
    probes = SetupProbes(args, start)
    run = Run(args, between=probes.due)
    end = start + args.seconds
    units = []
    # Another operation only if one of median length still ends in time.
    while (len(units) < MIN_OPS or _now() + statistics.median(
            u["wall_s"] for u in units) <= end):
        units.append(run.unit())
    # Timings come from the operations that ran to a digest.
    done = [u for u in units if u["ops"][0].digest is not None]
    if not done:
        raise RuntimeError("no operation completed: " + units[0]["ops"][0].error)
    run_s = [u["run_s"] for u in done]
    eps = [u["events"] / u["run_s"] for u in done]
    return {"run_s": run_s, "events_per_s": eps, "setup_s": probes.finish()}, run.ops


def traced(args, start: float) -> tuple[dict, list]:
    """Untraced and traced units alternate; per-layer figures per unit."""
    import layers
    from tracer import Instrumentation, Tracer

    run = Run(args)
    tracer = Tracer()
    inst = Instrumentation(tracer)
    plain, traced_units, channels = [], [], []
    while not traced_units or _now() < start + args.seconds:
        plain.append(run.unit())
        with inst:
            traced_units.append(run.unit(tracer))
            channels.extend(inst.channels)
    serial = None
    if isinstance(run.wl, run.W.ShardFlood):
        op = run.wl.run(run.inputs, run.first, shards=1)
        run.record(op)
        serial = op
    metrics = layers.per_layer(tracer, plain, traced_units, channels, serial)
    OUT.mkdir(parents=True, exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans.write_text(json.dumps(tracer.kept_spans()))
    return metrics, run.ops


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _print_metric(name: str, unit: str, s: dict) -> None:
    if s["n"] == 1:
        print(f"  {name:<24} {s['median']:.6g} {unit}")
        return
    tail = (f" p{s['tail_pct']}={s['tail']:.6g}" if s.get("tail") is not None
            else " (no tail percentile: fewer than 11 samples)")
    print(f"  {name:<24} {s['median']:.6g} {unit:<5} n={s['n']} min={s['min']:.6g} "
          f"q1={s['q1']:.6g} q3={s['q3']:.6g} max={s['max']:.6g}{tail}")


def run_one(args) -> dict:
    from report import fingerprint, history_lines, spread

    t_start = _now()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}{' tiny' if args.tiny else ''}")
    print(f"  why: {WHY[args.workload]}")

    if args.trace:
        from layers import PER_LAYER

        values, ops = traced(args, t_start)
        metrics = {n: {"value": float(values[n]), "unit": PER_LAYER[n]} for n in PER_LAYER}
        samples = {}
    else:
        samples, ops = untraced(args, t_start)
        samples["peak_rss_mb"] = [_peak_rss_mb()]
        metrics = {n: {"value": statistics.median(samples[n]), "unit": u}
                   for n, u in END_TO_END.items()}

    failed = [op for op in ops if not op.ok]
    result = {
        "correct": not any(op.extra.get("mismatch") for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    fp = fingerprint(ROOT)
    print("  host: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
    print(f"  operations: attempted {len(ops)}, failed {len(failed)}, "
          f"correct {result['correct']}")
    for op in failed:
        print(f"    FAILED {op.name}: {op.error}")
    digests = sorted({(op.name, op.digest) for op in ops if op.digest})
    for name, digest in digests:
        print(f"  digest {name}: {digest}")
    spreads = {}
    for name, m in metrics.items():
        s = spread(samples[name]) if name in samples else spread([m["value"]])
        spreads[name] = s
        _print_metric(name, m["unit"], s)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "fingerprint": fp,
        "metrics": metrics, "spread": spreads, "result": {
            k: result[k] for k in ("correct", "attempted", "failed")},
        "failures": [f"{op.name}: {op.error}" for op in failed],
        "digests": dict(digests),
    }
    for line in history_lines(OUT / "history.jsonl", report):
        print(line)
    return result


def _merge(results: dict) -> dict:
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{n}": m for w, r in results.items()
                    for n, m in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload, a comma-separated list or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="how long one run measures (at least three operations)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken workloads for the benchmark's own tests")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as W

    if args.probe:
        return probe_main(args)
    names = list(W.WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in W.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(W.WORKLOADS)}")
    if len(names) == 1:
        print(json.dumps(run_one(args)))
        return 0
    results = {}
    for name in names:
        sub = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(sub + (["--tiny"] if args.tiny else []), cwd=ROOT,
                             capture_output=True, text=True, check=False)
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            print(out.stderr, file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(_merge(results)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
