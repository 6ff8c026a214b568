"""Per-layer metrics of a traced run.

Every figure is per traced unit (one operation), averaged over the
traced units of the run.  Times are in-run self times unless the name says
otherwise, so the ``*_s`` self times of all layers plus ``other_s`` add up
to ``trace.run_s``.

For ``shard_flood`` the traced process is the coordinator: worker-side
time is invisible from outside, and the radio and protocol counters come
from the merged collector the run returns.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Iterable

#: per-layer metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = dict([
    ("world.build_s", "s"),
    ("world.builds", "count"),
    ("engine.events", "count"),
    ("engine.run_s", "s"),
    ("engine.dispatch_self_s", "s"),
    ("engine.us_per_event", "us"),
    ("radio.sends", "count"),
    ("radio.frames", "count"),
    ("radio.receptions", "count"),
    ("radio.self_s", "s"),
    ("radio.us_per_rx", "us"),
    ("radio.drops.loss", "count"),
    ("radio.drops.collision", "count"),
    ("radio.drops.no_link", "count"),
    ("radio.drops.dead_node", "count"),
    ("radio.drops.other", "count"),
    ("proto.handler_calls", "count"),
    ("proto.handler_self_s", "s"),
    ("proto.rreq_rx", "count"),
    ("proto.rreq_fwd_ratio", "ratio"),
    ("packet.forks", "count"),
    ("packet.fork_s", "s"),
    ("topo.calls", "count"),
    ("topo.moves", "count"),
    ("topo.self_s", "s"),
    ("energy.charge_calls", "count"),
    ("energy.deaths", "count"),
    ("energy.self_s", "s"),
    ("metrics.hook_calls", "count"),
    ("metrics.hook_s", "s"),
    ("crypto.calls", "count"),
    ("crypto.self_s", "s"),
    ("lp.solve_s", "s"),
    ("runner.serialize_s", "s"),
    ("other_s", "s"),
    ("shard.self_s", "s"),
    ("shard.ready_s", "s"),
    ("shard.windows", "count"),
    ("shard.window_wait_s", "s"),
    ("shard.ms_per_window", "ms"),
    ("shard.relay_msgs", "count"),
    ("shard.relay_bytes", "B"),
    ("shard.checkpoints", "count"),
    ("shard.checkpoint_s", "s"),
    ("shard.merge_s", "s"),
    ("shard.event_imbalance", "ratio"),
    ("shard.serial_run_s", "s"),
    ("shard.speedup_vs_serial", "ratio"),
    ("trace.run_s", "s"),
    ("trace.untraced_run_s", "s"),
    ("trace.overhead_s", "s"),
])

#: layer -> the per-layer self-time metric that carries it
SELF_METRIC = {
    "world": "world.build_s", "engine": "engine.dispatch_self_s",
    "radio": "radio.self_s", "proto": "proto.handler_self_s",
    "packet": "packet.fork_s", "topo": "topo.self_s", "energy": "energy.self_s",
    "metrics": "metrics.hook_s", "crypto": "crypto.self_s", "lp": "lp.solve_s",
    "runner": "runner.serialize_s",
    "shard": "shard.self_s", "other": "other_s",
}

_RADIO_DROPS = ("loss", "collision", "no_link", "dead_node")


def collector_totals(collectors: Iterable) -> dict[str, float]:
    """Frame, reception and drop counters summed over metrics collectors."""
    from repro.sim.packet import PacketKind

    out: dict[str, float] = defaultdict(float)
    for m in collectors:
        out["frames"] += sum(m.sent.values())
        out["receptions"] += sum(m.received.values())
        out["rreq_sent"] += m.sent.get(PacketKind.RREQ, 0)
        out["rreq_rx"] += m.received.get(PacketKind.RREQ, 0)
        for reason, n in m.drops.items():
            out[f"drop.{reason}"] += n
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, plain: list, traced: list, channels: list, serial) -> dict:
    """Per-layer values from the tracer and the units of a traced run.

    ``plain`` and ``traced`` are the untraced and traced units (dicts from
    :meth:`run.Run.unit`), ``channels`` every channel built while traced,
    ``serial`` the single-process leg of ``shard_flood`` (else ``None``).
    """
    n = len(traced)
    calls = tracer.calls_run
    incl = tracer.incl_run
    selfs = tracer.layer_self_run()
    total = tracer.run_total()
    if abs(sum(selfs.values()) - total) > 1e-6 * max(total, 1.0):
        raise AssertionError(
            f"layer self times {sum(selfs.values())} do not add up to the traced "
            f"run time {total}")

    v = {name: 0.0 for name in PER_LAYER}
    for layer, metric in SELF_METRIC.items():
        v[metric] = selfs[layer] / n
    v["world.builds"] = calls.get("world.build", 0) / n

    shard_result = None
    if serial is not None:
        results = [op.extra["result"] for u in traced for op in u["ops"]
                   if "result" in op.extra]
        counters = collector_totals(r.metrics for r in results)
        shard_result = results[-1]
    else:
        counters = collector_totals(ch.metrics for ch in channels)
        sims = {id(ch.sim): ch.sim for ch in channels}
        v["engine.events"] = sum(s.events_processed for s in sims.values()) / n
    v["engine.run_s"] = incl.get("engine.run", 0.0) / n
    v["engine.us_per_event"] = 1e6 * _ratio(v["engine.dispatch_self_s"], v["engine.events"])

    v["radio.sends"] = calls.get("radio.send", 0) / n
    v["radio.frames"] = counters["frames"] / n
    v["radio.receptions"] = counters["receptions"] / n
    v["radio.us_per_rx"] = 1e6 * _ratio(v["radio.self_s"], v["radio.receptions"])
    for reason in _RADIO_DROPS:
        v[f"radio.drops.{reason}"] = counters.get(f"drop.{reason}", 0) / n
    v["radio.drops.other"] = sum(
        c for k, c in counters.items()
        if k.startswith("drop.") and k[5:] not in _RADIO_DROPS) / n

    v["proto.handler_calls"] = calls.get("proto.handler", 0) / n
    v["proto.rreq_rx"] = counters["rreq_rx"] / n
    v["proto.rreq_fwd_ratio"] = _ratio(counters["rreq_sent"], counters["rreq_rx"])
    v["packet.forks"] = calls.get("packet.fork", 0) / n
    v["topo.calls"] = (calls.get("topo.query", 0) + calls.get("topo.move", 0)) / n
    v["topo.moves"] = calls.get("topo.move", 0) / n
    v["energy.charge_calls"] = calls.get("energy.charge", 0) / n
    v["energy.deaths"] = calls.get("metrics.death", 0) / n
    v["metrics.hook_calls"] = (calls.get("metrics.hook", 0)
                               + calls.get("metrics.death", 0)) / n
    v["crypto.calls"] = calls.get("crypto.op", 0) / n

    if serial is not None:
        ops = [op for u in traced for op in u["ops"] if "result" in op.extra]
        plain_ops = [op for u in plain for op in u["ops"] if "result" in op.extra]
        v["shard.ready_s"] = statistics.mean(op.extra["ready_s"] for op in ops)
        v["shard.windows"] = shard_result.windows
        v["shard.window_wait_s"] = incl.get("shard.recv.window", 0.0) / n
        v["shard.ms_per_window"] = 1e3 * _ratio(
            statistics.median(op.run_s for op in plain_ops), shard_result.windows)
        v["shard.relay_msgs"] = tracer.counts.get("shard.relay_msgs", 0) / n
        v["shard.relay_bytes"] = tracer.counts.get("shard.relay_bytes", 0) / n
        v["shard.checkpoints"] = shard_result.checkpoints
        v["shard.checkpoint_s"] = sum(
            incl.get(k, 0.0) for k in
            ("shard.commit", "shard.send.checkpoint", "shard.recv.saved")) / n
        v["shard.merge_s"] = incl.get("shard.merge", 0.0) / n
        events = [p["events_processed"] for p in shard_result.parts]
        v["shard.event_imbalance"] = _ratio(max(events), statistics.mean(events))
        v["shard.serial_run_s"] = serial.extra["wall_s"]
        v["shard.speedup_vs_serial"] = _ratio(
            serial.extra["wall_s"],
            statistics.median(op.extra["wall_s"] for op in plain_ops))

    v["trace.run_s"] = total / n
    v["trace.untraced_run_s"] = statistics.mean(u["wall_s"] for u in plain)
    v["trace.overhead_s"] = v["trace.run_s"] - v["trace.untraced_run_s"]
    return v

