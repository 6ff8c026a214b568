"""Span tracing from outside the program, with self-time arithmetic.

The traced run wraps the public entry points of each ``repro`` layer (and
the callbacks the event engine dispatches) with span recorders.  Nothing
inside ``src/`` is edited: :class:`Instrumentation` patches class and
module attributes for the duration of a ``with`` block and restores them
afterwards.

A span's *self time* is its duration minus the part of it covered by its
child spans.  Every span belongs to exactly one layer (the text before the
first ``.`` of its name), and an operation's root span belongs to the
``other`` layer, so the self times of all layers inside a root add up to
the root's duration exactly.

Per-call spans (handlers, sends, packet forks...) run into the millions per
operation, so they are folded into per-name totals as they close.  Spans of
the coarse names in :data:`KEPT` are also held in memory with their start,
end, parent and run id, and written out once when the run ends.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

#: span-name prefixes whose individual spans are kept in memory
KEPT = ("run", "engine.run", "world.", "runner.", "lp.", "shard.")

#: every layer a span name may start with
LAYERS = (
    "world", "engine", "radio", "proto", "packet", "topo", "energy",
    "metrics", "crypto", "lp", "runner", "shard", "other",
)


def layer_of(name: str) -> str:
    """The layer a span name belongs to: root spans and unknown
    callbacks are ``other``."""
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "other"


class Tracer:
    """Records nested spans and folds them into per-name totals.

    ``begin``/``end`` must nest (the wrappers guarantee it with
    ``try``/``finally``).  Totals are kept over spans inside a ``run``
    root only (``self_run``/``incl_run``/``calls_run``), which is what the
    per-operation accounting uses.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.on = True
        self.run_id = 0
        #: open spans: [name, start, child_seconds, kept_index, in_run]
        self._stack: list = []
        self.self_run: dict[str, float] = defaultdict(float)
        self.incl_run: dict[str, float] = defaultdict(float)
        self.calls_run: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        #: kept spans: (name, start, end, parent_index, run_id)
        self.spans: list[tuple] = []

    # -- span protocol -------------------------------------------------
    def begin(self, name: str) -> None:
        stack = self._stack
        if name == "run":
            self.run_id += 1
            in_run = True
        else:
            in_run = bool(stack) and stack[-1][4]
        kept = -1
        if name.startswith(KEPT):
            parent = stack[-1][3] if stack else -1
            kept = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.run_id if in_run else 0])
        stack.append([name, self.clock(), 0.0, kept, in_run])

    def end(self) -> None:
        name, start, child, kept, in_run = self._stack.pop()
        stop = self.clock()
        dur = stop - start
        if self._stack:
            self._stack[-1][2] += dur
        own = dur - child
        if in_run:
            self.self_run[name] += own
            self.incl_run[name] += dur
            self.calls_run[name] += 1
        if kept >= 0:
            span = self.spans[kept]
            span[1] = start
            span[2] = stop

    def count(self, key: str, amount: float = 1) -> None:
        if self._stack and self._stack[-1][4]:
            self.counts[key] += amount

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` timed as a span called ``name`` whenever tracing is on."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return traced

    # -- reports -------------------------------------------------------
    def layer_self_run(self) -> dict[str, float]:
        """In-run self seconds per layer (every layer present, zeros too)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, sec in self.self_run.items():
            out[layer_of(name)] += sec
        return out

    def run_total(self) -> float:
        """Summed duration of every ``run`` root span."""
        return self.incl_run.get("run", 0.0)

    def kept_spans(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "run": r}
            for i, (n, s, e, p, r) in enumerate(self.spans)
        ]


@contextmanager
def span(tracer: Optional[Tracer], name: str) -> Iterator[None]:
    """A span called ``name`` on ``tracer``; nothing when it is ``None``."""
    if tracer is None:
        yield
        return
    tracer.begin(name)
    try:
        yield
    finally:
        tracer.end()


# ----------------------------------------------------------------------
# instrumentation of the repro layers
# ----------------------------------------------------------------------
#: module prefix of an event callback -> span name of its dispatch
_EVENT_LAYERS = (
    ("repro.sim.radio", "radio.event"),
    ("repro.sim.mac", "radio.event"),
    ("repro.sim.mobility", "topo.event"),
    ("repro.sim.network", "topo.event"),
    ("repro.core", "proto.event"),
    ("repro.baselines", "proto.event"),
    ("repro.mesh", "proto.event"),
    ("repro.security", "proto.event"),
)


def _callback_module(fn) -> str:
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    return getattr(fn, "__module__", None) or ""


def _event_span(fn) -> str:
    mod = _callback_module(fn)
    for prefix, name in _EVENT_LAYERS:
        if mod.startswith(prefix):
            return name
    return "other.event"


class Instrumentation:
    """Installs span wrappers on the ``repro`` layers; a context manager.

    Module-level functions (crypto, serialization, shard merges) are
    replaced in every loaded ``repro`` module that imported them by name,
    so call sites that bound the function at import time are traced too.
    Forked children (shard workers) inherit the patches with tracing
    switched off: worker-side time is invisible from outside.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple] = []
        self._pid = os.getpid()
        self.channels: list = []
        os.register_at_fork(after_in_child=self._child_off)

    # -- patch helpers -------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _method(self, cls, attr: str, name: str) -> None:
        self._set(cls, attr, self.tracer.wrap(cls.__dict__[attr], name))

    def _function(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        traced = self.tracer.wrap(original, name)
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("repro") and mod is not None:
                if mod.__dict__.get(attr) is original:
                    self._set(mod, attr, traced)

    # -- install / uninstall -------------------------------------------
    def __enter__(self) -> "Instrumentation":
        import repro.core.lifetime as lifetime
        import repro.obs.merge as merge
        import repro.security.crypto as crypto
        import repro.shard.runner as shard_runner
        import repro.sim.serialize as serialize
        from repro.shard.checkpoint import CheckpointStore
        from repro.shard.supervise import WorkerGang
        from repro.sim.energy import EnergyAccount
        from repro.sim.engine import Simulator
        from repro.sim.network import Network
        from repro.sim.node import Node
        from repro.sim.packet import Packet
        from repro.sim.radio import Channel
        from repro.sim.state import NodeStateStore, NodeView
        from repro.sim.trace import MetricsCollector
        from repro.world import World, WorldBuilder

        self._method(WorldBuilder, "build", "world.build")
        self._method(World, "attach", "world.attach")
        self._method(Simulator, "run", "engine.run")
        self._method(Channel, "send", "radio.send")
        self._method(Packet, "fork", "packet.fork")
        self._method(Packet, "with_hop", "packet.fork")
        for attr in ("neighbors", "alive_neighbors", "hops_to", "graph",
                     "nodes_in_region"):
            self._method(Network, attr, "topo.query")
        self._method(Network, "move_node", "topo.move")
        for attr in ("charge_tx", "charge_rx", "charge_idle", "charge"):
            self._method(NodeStateStore, attr, "energy.charge")
        for attr in ("charge_tx", "charge_rx", "charge_idle"):
            self._method(EnergyAccount, attr, "energy.charge")
        for attr in [a for a in MetricsCollector.__dict__ if a.startswith("on_")]:
            name = "metrics.death" if attr == "on_node_death" else "metrics.hook"
            self._method(MetricsCollector, attr, name)
        for attr in ("derive_key", "encrypt", "decrypt", "compute_mac", "verify_mac"):
            self._function(crypto, attr, "crypto.op")
        for attr in ("solve_min_energy", "solve_max_lifetime"):
            self._method(lifetime.LifetimeLP, attr, "lp.solve")
        self._function(serialize, "dumps", "runner.serialize")
        self._function(merge, "merge_ledgers", "shard.merge")
        self._function(merge, "merge_collectors", "shard.merge")
        self._method(CheckpointStore, "commit", "shard.commit")
        self._function(shard_runner, "run_sharded", "shard.run")
        self._method(Node, "receive", "proto.handler")
        self._gang(WorkerGang)
        self._schedulers(Simulator)
        self._handlers(NodeView)
        self._channels(Channel)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _child_off(self) -> None:
        if os.getpid() != self._pid:
            self.tracer.on = False

    # -- special boundaries --------------------------------------------
    def _schedulers(self, Simulator) -> None:
        """Each scheduled callback runs as a span of the layer that owns it."""
        t = self.tracer
        names: dict = {}

        def traced_callback(fn):
            key = _callback_module(fn)
            name = names.get(key)
            if name is None:
                name = names[key] = _event_span(fn)
            return t.wrap(fn, name)

        for attr in ("schedule", "schedule_at"):
            original = Simulator.__dict__[attr]

            def scheduler(self_, when, fn, *args, _orig=original):
                if t.on:
                    fn = traced_callback(fn)
                return _orig(self_, when, fn, *args)

            self._set(Simulator, attr, functools.wraps(original)(scheduler))
        original_push = Simulator.__dict__["push_event_at"]

        def push(self_, when, seq, fn, *args):
            if t.on:
                fn = traced_callback(fn)
            return original_push(self_, when, seq, fn, *args)

        self._set(Simulator, "push_event_at", functools.wraps(original_push)(push))

    def _handlers(self, NodeView) -> None:
        """Protocol handlers are wrapped as they are registered on a node."""
        t = self.tracer
        prop = NodeView.__dict__["handler"]

        def set_handler(view, fn):
            if fn is not None and t.on:
                fn = t.wrap(fn, "proto.handler")
            prop.fset(view, fn)

        self._set(NodeView, "handler", property(prop.fget, set_handler))

    def _channels(self, Channel) -> None:
        """Remember every channel built, to read its collector afterwards."""
        self.channels: list = []
        original = Channel.__dict__["__init__"]

        def init(ch, *args, **kwargs):
            original(ch, *args, **kwargs)
            if self.tracer.on:
                self.channels.append(ch)

        self._set(Channel, "__init__", functools.wraps(original)(init))

    def _gang(self, WorkerGang) -> None:
        """Coordinator pipe traffic, timed per protocol phase.

        ``advance`` messages carry the cross-shard deliveries and mirror
        updates the coordinator relays; their item count and pickled size
        are measured under an ``other.measure`` span so the measuring cost
        stays out of the shard layer.
        """
        import pickle

        t = self.tracer
        send, recv = WorkerGang.__dict__["send"], WorkerGang.__dict__["recv"]

        def traced_send(gang, shard, msg, phase=""):
            if not t.on:
                return send(gang, shard, msg, phase)
            with span(t, f"shard.send.{phase or 'other'}"):
                send(gang, shard, msg, phase)
            if phase == "advance":
                with span(t, "other.measure"):
                    t.count("shard.relay_msgs", sum(len(part) for part in msg[2:5]))
                    t.count("shard.relay_bytes", len(pickle.dumps(msg, protocol=5)))

        def traced_recv(gang, shard, phase):
            if not t.on:
                return recv(gang, shard, phase)
            with span(t, f"shard.recv.{phase}"):
                return recv(gang, shard, phase)

        self._set(WorkerGang, "send", functools.wraps(send)(traced_send))
        self._set(WorkerGang, "recv", functools.wraps(recv)(traced_recv))

