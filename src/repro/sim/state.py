"""Struct-of-arrays node state: the one home of every node's state.

:class:`NodeStateStore` keeps every *hot* per-node scalar — battery
columns, liveness flags, tx/rx counters, protocol queue depths, the
best-route summary and CSMA backoff state — in contiguous NumPy arrays
(one array per column: the classic struct-of-arrays layout).  A
:class:`~repro.sim.node.Node` is one row of a store and its
:class:`~repro.sim.energy.EnergyAccount` is that row's battery columns:
protocols, fault injection and analysis code talk to nodes, while the
radio hot path talks to the columns directly
(:meth:`NodeStateStore.charge_rx`, the ``*_list`` mirrors,
``handlers``), which is what makes batched same-timestamp delivery
draining (see :class:`repro.sim.radio.Channel`) cheap per reception.

Arithmetic contract
-------------------
Every battery charge is one IEEE-754 double subtraction from
``remaining`` and one addition to the matching ``spent_*`` cell, with
death at the drain that takes ``remaining`` to zero or below on a
finite battery.  The batched pump and the per-event path apply the same
operations in the same order, so both delivery modes leave identical
column bytes.  The recorded golden digests (``tests/golden/``) pin the
run digest, per-node RNG states, energy column bytes and ledger totals
of a matrix of small worlds; the hot-path benchmark gates its legs on
one shared ``run_digest``.

View invalidation
-----------------
Rows never cache values — every property reads the column at access
time — so there is nothing to invalidate when the store mutates.  The
one derived column, ``alive``, is *maintained*: every mutation that can
flip liveness (battery death, ``failed``/``sleeping`` writes, a shard's
halo mirror) funnels through :meth:`NodeStateStore.refresh_alive`, which
edge-detects against the stored value and fires the per-node listener
exactly once per actual flip.  Arrays returned by :meth:`alive_view` /
:meth:`route_columns` are live read-only windows onto the columns: they
reflect later mutations and must never be written through.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.exceptions import ConfigurationError
from repro.sim.energy import EnergyAccount
from repro.sim.node import Node, NodeKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.packet import Packet

__all__ = ["NodeStateStore", "NodeView"]

#: Sentinel for "no route installed" in the ``next_hop`` column.
NO_ROUTE = -1


def _readonly(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


class NodeStateStore:
    """Columnar per-node state for one network.

    Parameters
    ----------
    kinds:
        Node role per row (fixed at construction, like positions).
    capacities:
        Initial battery capacity per row in joules (``math.inf`` for
        mains-powered kinds).

    Columns (all length ``n``)
    --------------------------
    ``capacity, remaining, spent_tx, spent_rx, spent_idle`` : float64
        The :class:`~repro.sim.energy.EnergyAccount` fields.
    ``died_at`` : float64
        Battery-death time; ``nan`` while the battery lives (read as
        ``None`` through a row).
    ``energy_alive, failed, sleeping, alive, finite`` : bool
        Liveness flags; ``alive`` is the maintained conjunction
        ``energy_alive & ~failed & ~sleeping``; ``finite`` marks rows
        whose battery can actually be exhausted (the batched-charge
        fast path requires an all-infinite run — see
        :meth:`charge`).
    ``tx_count, rx_count`` : Python int lists
        Frames transmitted / received per node.  These two columns are
        plain Python lists rather than arrays: they are bumped once per
        delivered frame on the pump hot path, integer increments are
        order-free, and a list index costs a fraction of a NumPy scalar
        access — :meth:`counter_columns` materializes int64 arrays on
        demand.
    ``queue_depth`` : int64
        Payloads waiting in the owning protocol's pending queue.
    ``next_hop, route_seq`` : int64
        Best-route summary maintained by the routing layer:
        ``next_hop`` is the current best entry's first hop
        (:data:`NO_ROUTE` when none) and ``route_seq`` counts route
        changes — the columns ROADMAP item 2's shard exchange will
        ship instead of pickled tables.
    ``backoff`` : float64
        Time until which the node's CSMA backoff holds it off the air.
    """

    __slots__ = (
        "n", "kinds", "capacity", "remaining", "spent_tx", "spent_rx",
        "spent_idle", "died_at", "energy_alive", "failed", "sleeping",
        "alive", "finite", "finite_count", "tx_count", "rx_count",
        "queue_depth", "next_hop", "route_seq", "backoff", "handlers",
        "alive_list", "finite_list", "fast_list", "_listeners",
        "_energy_views",
    )

    def __init__(self, kinds: Sequence[NodeKind], capacities: Sequence[float]) -> None:
        n = len(kinds)
        if len(capacities) != n:
            raise ConfigurationError("kinds and capacities must have equal length")
        cap = np.asarray(capacities, dtype=np.float64)
        if np.any(cap < 0):
            raise ConfigurationError("battery capacity must be non-negative")
        self.n = n
        self.kinds: list[NodeKind] = list(kinds)
        self.capacity = cap.copy()
        self.remaining = cap.copy()
        self.spent_tx = np.zeros(n, dtype=np.float64)
        self.spent_rx = np.zeros(n, dtype=np.float64)
        self.spent_idle = np.zeros(n, dtype=np.float64)
        self.died_at = np.full(n, np.nan, dtype=np.float64)
        self.energy_alive = np.ones(n, dtype=bool)
        self.failed = np.zeros(n, dtype=bool)
        self.sleeping = np.zeros(n, dtype=bool)
        self.alive = np.ones(n, dtype=bool)
        self.finite = np.isfinite(cap)
        self.finite_count = int(self.finite.sum())
        self.tx_count: list[int] = [0] * n
        self.rx_count: list[int] = [0] * n
        self.queue_depth = np.zeros(n, dtype=np.int64)
        self.next_hop = np.full(n, NO_ROUTE, dtype=np.int64)
        self.route_seq = np.zeros(n, dtype=np.int64)
        self.backoff = np.zeros(n, dtype=np.float64)
        self.handlers: list[Optional[Callable[["Packet"], None]]] = [None] * n
        # Python-list mirrors of ``alive`` and ``finite``: the delivery
        # pump checks liveness once per drained entry, and a list index
        # is ~3x cheaper than a NumPy scalar lookup at that call
        # frequency.  ``fast_list`` is the maintained conjunction
        # ``alive and not finite`` — the pump's one-lookup test for "no
        # death possible, charge is two adds".
        self.alive_list: list[bool] = [True] * n
        self.finite_list: list[bool] = [bool(f) for f in self.finite]
        self.fast_list: list[bool] = [not f for f in self.finite_list]
        self._listeners: list[Optional[Callable[[int, bool], None]]] = [None] * n
        self._energy_views: list[Optional[EnergyAccount]] = [None] * n

    # ------------------------------------------------------------------
    # public column windows
    # ------------------------------------------------------------------
    def alive_view(self) -> np.ndarray:
        """Live read-only window onto the maintained alive column."""
        return _readonly(self.alive)

    def route_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(next_hop, route_seq)`` windows (see class docs)."""
        return _readonly(self.next_hop), _readonly(self.route_seq)

    def counter_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(tx_count, rx_count)`` materialized as int64 arrays."""
        return (
            np.asarray(self.tx_count, dtype=np.int64),
            np.asarray(self.rx_count, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # snapshot validation (barrier checkpoints, repro.shard.checkpoint)
    # ------------------------------------------------------------------
    def checksum(self) -> str:
        """SHA-256 over every column's exact bytes.

        A checkpoint records this at snapshot time and re-derives it
        after restore: any corruption of the columnar state across the
        pickle round-trip (or a truncated checkpoint file that still
        unpickled) fails loudly instead of silently diverging the run.
        Float columns hash bit-for-bit — the same all-or-nothing
        standard the run digest holds metrics to.
        """
        h = hashlib.sha256()
        for arr in (
            self.capacity, self.remaining, self.spent_tx, self.spent_rx,
            self.spent_idle, self.died_at, self.energy_alive, self.failed,
            self.sleeping, self.alive, self.finite, self.queue_depth,
            self.next_hop, self.route_seq, self.backoff,
        ):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr(self.tx_count).encode())
        h.update(repr(self.rx_count).encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def node_view(self, node_id: int) -> Node:
        """Row ``node_id`` as a :class:`~repro.sim.node.Node`."""
        return Node(self, node_id)

    def energy_view(self, node_id: int) -> EnergyAccount:
        """Row ``node_id``'s battery as an
        :class:`~repro.sim.energy.EnergyAccount` (one per row, cached)."""
        view = self._energy_views[node_id]
        if view is None:
            view = EnergyAccount(self, node_id)
            self._energy_views[node_id] = view
        return view

    # ------------------------------------------------------------------
    # liveness maintenance
    # ------------------------------------------------------------------
    def refresh_alive(self, i: int) -> None:
        """Re-derive ``alive[i]``; edge-detect and notify the listener.

        The listener fires once per actual flip, and a battery dying on
        an already-failed node stays silent.
        """
        now_alive = bool(
            self.energy_alive[i] and not self.failed[i] and not self.sleeping[i]
        )
        if now_alive != self.alive_list[i]:
            self.alive[i] = now_alive
            self.alive_list[i] = now_alive
            self.fast_list[i] = now_alive and not self.finite_list[i]
            listener = self._listeners[i]
            if listener is not None:
                listener(i, now_alive)

    def bind_alive_listener(self, i: int, listener: Callable[[int, bool], None]) -> None:
        self._listeners[i] = listener

    def set_failed(self, i: int, value: bool) -> None:
        self.failed[i] = value
        self.refresh_alive(i)

    def set_sleeping(self, i: int, value: bool) -> None:
        self.sleeping[i] = value
        self.refresh_alive(i)

    def mirror_alive(
        self,
        ids: Sequence[int],
        alive: Sequence[bool],
        died: Optional[Sequence[float]] = None,
    ) -> None:
        """Apply authoritative liveness to halo-mirror rows (repro.shard).

        A sharded worker's rows for nodes owned by *other* shards are
        read-only replicas: no local event ever charges or kills them, so
        their liveness must be imported.  The update funnels through the
        ``failed`` flag and :meth:`refresh_alive` — the same
        edge-detected listener path local flips take — so the network's
        maintained alive mask and cached graphs stay consistent.

        ``died`` carries the owner's battery-death timestamps (``nan``
        for a non-death flip): the routing layer's delayed liveness
        belief (``DataPlaneForwarder._believed_alive``) reads
        ``died_at``, so the mirror must import it for the belief to
        flip at the same sim time on every worker.
        """
        for k, (i, up) in enumerate(zip(ids, alive)):
            self.failed[i] = not up
            if died is not None:
                self.died_at[i] = died[k]
            self.refresh_alive(i)

    def _kill_battery(self, i: int, now: float) -> None:
        """Battery exhaustion: permanent, timestamped, then a liveness flip."""
        self.remaining[i] = 0.0
        self.died_at[i] = now
        self.energy_alive[i] = False
        self.refresh_alive(i)

    # ------------------------------------------------------------------
    # scalar energy ops (see the arithmetic contract)
    # ------------------------------------------------------------------
    def _charge(self, i: int, joules: float, now: float, spent, counts) -> bool:
        """Drain ``joules`` from row ``i`` and book them in ``spent``
        (bumping ``counts``, when given); False if the battery was dead."""
        if not self.energy_alive[i]:
            return False
        r = float(self.remaining[i]) - joules
        self.remaining[i] = r
        if r <= 0 and self.finite[i]:
            self._kill_battery(i, now)
        spent[i] += joules
        if counts is not None:
            counts[i] += 1
        return True

    def charge_tx(self, i: int, joules: float, now: float) -> bool:
        """Charge one transmission; returns False if the battery was dead."""
        return self._charge(i, joules, now, self.spent_tx, self.tx_count)

    def charge_rx(self, i: int, joules: float, now: float) -> bool:
        """Charge one reception; returns False if the battery was dead."""
        return self._charge(i, joules, now, self.spent_rx, self.rx_count)

    def charge_idle(self, i: int, joules: float, now: float) -> bool:
        """Charge idle listening; returns False if the battery was dead."""
        return self._charge(i, joules, now, self.spent_idle, None)

    # ------------------------------------------------------------------
    # batched energy op
    # ------------------------------------------------------------------
    def charge(self, ids: np.ndarray, joules: float, kind: str = "rx") -> None:
        """Charge every node in ``ids`` with ``joules`` as one vector op.

        Only valid for a run of *distinct, alive, infinite-capacity*
        rows: an infinite battery's ``remaining`` stays ``inf`` under any
        finite subtraction, no death can occur, and each ``spent_*`` cell
        receives exactly one addition, so there is no accumulation order
        to preserve — which is what makes the vector form bit-identical
        to per-row scalar charges.  The delivery pump applies the same
        two additions inline per drained entry instead of calling this.
        """
        self.remaining[ids] -= joules
        if kind == "rx":
            self.spent_rx[ids] += joules
            counts = self.rx_count
        elif kind == "tx":
            self.spent_tx[ids] += joules
            counts = self.tx_count
        else:
            self.spent_idle[ids] += joules
            return
        for i in ids:
            counts[i] += 1

    # ------------------------------------------------------------------
    # routing / queue columns (maintained by the protocol layer)
    # ------------------------------------------------------------------
    def note_route(self, i: int, next_hop: Optional[int]) -> None:
        """Record the owner's current best next hop (None = routeless).

        Bumps ``route_seq`` only on actual change, so the column pair
        doubles as a cheap "did my route move?" signal.
        """
        hop = NO_ROUTE if next_hop is None else int(next_hop)
        if self.next_hop[i] != hop:
            self.next_hop[i] = hop
            self.route_seq[i] += 1

    def note_queued(self, i: int, delta: int = 1) -> None:
        """Adjust the pending-payload depth for node ``i``."""
        self.queue_depth[i] += delta

    def mirror_route(
        self, ids: Sequence[int], hops: Sequence[int], seqs: Sequence[int]
    ) -> None:
        """Apply authoritative route columns to halo-mirror rows (repro.shard).

        The counterpart of :meth:`mirror_alive` for the routing summary:
        a non-owned row's table never changes locally (protocol handlers
        run only on the owner), so its ``next_hop``/``route_seq`` pair is
        imported wholesale — including the owner's sequence number, which
        is why this bypasses :meth:`note_route`'s change-detection bump.
        Observability coherence only: the authoritative route state still
        travels in the protocol's own control frames.
        """
        for i, hop, seq in zip(ids, hops, seqs):
            self.next_hop[i] = hop
            self.route_seq[i] = seq


#: The row class under its former name.
NodeView = Node
