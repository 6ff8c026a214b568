"""Radio configurations and the shared wireless channel.

:class:`Channel` is the only way packets move: protocols call
:meth:`Channel.send` (broadcast when ``packet.dst is None``, link-layer
unicast otherwise) and the channel handles CSMA deferral, airtime, loss,
receiver-side collisions, energy charging and delivery to the receiving
nodes' handlers.

Two parameter presets mirror the paper's tier split (Section 3.2): sensor
nodes speak :data:`IEEE802154`, mesh routers :data:`IEEE80211`, and
gateways both.

A transmitted frame fans out in three steps.  It draws its losses once,
from the sender's stream in neighbor order (:meth:`Channel._losses`).
Under sharded execution it then splits its receivers by owner, exporting
those another shard simulates (:meth:`Channel._shard_split`).  Finally it
delivers to the rest in one of two modes, chosen per channel from what
the physics observes: broadcast frames on a radio without CSMA or
collision detection are queued as one sorted run and drained in batches
(:meth:`Channel._fanout_batched`); everything else — unicast frames, and
every frame on a radio whose medium is observed — schedules one engine
event per reception (:meth:`Channel._fanout_per_event`).  Both modes
read the same loss mask and reserve identical ``(time, seq)`` keys, so
the choice never changes a metric, an RNG stream or an energy column.
The recorded golden digests (``tests/golden/``) pin that behaviour
across protocols, radios, faults and shard counts.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.sim.energy import EnergyModel
from repro.sim.engine import Simulator
from repro.sim.mac import MediumState
from repro.sim.packet import Packet
from repro.sim.serialize import serializable
from repro.sim.trace import MetricsCollector

__all__ = ["GilbertElliott", "RadioConfig", "IEEE802154", "IEEE80211", "Channel"]

_SPEED_OF_LIGHT = 3.0e8


@serializable
@dataclass(frozen=True)
class GilbertElliott:
    """Two-state bursty link-loss model (Gilbert–Elliott).

    Each directed link ``(sender, receiver)`` carries an independent
    two-state Markov chain.  Per frame the chain advances one step —
    Good→Bad with probability ``p_gb``, Bad→Good with ``p_bg`` — and the
    frame is then lost with the state's loss probability (``loss_good``
    on a good link, ``loss_bad`` inside a burst).  Mean burst length is
    ``1 / p_bg`` frames; stationary bad-state probability is
    ``p_gb / (p_gb + p_bg)``.

    The chain consumes exactly two RNG draws per intended receiver —
    one transition, one loss — regardless of parameter values, so both
    delivery modes (and a sharded split) consume the stream identically.
    """

    p_gb: float
    p_bg: float
    loss_good: float = 0.0
    loss_bad: float = 1.0
    start_bad: bool = False

    def __post_init__(self) -> None:
        for name in ("p_gb", "p_bg", "loss_good", "loss_bad"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {v!r}")

    @property
    def stationary_bad(self) -> float:
        """Long-run fraction of frames finding the link in the bad state."""
        denom = self.p_gb + self.p_bg
        return 0.0 if denom == 0.0 else self.p_gb / denom


@dataclass(frozen=True)
class RadioConfig:
    """Physical/MAC parameters of one radio technology."""

    name: str
    bitrate: float  # bits per second
    comm_range: float  # meters
    loss_rate: float = 0.0  # independent per-link frame loss probability
    backoff_window: float = 2e-3  # seconds of random CSMA jitter
    collisions: bool = True
    csma: bool = True
    arq_retries: int = 3
    """Link-layer retransmissions for unicast frames whose reception fails
    (collision or loss) — 802.15.4/802.11 both ACK unicast and retry.
    Broadcast frames are never acknowledged, hence never retried."""
    burst: Optional[GilbertElliott] = None
    """Bursty per-link loss (Gilbert–Elliott).  When set it *replaces*
    the i.i.d. ``loss_rate`` draw: per-state loss probabilities come from
    the model and ``loss_rate`` is ignored."""

    def __post_init__(self) -> None:
        if self.bitrate <= 0 or self.comm_range <= 0:
            raise ConfigurationError("bitrate and comm_range must be positive")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ConfigurationError("loss_rate must be in [0, 1]")

    def airtime(self, bits: int) -> float:
        """Seconds needed to push ``bits`` onto the air."""
        return bits / self.bitrate

    def ideal(self) -> "RadioConfig":
        """A lossless, collision-free copy (worked-example experiments)."""
        return replace(
            self, loss_rate=0.0, collisions=False, csma=False,
            backoff_window=0.0, arq_retries=0, burst=None,
        )


#: Sensor-tier radio (2.4 GHz 802.15.4: 250 kb/s, short range).
IEEE802154 = RadioConfig(name="802.15.4", bitrate=250_000.0, comm_range=40.0)

#: Mesh-tier radio (802.11b: 11 Mb/s, long range).
IEEE80211 = RadioConfig(name="802.11", bitrate=11_000_000.0, comm_range=250.0)


class Channel:
    """The shared wireless medium of one network tier.

    Parameters
    ----------
    sim:
        The discrete-event engine (also the source of randomness).
    network:
        Topology provider; must expose ``store``, ``neighbors(i)`` and
        ``distances_from(i, ids)`` (see :class:`repro.sim.network.Network`).
    config:
        Radio parameters (default 802.15.4 — the sensor tier).
    energy_model:
        First-order radio model used to charge TX/RX energy.
    metrics:
        Collector receiving send/receive/drop events.
    """

    def __init__(
        self,
        sim: Simulator,
        network,
        config: RadioConfig = IEEE802154,
        energy_model: Optional[EnergyModel] = None,
        metrics: Optional[MetricsCollector] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.config = config
        self.energy_model = energy_model or EnergyModel()
        self.metrics = metrics or MetricsCollector()
        self.medium = MediumState()
        self._prune_every = 256
        self._sends_since_prune = 0
        # With carrier sensing and collision detection both off, nothing
        # ever reads the medium bookkeeping — skip it on the hot path.
        self._medium_observed = config.csma or config.collisions
        #: the network's struct-of-arrays node state
        self._store = network.store
        # Batched same-timestamp delivery draining requires an unobserved
        # medium (CSMA deferrals and collision records are inherently
        # per-reception); worlds that observe it use per-event delivery.
        # LinkDegrade fault windows only swap loss_rate/burst, so the
        # gate is stable for a channel's lifetime.
        self._batched = not self._medium_observed
        # Pending broadcast deliveries as one flat sorted buffer of
        # ``(time, seq, node, rx_joules, packet, kind)`` entries with a
        # consume cursor.  New fan-out runs bisect-insert into the
        # unconsumed tail; consumed entries stay in place (compacted
        # periodically), so nothing already merged is ever re-sorted or
        # re-sliced.  One engine event — the "pump" — is parked at the
        # earliest pending key and drains entries in global key order,
        # so concurrent frames whose delivery windows interleave still
        # process with zero per-delivery heap traffic.
        self._buf: list[tuple] = []
        self._pos = 0
        self._pump_event = None
        # Sharded execution (repro.shard): when configured, fan-outs
        # deliver only to owned receivers; receptions bound for other
        # shards are exported as timestamped messages instead.
        self._shard_owned: Optional[np.ndarray] = None
        self._shard_interior: Optional[np.ndarray] = None
        self._shard_out: list[tuple] = []
        # Gilbert–Elliott chain state per directed link: True = bad
        # (inside a burst).  Links start in the model's ``start_bad``
        # state on first use; state survives config swaps so a
        # link-degrade window resuming the same model continues its
        # bursts instead of resetting every chain.
        self._link_bad: dict[tuple[int, int], bool] = {}

    def _jitter(self, node: int) -> float:
        """One uniform backoff draw from ``node``'s own stream, or exactly
        zero without burning a draw when the window is zero
        (``RadioConfig.ideal()``).

        Keying the draw by the acting node (the frame's sender) makes the
        jitter sequence a pure function of ``(seed, node)`` — the
        partitioned-stream property sharded execution relies on.
        """
        window = self.config.backoff_window
        if window <= 0.0:
            return 0.0
        return self.sim.node_rng(node).uniform(0.0, window)

    def _losses(
        self, sender: int, neighbors: np.ndarray, dst: Optional[int]
    ) -> Optional[np.ndarray]:
        """Draw one frame's losses: a bool mask over ``neighbors``.

        The only place a fan-out draws.  Each *intended* receiver — every
        neighbor of a broadcast, the destination of a unicast — gets one
        loss draw (a burst-chain step through :meth:`_burst_losses` when
        the radio is bursty) from the *sender's* per-node stream, in
        neighbor order, before any ownership split: the sender's owner
        makes exactly the draws a single process would, whatever the
        delivery mode or shard count.  ``None`` on a lossless radio or
        when nobody is intended, in which case no stream is touched.
        """
        cfg = self.config
        if cfg.burst is None and cfg.loss_rate <= 0.0:
            return None
        intended = None if dst is None else neighbors == dst
        k = len(neighbors) if intended is None else int(intended.sum())
        if k == 0:
            return None
        if cfg.burst is not None:
            receivers = neighbors.tolist() if intended is None else [int(dst)] * k
            drawn = self._burst_losses(sender, receivers)
        else:
            drawn = self.sim.node_rng(sender).random(k) < cfg.loss_rate
        if intended is None:
            return drawn
        lost = np.zeros(len(neighbors), dtype=bool)
        lost[intended] = drawn
        return lost

    def _burst_losses(self, sender: int, receivers: list[int]) -> np.ndarray:
        """Advance the per-link burst chains one step and draw losses.

        ``receivers`` are the intended receivers in neighbor order
        (non-empty; :meth:`_losses` is the only caller).  The draws are
        taken as one ``(k, 2)`` batch — transition then loss per
        receiver — from the *sender's* per-node stream: every link chain
        ``(sender, *)`` is advanced only by the sender's own fan-outs, so
        both the chain state and the draw sequence live entirely on
        whichever process owns the sender.  The batch consumes the
        stream in exactly the order a two-draws-per-receiver loop would.
        """
        ge = self.config.burst
        draws = self.sim.node_rng(sender).random((len(receivers), 2))
        states = self._link_bad
        lost = np.empty(len(receivers), dtype=bool)
        for i, nb in enumerate(receivers):
            key = (sender, nb)
            bad = states.get(key, ge.start_bad)
            bad = (draws[i, 0] < ge.p_gb) if not bad else not (draws[i, 0] < ge.p_bg)
            states[key] = bad
            lost[i] = draws[i, 1] < (ge.loss_bad if bad else ge.loss_good)
        return lost

    # ------------------------------------------------------------------
    # sharded execution (spatial domain decomposition, repro.shard)
    # ------------------------------------------------------------------
    def configure_sharding(
        self, owned: np.ndarray, interior: Optional[np.ndarray] = None
    ) -> None:
        """Restrict local delivery to ``owned`` nodes, exporting the rest.

        ``owned`` is a boolean mask over node ids: fan-outs deliver to
        owned receivers through the normal paths, while receptions bound
        for non-owned nodes are appended to the export buffer as exact
        ``(arrive_time, receiver, sender, packet, attempt)`` tuples —
        the event times the single-process schedule would have used,
        computed with the same float expressions.  Fan-out membership is
        position-only (:meth:`Network.neighbors` ignores liveness — dead
        receivers drop at delivery time), so exports never depend on the
        halo mirror's alive staleness; the owning shard's delivery path
        applies the authoritative alive check.  ``interior``
        optionally marks owned senders whose whole neighborhood is owned
        (one ``cells_in_band`` query per shard); their fan-outs skip the
        ownership mask entirely.

        Loss draws, burst chains, backoff and ARQ jitter all shard
        cleanly because they come from the acting sender's per-node
        stream (:meth:`Simulator.node_rng`) and are drawn before the
        ownership split — the sender's owner makes exactly the draws a
        single-process run would.  Only a *observed medium* (CSMA
        carrier sensing, receiver-side collisions) cannot shard: the
        medium is global state no conservative protocol can reproduce
        locally.
        """
        if self._medium_observed:
            raise ConfigurationError(
                "sharded execution requires csma=False and collisions=False "
                "(the medium is global state)"
            )
        self._shard_owned = np.asarray(owned, dtype=bool)
        self._shard_interior = (
            None if interior is None else np.asarray(interior, dtype=bool)
        )

    def owns(self, node: int) -> bool:
        """Whether this process simulates ``node`` authoritatively.

        Always ``True`` unsharded.  Protocol-layer actions that every
        replicated world would otherwise perform (MLR's round-boundary
        NOTIFY floods) gate on this so exactly one worker puts the frame
        on the air.
        """
        return self._shard_owned is None or bool(self._shard_owned[node])

    def take_shard_exports(self) -> list[tuple]:
        """Drain and return receptions exported since the last call."""
        out = self._shard_out
        self._shard_out = []
        return out

    def deliver_remote(
        self, arrive: float, receiver: int, sender: int, packet: Packet, attempt: int = 0
    ) -> None:
        """Inject a reception exported by another shard.

        Scheduled at the exact absolute ``arrive`` time the exporting
        shard computed, through :meth:`_deliver_direct` — the same
        terminal path an ideal-radio reception takes locally, so energy
        charges, death handling and metrics are bit-identical.
        """
        self.sim.schedule_at(arrive, self._deliver_direct, receiver, packet, sender, attempt)

    def _shard_split(
        self, sender: int, packet: Packet, attempt: int, neighbors: np.ndarray,
        lost: Optional[np.ndarray], start: float, end: float,
    ) -> Optional[tuple[np.ndarray, Optional[np.ndarray]]]:
        """Partition a fan-out by ownership: no draws, no drops.

        Every intended, not-lost receiver owned by another shard is
        exported, timed with the delivery schedule's float expression
        ``((end + prop) - now) + now`` elementwise.  Owned receivers stay
        local, and so do lost copies bound for other shards: the local
        fan-out counts each drop and arms a unicast's ARQ retry exactly
        as a single process would.  (A unicast's non-intended neighbors
        owned elsewhere observe nothing under an unobserved medium and
        are left out.)  Returns the local ``(neighbors, lost)`` pair, or
        ``None`` when a unicast destination was exported and nothing
        local remains.
        """
        local = self._shard_owned[neighbors]
        export = ~local
        dst = packet.dst
        if dst is not None:
            export &= neighbors == dst
        if lost is not None:
            export &= ~lost
            local |= lost
        if export.any():
            remote = neighbors[export]
            props = self.network.distances_from(sender, remote) / _SPEED_OF_LIGHT
            times = ((end + props) - start) + start
            self._shard_out.extend(
                (arrive, nb, sender, packet, attempt)
                for arrive, nb in zip(times.tolist(), remote.tolist())
            )
            if dst is not None:
                return None
        return neighbors[local], None if lost is None else lost[local]

    # ------------------------------------------------------------------
    def send(self, sender: int, packet: Packet) -> bool:
        """Queue a frame for transmission by ``sender``.

        Returns ``False`` (and records a drop) if the sender is dead.  The
        frame's link source is stamped to ``sender``; ``packet.dst`` decides
        unicast (one intended receiver) vs broadcast (all neighbors).
        """
        if not self._store.alive_list[sender]:
            # A dead sender holds the only copy of whatever it carries —
            # terminal for any datum aboard.
            self.metrics.on_terminal_drop("dead_node", packet, node=sender, now=self.sim.now)
            return False
        packet.src = sender

        if self._medium_observed:
            self._sends_since_prune += 1
            if self._sends_since_prune >= self._prune_every:
                self.medium.prune(self.sim.now)
                self._sends_since_prune = 0

        jitter = self._jitter(sender) if self.config.csma else 0.0
        self.sim.schedule(jitter, self._begin_tx, sender, packet)
        return True

    # ------------------------------------------------------------------
    def _begin_tx(self, sender: int, packet: Packet, attempt: int = 0) -> None:
        store = self._store
        if not store.alive_list[sender]:
            # Sender died between queuing and transmit — the frame (and
            # any datum it carries) dies with it.
            self.metrics.on_terminal_drop("dead_node", packet, node=sender, now=self.sim.now)
            return
        if self.config.csma:
            # Carrier sensing happens at transmit time: defer while any
            # frame this node can hear (or its own) is on the air, then
            # back off by a random slice of the contention window.
            hearers = set(int(x) for x in self.network.neighbors(sender))
            free = self.medium.earliest_free(hearers, sender, self.sim.now)
            if free > self.sim.now:
                backoff = self._jitter(sender)
                # Columnar observability: when this node's current
                # hold-off expires (absolute time).
                store.backoff[sender] = free + backoff
                self.sim.schedule(
                    free - self.sim.now + backoff, self._begin_tx, sender, packet, attempt
                )
                return

        bits = packet.size_bits()
        airtime = self.config.airtime(bits)
        start = self.sim.now
        end = start + airtime
        if self._medium_observed:
            self.medium.register_tx(sender, start, end)

        # The paper's identical-power assumption: every frame is amplified
        # to cover the full communication range (Section 5.2).
        tx_joules = self.energy_model.tx_cost(bits, self.config.comm_range)
        if store.charge_tx(sender, tx_joules, start) and not store.energy_alive[sender]:
            self.metrics.on_node_death(sender, start)
        self.metrics.on_send(packet)

        # Draw once, split by owner, then deliver.
        neighbors = self.network.neighbors(sender)
        lost = self._losses(sender, neighbors, packet.dst)
        if self._shard_owned is not None and (
            self._shard_interior is None or not self._shard_interior[sender]
        ):
            split = self._shard_split(sender, packet, attempt, neighbors, lost, start, end)
            if split is None:
                return
            neighbors, lost = split
        if self._batched and packet.dst is None:
            self._fanout_batched(sender, packet, neighbors, start, end, lost)
        else:
            self._fanout_per_event(sender, packet, attempt, neighbors, start, end, lost)

    def _fanout_per_event(
        self, sender: int, packet: Packet, attempt: int,
        neighbors: np.ndarray, start: float, end: float,
        lost: Optional[np.ndarray],
    ) -> None:
        """Per-event fan-out: one engine event per reception.

        Distance and propagation are one NumPy pass; ``lost`` is the
        frame's loss mask over ``neighbors`` from :meth:`_losses` (``None``
        when no loss was drawn).  Used for unicast frames and
        whenever the medium is observed (CSMA/collisions), where every
        reception must register with :class:`MediumState`.
        """
        dst = packet.dst
        n = len(neighbors)
        if n == 0:
            if dst is not None:
                self.metrics.on_terminal_drop("no_link", packet, node=sender, now=self.sim.now)
            return
        props = self.network.distances_from(sender, neighbors) / _SPEED_OF_LIGHT
        arrive_l = (end + props).tolist()
        nb_l = neighbors.tolist()
        lost_l = None if lost is None else lost.tolist()

        detect = self.config.collisions
        interference = self._medium_observed
        deliver = self._deliver if interference else None
        register = self.medium.register_reception
        schedule = self.sim.schedule
        now = self.sim.now
        start_l = (start + props).tolist() if interference else None
        found_dst = dst is None
        for idx in range(n):
            nb = nb_l[idx]
            intended = dst is None or nb == dst
            if not intended:
                if interference:
                    register(nb, start_l[idx], arrive_l[idx], packet, sender, False, detect)
                continue
            found_dst = True
            arrive = arrive_l[idx]
            if lost_l is not None and lost_l[idx]:
                self.metrics.on_drop("loss")
                if interference:
                    # A lost frame is lost to the receiver, not to
                    # physics: it still lands as non-deliverable
                    # interference at the receiver.
                    register(nb, start_l[idx], arrive, packet, sender, False, detect)
                if dst is not None:
                    schedule(arrive - now, self._maybe_retry, sender, packet, attempt)
                continue
            if interference:
                rec = register(nb, start_l[idx], arrive, packet, sender, True, detect)
                schedule(arrive - now, deliver, nb, rec, sender, attempt)
            else:
                # Ideal radio: no carrier sensing, no collisions — the
                # reception record would never be read, deliver directly.
                schedule(arrive - now, self._deliver_direct, nb, packet, sender, attempt)

        if not found_dst:
            # Link-layer unicast to a node that moved/died out of range.
            self.metrics.on_terminal_drop("no_link", packet, node=sender, now=self.sim.now)

    # ------------------------------------------------------------------
    # batched draining (struct-of-arrays hot path)
    # ------------------------------------------------------------------
    def _fanout_batched(
        self, sender: int, packet: Packet,
        neighbors: np.ndarray, start: float, end: float,
        lost: Optional[np.ndarray],
    ) -> None:
        """Broadcast fan-out as one sorted delivery run.

        Instead of one heap event per surviving receiver, all deliveries
        of the frame become a single queued run whose entries carry the
        exact ``(time, seq)`` keys per-event scheduling would have
        produced: sequence numbers are reserved in neighbor order (the
        order :meth:`_fanout_per_event` consumes them), event times are
        computed with the same float expression ``schedule`` uses, and
        entries are stably sorted by time.  Losses come from the same
        ``lost`` mask, so the run is a pure re-packaging of the
        reference schedule.
        """
        n = len(neighbors)
        if n == 0:
            return
        props = self.network.distances_from(sender, neighbors) / _SPEED_OF_LIGHT
        now = self.sim.now
        # Exactly Event.time as schedule(arrive - now) computes it:
        # now + ((end + prop) - now), elementwise.
        ev_times = ((end + props) - now) + now

        if lost is not None and lost.any():
            for _ in range(int(lost.sum())):
                self.metrics.on_drop("loss")
            keep = ~lost
            kept_ids = neighbors[keep]
            kept_times = ev_times[keep]
        else:
            kept_ids = neighbors
            kept_times = ev_times
        k = len(kept_ids)
        if k == 0:
            return
        # One seq per scheduled delivery, reserved in neighbor order —
        # the reference path's allocation — then stably sorted by time,
        # which yields exact (time, seq) heap order.
        base = self.sim.alloc_seqs(k)
        order = np.argsort(kept_times, kind="stable")
        rx_j = self.energy_model.rx_cost(packet.size_bits())
        entries = list(
            zip(
                kept_times[order].tolist(),
                (base + order).tolist(),
                kept_ids[order].tolist(),
                itertools.repeat(rx_j),
                itertools.repeat(packet),
                itertools.repeat(packet.kind),
            )
        )
        self._enqueue_run(entries)

    def _enqueue_run(self, entries: list) -> None:
        """Merge a sorted delivery run, re-arming the pump if now earliest.

        When the buffer is drained the run simply becomes the new buffer;
        otherwise each entry bisect-inserts into the unconsumed tail
        (entries within a run are increasing, so each search starts where
        the previous insert landed).  New deliveries are always in the
        strict future, so the consumed prefix is never disturbed.

        The pump's engine event always sits at the earliest pending
        delivery's *original* ``(time, seq)`` key, so its ordering
        against every other event equals that delivery's.  Fan-outs only
        ever run from engine-event context (``send`` schedules
        ``_begin_tx``; handlers never transmit synchronously), so this
        never executes while :meth:`_pump` is mid-drain.
        """
        buf = self._buf
        if self._pos >= len(buf):
            self._buf = buf = entries
            self._pos = 0
        else:
            lo = self._pos
            insert = buf.insert
            for e in entries:
                j = bisect(buf, e, lo)
                insert(j, e)
                lo = j + 1
        head = buf[self._pos]
        t0 = head[0]
        s0 = head[1]
        ev = self._pump_event
        if ev is None:
            self._pump_event = self.sim.push_event_at(t0, s0, self._pump)
        elif t0 < ev.time or (t0 == ev.time and s0 < ev.seq):
            ev.cancel()
            self._pump_event = self.sim.push_event_at(t0, s0, self._pump)

    def _pump(self) -> None:
        """Drain pending broadcast deliveries in global ``(time, seq)`` order.

        Pending deliveries live in one flat key-sorted buffer (new runs
        are merged at enqueue time), so the drain is a single tight loop
        advancing a cursor.  Three ordering guards keep this a pure
        re-packaging of per-event delivery:

        * every entry executes at exactly the ``(time, seq)`` key its own
          heap event would have had — an entry never runs past a key that
          precedes it, whether that key belongs to another frame's
          delivery or to any other scheduled event;
        * after a handler that scheduled new work the engine bound is
          re-derived, since the new event may have to interleave;
        * energy charges, deaths and drops happen per entry in that exact
          order (one scalar store op each), so float accumulation order
          matches per-event delivery bitwise.

        Only the ``received`` counters are coalesced (they are pure
        increments — addition order cannot be observed): consecutive
        entries of one packet kind accumulate locally and flush on kind
        change and at exit, so metrics are complete whenever the engine
        regains control.  When entries remain past the engine bound or
        the ``run(until=...)`` horizon, the pump re-parks at the next
        entry's original key — the buffer itself stays in place.

        The loop reads ``sim._now``/``sim._seq`` directly rather than
        through :meth:`Simulator.advance_clock` /
        :attr:`Simulator.seq_marker` — entry keys are globally
        nondecreasing by construction, and at ~100k entries per simulated
        flood the property/method dispatch is measurable.
        """
        sim = self.sim
        store = self._store
        metrics = self.metrics
        self._pump_event = None
        entries = self._buf

        alive_l = store.alive_list
        handlers = store.handlers
        spent_rx = store.spent_rx
        rx_count = store.rx_count
        fast_l = store.fast_list
        peek = sim.peek_key
        q = sim._queue
        horizon = sim.horizon
        if horizon is None:
            horizon = math.inf
        inf_key = (math.inf, 0)
        maxseq = sim.seq_marker + (1 << 32)  # beyond any live seq
        # Exclusive horizons (conservative shard windows) must park even
        # the entries *at* the bound: their horizon key sorts before any
        # live seq, so the lexicographic min below excludes them.
        hseq = -1 if sim.horizon_exclusive else maxseq
        received = metrics.received
        on_drop = metrics.on_drop

        # Run bound: min(engine top, horizon key).  An inclusive horizon
        # wins only when strictly earlier — a live event at the horizon
        # still precedes parked entries with the same time and a later
        # seq; an exclusive horizon wins ties too.
        top = peek() or inf_key
        if horizon < top[0] or (horizon == top[0] and hseq < top[1]):
            bt = horizon
            bs = hseq
        else:
            bt = top[0]
            bs = top[1]

        n = len(entries)
        i = i0 = self._pos
        got = 0
        cur_kind = None
        seq_mark = sim._seq
        while i < n:
            t, s, nb, rx_j, packet, kind = entries[i]
            if t > bt or (t == bt and s > bs):
                break
            sim._now = t  # nondecreasing: entries run in global key order
            i += 1
            if fast_l[nb]:
                # Mains powered and alive: remaining stays inf (inf - j
                # is inf bitwise, as a scalar charge computes it) and
                # no death is possible — the charge is two adds.
                spent_rx[nb] += rx_j
                rx_count[nb] += 1
            elif alive_l[nb]:
                # Finite battery: full scalar charge with the death
                # bookkeeping of per-event delivery.
                store.charge_rx(nb, rx_j, t)
                if not store.energy_alive[nb]:
                    # Battery died mid-reception; the frame was never
                    # processed.
                    metrics.on_node_death(nb, t)
                    on_drop("dead_node")
                    continue
            else:
                # Broadcast copy to a dead receiver: frame-level loss
                # only, sibling copies may still deliver.
                on_drop("dead_node")
                continue
            if kind is cur_kind:
                got += 1
            else:
                if got:
                    received[cur_kind] += got
                cur_kind = kind
                got = 1
            handler = handlers[nb]
            if handler is not None:
                handler(packet)
                if sim._seq != seq_mark:
                    # The handler scheduled something; it may have to
                    # fire before our next entry — re-derive the engine
                    # part of the bound.  A seq bump means at least one
                    # push, so the queue is non-empty; only a cancelled
                    # top forces the full lazy peek.
                    seq_mark = sim._seq
                    tk = q[0]
                    top = tk if not tk[2].cancelled else (peek() or inf_key)
                    if horizon < top[0] or (horizon == top[0] and hseq < top[1]):
                        bt = horizon
                        bs = hseq
                    else:
                        bt = top[0]
                        bs = top[1]

        if got:
            received[cur_kind] += got
        # The pump's own engine event already counted as one processed
        # event; only the surplus entries are tallied on top of it.
        sim.tally_batch_entries(i - i0 - 1)
        if i < n:
            if i > 8192:
                # Amortized compaction: drop the consumed prefix at most
                # once per 8k entries so the buffer stays bounded without
                # re-copying the unconsumed tail on every park.
                del entries[:i]
                i = 0
            self._pos = i
            head = entries[i]
            self._pump_event = sim.push_event_at(head[0], head[1], self._pump)
        else:
            entries.clear()
            self._pos = 0

    # ------------------------------------------------------------------
    def _maybe_retry(self, sender: int, packet: Packet, attempt: int) -> None:
        """ARQ: retransmit a failed unicast frame (802.15.4 macMaxFrameRetries)."""
        if attempt >= self.config.arq_retries:
            self.metrics.on_terminal_drop(
                "arq_exhausted", packet, node=sender, now=self.sim.now
            )
            return
        if not self._store.alive_list[sender]:
            # The retransmitter died between the failed attempt and the
            # retry: the frame vanished silently before this fix.
            self.metrics.on_terminal_drop("dead_node", packet, node=sender, now=self.sim.now)
            return
        self.sim.schedule(self._jitter(sender), self._begin_tx, sender, packet, attempt + 1)

    # ------------------------------------------------------------------
    def _deliver(self, receiver: int, rec, sender: int, attempt: int) -> None:
        if self.config.collisions and rec.collided:
            self.metrics.on_drop("collision")
            if rec.packet.dst is not None:
                self._maybe_retry(sender, rec.packet, attempt)
            return
        self._deliver_direct(receiver, rec.packet, sender, attempt)

    def _deliver_direct(self, receiver: int, packet: Packet, sender: int, attempt: int) -> None:
        """Reception without medium bookkeeping (collision-free radios)."""
        store = self._store
        if not store.alive_list[receiver]:
            # Unicast to a dead receiver gets no ACK and no retry event:
            # terminal for the frame's datum.  A broadcast copy is only a
            # frame-level loss — sibling copies may still deliver.
            if packet.dst is not None:
                self.metrics.on_terminal_drop(
                    "dead_node", packet, node=receiver, now=self.sim.now
                )
            else:
                self.metrics.on_drop("dead_node")
            return
        now = self.sim.now
        rx_joules = self.energy_model.rx_cost(packet.size_bits())
        if store.charge_rx(receiver, rx_joules, now) and not store.energy_alive[receiver]:
            self.metrics.on_node_death(receiver, now)
            # The receiver's battery died mid-reception — the frame was
            # never processed, and nothing else will account for it.
            if packet.dst is not None:
                self.metrics.on_terminal_drop("dead_node", packet, node=receiver, now=now)
            else:
                self.metrics.on_drop("dead_node")
            return
        self.metrics.on_receive(packet)
        handler = store.handlers[receiver]
        if handler is not None:
            handler(packet)
