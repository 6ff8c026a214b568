"""Node state machines for the three-tier WMSN architecture.

The architecture (Section 3.2, Fig. 1) distinguishes four node kinds:

``SENSOR``
    Battery-powered 802.15.4 node; senses, forwards for neighbors.
``GATEWAY`` (WMG)
    Mesh gateway: sink of the low-tier sensor network *and* router of the
    middle-tier mesh.  Speaks both 802.15.4 and 802.11.  Mains-powered
    ("let gateways have unrestricted energy", Section 5.3) unless an
    experiment says otherwise (the paper notes forest deployments where
    gateways are also energy-restricted, Section 4.1).
``MESH_ROUTER`` (WMR)
    Pure middle-tier router; 802.11 only.
``BASE_STATION``
    Bridges the wireless mesh to the Internet; supports WMG/WMR mobility.
"""

from __future__ import annotations

import enum
import math
from typing import Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.energy import EnergyAccount
    from repro.sim.packet import Packet
    from repro.sim.state import NodeStateStore

__all__ = ["NodeKind", "Node"]


class NodeKind(enum.Enum):
    """Role of a node in the three-tier architecture."""

    SENSOR = "sensor"
    GATEWAY = "gateway"
    MESH_ROUTER = "mesh_router"
    BASE_STATION = "base_station"

    @property
    def is_sink(self) -> bool:
        """Whether sensor-tier data terminates here."""
        return self in (NodeKind.GATEWAY, NodeKind.BASE_STATION)


class Node:
    """A single network node: one row of a
    :class:`~repro.sim.state.NodeStateStore`.

    The node holds no state of its own: position lives in the
    :class:`~repro.sim.network.Network` arrays (vectorised neighbor math),
    liveness, battery and the registered ``handler`` live in the store's
    columns, and behaviour lives in the protocol that registers
    ``handler``.  Protocols, fault injection and analysis read and write
    nodes; the radio's hot path reads the columns directly.

    Attributes
    ----------
    node_id:
        Index into the network's position arrays and the store's rows.
    kind:
        Role (sensor / gateway / mesh router / base station).
    energy:
        Battery account (an :class:`~repro.sim.energy.EnergyAccount` row);
        infinite for mains-powered kinds.
    handler:
        Callback invoked with each successfully received packet.
    failed:
        Set by fault-injection experiments; a failed node neither sends
        nor receives but keeps its residual energy (hardware fault, not
        battery exhaustion).
    sleeping:
        Radio off under topology control (Section 4.4).
    """

    __slots__ = ("_store", "node_id", "kind")

    def __init__(self, store: "NodeStateStore", node_id: int) -> None:
        self._store = store
        self.node_id = node_id
        self.kind: NodeKind = store.kinds[node_id]

    @property
    def handler(self) -> Optional[Callable[["Packet"], None]]:
        return self._store.handlers[self.node_id]

    @handler.setter
    def handler(self, fn: Optional[Callable[["Packet"], None]]) -> None:
        self._store.handlers[self.node_id] = fn

    @property
    def failed(self) -> bool:
        return bool(self._store.failed[self.node_id])

    @failed.setter
    def failed(self, value: bool) -> None:
        self._store.set_failed(self.node_id, value)

    @property
    def sleeping(self) -> bool:
        return bool(self._store.sleeping[self.node_id])

    @sleeping.setter
    def sleeping(self, value: bool) -> None:
        self._store.set_sleeping(self.node_id, value)

    @property
    def energy(self) -> "EnergyAccount":
        return self._store.energy_view(self.node_id)

    def bind_alive_listener(self, listener: Callable[[int, bool], None]) -> None:
        """Register ``listener(node_id, alive)``, fired on liveness flips.

        The :class:`~repro.sim.network.Network` binds this to keep its
        topology caches current.  Every way a node's ``alive`` can change
        (``failed``/``sleeping`` writes, battery exhaustion, a shard's
        halo mirror) funnels through
        :meth:`~repro.sim.state.NodeStateStore.refresh_alive`, which fires
        the listener exactly once per actual flip: a battery dying on a
        node that is already failed or sleeping changes nothing and stays
        silent.
        """
        self._store.bind_alive_listener(self.node_id, listener)

    @property
    def alive(self) -> bool:
        """True when the node can participate in the network.

        A sleeping node (topology control, Section 4.4) has its radio off:
        it neither transmits nor receives until woken, but unlike a failed
        node it resumes seamlessly.
        """
        return self._store.alive_list[self.node_id]

    @property
    def died_at(self) -> Optional[float]:
        """Battery-death time, or None while the battery lives.

        Battery exhaustion only — injected failures keep residual energy
        and leave this None.
        """
        v = self._store.died_at[self.node_id]
        return None if math.isnan(v) else float(v)

    def receive(self, packet: "Packet") -> None:
        """Hand a delivered packet to the registered protocol handler,
        if the node is alive.  (The radio reads the store's ``handlers``
        column directly.)"""
        store = self._store
        i = self.node_id
        handler = store.handlers[i]
        if handler is not None and store.alive_list[i]:
            handler(packet)

    def fail(self) -> None:
        """Inject a hardware failure (robustness experiments, E9)."""
        self.failed = True

    def recover(self) -> bool:
        """Clear an injected failure.

        Returns whether the node is actually alive afterwards.  A node
        whose battery died while (or before) it was failed stays dead:
        the cleared flag never signals an alive transition, because the
        store only notifies when :attr:`alive` really flips — battery
        exhaustion is permanent, hardware faults are not.  Callers that
        rejoin the node to a protocol (the fault injector) must check the
        return value before re-announcing.
        """
        self.failed = False
        return self.alive

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node(node_id={self.node_id!r}, kind={self.kind!r}, alive={self.alive!r})"
