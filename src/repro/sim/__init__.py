"""Discrete-event wireless network simulation substrate.

This package implements everything below the routing layer: the event
engine, packet model, radio propagation, medium access control, the
first-order radio energy model, node state machines, topology generation,
gateway mobility and metrics collection.

The substrate replaces the physical 802.15.4 / 802.11 testbed the paper
assumes (see ``DESIGN.md``, *Substitutions*).
"""

from repro.sim.engine import Event, Simulator
from repro.sim.serialize import (
    from_jsonable,
    serializable,
    to_jsonable,
)
from repro.sim.energy import EnergyModel, EnergyAccount
from repro.sim.packet import Packet, PacketKind, SecurityEnvelope
from repro.sim.radio import RadioConfig, IEEE802154, IEEE80211, Channel
from repro.sim.node import Node, NodeKind
from repro.sim.state import NodeStateStore
from repro.sim.network import (
    Network,
    build_sensor_network,
    grid_deployment,
    uniform_deployment,
)
from repro.sim.mobility import FeasiblePlaces, GatewaySchedule
from repro.sim.trace import MetricsCollector, DeliveryRecord

__all__ = [
    "Event",
    "Simulator",
    "serializable",
    "to_jsonable",
    "from_jsonable",
    "EnergyModel",
    "EnergyAccount",
    "Packet",
    "PacketKind",
    "SecurityEnvelope",
    "RadioConfig",
    "IEEE802154",
    "IEEE80211",
    "Channel",
    "Node",
    "NodeKind",
    "NodeStateStore",
    "Network",
    "build_sensor_network",
    "uniform_deployment",
    "grid_deployment",
    "FeasiblePlaces",
    "GatewaySchedule",
    "MetricsCollector",
    "DeliveryRecord",
]
