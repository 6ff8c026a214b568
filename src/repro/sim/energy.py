"""First-order radio energy model and per-node energy accounting.

This is the model used throughout the paper's reference set (LEACH [17],
multi-base-station placement [34]): transmitting ``k`` bits over distance
``d`` costs

.. math::

    E_{tx}(k, d) = E_{elec} k + \\epsilon_{amp} k d^{\\alpha}

with free-space (:math:`\\alpha = 2`) amplification below the crossover
distance :math:`d_0 = \\sqrt{\\epsilon_{fs} / \\epsilon_{mp}}` and multipath
(:math:`\\alpha = 4`) above it, and receiving ``k`` bits costs
:math:`E_{rx}(k) = E_{elec} k`.

The paper's SPR analysis assumes "all sensor nodes transmit data in
identical power so that transmitting 1 bit data consumes the same energy to
all of them" (Section 5.2); set ``fixed_tx_distance`` to model that
assumption while still letting baselines such as LEACH pay true
distance-dependent cost for their long-range hops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.state import NodeStateStore

__all__ = ["EnergyModel", "EnergyAccount"]


@dataclass(frozen=True)
class EnergyModel:
    """First-order radio model parameters (Heinzelman et al. defaults).

    Attributes
    ----------
    e_elec:
        Electronics energy per bit, J/bit (TX and RX circuitry).
    eps_fs:
        Free-space amplifier energy, J/bit/m^2.
    eps_mp:
        Multipath amplifier energy, J/bit/m^4.
    idle_power:
        Idle listening power in watts; charged per second by the
        simulation driver when enabled (0 disables idle accounting).
    fixed_tx_distance:
        If not ``None``, every transmission is charged as if sent over
        exactly this distance — the paper's identical-power assumption.
    """

    e_elec: float = 50e-9
    eps_fs: float = 10e-12
    eps_mp: float = 0.0013e-12
    idle_power: float = 0.0
    fixed_tx_distance: float | None = None

    def __post_init__(self) -> None:
        if min(self.e_elec, self.eps_fs, self.eps_mp) < 0 or self.idle_power < 0:
            raise ConfigurationError("energy parameters must be non-negative")

    @property
    def crossover_distance(self) -> float:
        """Distance :math:`d_0` where free-space and multipath costs meet."""
        return math.sqrt(self.eps_fs / self.eps_mp)

    def tx_cost(self, bits: int, distance: float) -> float:
        """Energy in joules to transmit ``bits`` over ``distance`` meters."""
        if bits < 0 or distance < 0:
            raise ConfigurationError("bits and distance must be non-negative")
        d = self.fixed_tx_distance if self.fixed_tx_distance is not None else distance
        if d < self.crossover_distance:
            amp = self.eps_fs * d * d
        else:
            amp = self.eps_mp * d ** 4
        return bits * (self.e_elec + amp)

    def rx_cost(self, bits: int) -> float:
        """Energy in joules to receive ``bits``."""
        if bits < 0:
            raise ConfigurationError("bits must be non-negative")
        return bits * self.e_elec


class EnergyAccount:
    """Battery state of a single node: one row of a
    :class:`~repro.sim.state.NodeStateStore`.

    Gateways/mesh routers are modelled with ``math.inf`` capacity ("let
    gateways have unrestricted energy", Section 5.3); sensor nodes get a
    finite budget and die — permanently — when it is exhausted.  The time of
    the *first* sensor death is the paper's network-lifetime definition.

    The account holds no values of its own: every field reads the
    store's columns at access time, and every charge mutates them, so
    fault injection (battery drains), LEACH (cluster-head cross-charges)
    and analysis (``spent`` sums) see exactly what the radio's columnar
    hot path wrote.  Scalars come back as Python floats.
    """

    __slots__ = ("_store", "_i")

    def __init__(self, store: "NodeStateStore", i: int) -> None:
        self._store = store
        self._i = i

    @property
    def capacity(self) -> float:
        return float(self._store.capacity[self._i])

    @property
    def remaining(self) -> float:
        return float(self._store.remaining[self._i])

    @remaining.setter
    def remaining(self, value: float) -> None:
        self._store.remaining[self._i] = value

    @property
    def spent_tx(self) -> float:
        return float(self._store.spent_tx[self._i])

    @property
    def spent_rx(self) -> float:
        return float(self._store.spent_rx[self._i])

    @property
    def spent_idle(self) -> float:
        return float(self._store.spent_idle[self._i])

    @property
    def died_at(self) -> Optional[float]:
        """Battery-death time, or None while the battery lives."""
        v = self._store.died_at[self._i]
        return None if math.isnan(v) else float(v)

    @property
    def alive(self) -> bool:
        return bool(self._store.energy_alive[self._i])

    @property
    def spent(self) -> float:
        """Total energy consumed so far, in joules."""
        return self.spent_tx + self.spent_rx + self.spent_idle

    # The charges run the store's shared scalar op rather than its public
    # ``charge_*`` methods, so one charge is one call at either surface.
    def charge_tx(self, joules: float, now: float) -> bool:
        """Charge a transmission; returns False if the node was dead."""
        store = self._store
        return store._charge(self._i, joules, now, store.spent_tx, store.tx_count)

    def charge_rx(self, joules: float, now: float) -> bool:
        """Charge a reception; returns False if the node was dead."""
        store = self._store
        return store._charge(self._i, joules, now, store.spent_rx, store.rx_count)

    def charge_idle(self, joules: float, now: float) -> bool:
        """Charge idle listening; returns False if the node was dead."""
        store = self._store
        return store._charge(self._i, joules, now, store.spent_idle, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EnergyAccount(node={self._i}, capacity={self.capacity!r}, "
            f"remaining={self.remaining!r}, spent={self.spent!r})"
        )
