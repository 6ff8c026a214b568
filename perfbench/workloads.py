"""The benchmark's workloads.

Each workload turns a seed into inputs (``inputs``) and runs an operation
to a checked result.  An *operation* is one SecMLR lifetime simulation for
``mlr_lifetime`` and one sharded simulation for ``shard_flood``.  The seed
reaches the program only through the generated inputs.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

@dataclass
class OpResult:
    """Outcome of one operation."""

    name: str
    ok: bool = True
    error: Optional[str] = None
    digest: Optional[str] = None
    events: int = 0
    #: host seconds from the first simulated event to the checked result
    run_s: float = 0.0
    extra: dict = field(default_factory=dict)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class FirstEvent:
    """Host time of the first simulated event of an operation.

    ``hit`` is called from hooks on the engine's entry points and on the
    shard coordinator's first ``advance``; only the first call in the
    arming process counts (forked shard workers inherit the hooks).
    ``stop=True`` aborts the operation right there, which is how the
    set-up probe ends.
    """

    class Reached(BaseException):
        """Raised at the first event of a probe; a ``BaseException`` so
        that the program's own ``except Exception`` handlers let it pass."""

    def __init__(self, stop: bool = False) -> None:
        self.stop = stop
        self.at: Optional[float] = None
        self._pid = os.getpid()

    def reset(self) -> None:
        self.at = None

    def hit(self) -> None:
        if self.at is None and os.getpid() == self._pid:
            self.at = time.clock_gettime(time.CLOCK_MONOTONIC)
            if self.stop:
                raise FirstEvent.Reached

    def install(self, engine: bool) -> None:
        """Hook the shard coordinator (and, for probes, the engine) for the
        rest of the process."""
        from repro.shard.supervise import WorkerGang
        from repro.sim.engine import Simulator

        send = WorkerGang.__dict__["send"]
        mark = self

        def send_hooked(gang, shard, msg, phase=""):
            if phase == "advance":
                mark.hit()
            return send(gang, shard, msg, phase)

        WorkerGang.send = send_hooked
        if engine:
            for attr in ("run", "step"):
                original = Simulator.__dict__[attr]

                def hooked(sim, *args, _orig=original, **kwargs):
                    mark.hit()
                    return _orig(sim, *args, **kwargs)

                setattr(Simulator, attr, hooked)


# ----------------------------------------------------------------------
# mlr_lifetime
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LifetimeInputs:
    """One ``mlr_lifetime`` operation's inputs, all drawn from the seed."""

    positions: np.ndarray
    protocol_seed: int
    schedule_seed: int


class MlrLifetime:
    """SecMLR data collection until past the first battery deaths, with the
    lifetime LP on the same deployment (the work of E5, E7, E10 and E11 in
    one world).

    The sensors sit on a square grid, each moved by at most ``jitter`` on
    either axis.  With ``spacing + 2 * jitter`` well inside the radio range
    every grid neighbour stays in range, so the deployment is connected at
    every seed by construction; the uniform random deployments of the
    experiment functions are not (README, "Dropped workloads").
    """

    name = "mlr_lifetime"

    def __init__(self, side: int, rounds: int, battery: float, spacing: float = 30.0,
                 jitter: float = 5.0, comm_range: float = 50.0,
                 packets_per_round: int = 2, round_duration: float = 5.0) -> None:
        self.side = side
        self.rounds = rounds
        self.battery = battery
        self.spacing = spacing
        self.jitter = jitter
        self.comm_range = comm_range
        self.packets_per_round = packets_per_round
        self.round_duration = round_duration

    def inputs(self, seed: int) -> LifetimeInputs:
        rng = np.random.default_rng(int(seed))
        axis = (np.arange(self.side) + 0.5) * self.spacing
        grid = np.array([(x, y) for x in axis for y in axis])
        positions = grid + rng.uniform(-self.jitter, self.jitter, grid.shape)
        protocol_seed, schedule_seed = (int(v) for v in rng.integers(2**31, size=2))
        return LifetimeInputs(positions, protocol_seed, schedule_seed)

    def run(self, inputs: LifetimeInputs, first: FirstEvent) -> OpResult:
        """One operation: build, solve the LPs, simulate, audit, digest.

        ``run_s`` covers all of it, as an experiment cell builds its own
        world; ``first`` marks the first simulated event only in set-up
        probes.
        """
        from repro.core.lifetime import LifetimeLP
        from repro.core.secmlr import SecMLR
        from repro.experiments.common import (corner_places, default_energy_model,
                                              run_collection_rounds)
        from repro.shard.runner import run_digest
        from repro.sim.mobility import GatewaySchedule
        from repro.sim.packet import DATA_PAYLOAD_BYTES, MAC_HEADER_BYTES
        from repro.sim.radio import IEEE802154
        from repro.sim.serialize import dumps
        from repro.world import WorldBuilder

        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        places = corner_places(self.side * self.spacing)
        energy = default_energy_model()
        world = (WorldBuilder()
                 .seed(inputs.protocol_seed)
                 .sensors(inputs.positions)
                 .gateways([list(places.position(p)) for p in places.labels[:2]])
                 .comm_range(self.comm_range)
                 .sensor_battery(self.battery)
                 .radio(IEEE802154.ideal())
                 .energy(energy)
                 .audit(True)
                 .build())
        net = world.network
        bits = 8 * (MAC_HEADER_BYTES + DATA_PAYLOAD_BYTES)
        lp = LifetimeLP(net, et=energy.tx_cost(bits, self.comm_range),
                        er=energy.rx_cost(bits),
                        generation_rate=float(self.packets_per_round))
        bound = lp.solve_max_lifetime(battery=self.battery).objective
        floor = lp.solve_min_energy().total_energy
        schedule = GatewaySchedule.rotating(places, net.gateway_ids,
                                            num_rounds=self.rounds,
                                            seed=inputs.schedule_seed)
        protocol = world.attach(SecMLR, schedule)
        result = run_collection_rounds(world, protocol, self.rounds,
                                       self.round_duration, self.packets_per_round)
        world.assert_conserved()
        tx, rx = net.store.counter_columns()
        # LP optima to six digits: solver round-off is not a wrong result.
        digest = _sha256(dumps({
            "run": run_digest(world.metrics, (tx.tolist(), rx.tolist())),
            "result": result,
            "lp": [float(f"{bound:.6g}"), float(f"{floor:.6g}")],
        }))
        t1 = time.clock_gettime(time.CLOCK_MONOTONIC)
        op = OpResult(name=self.name, digest=digest,
                      events=world.events_processed, run_s=t1 - t0)
        op.extra.update(wall_s=t1 - t0)
        return op


# ----------------------------------------------------------------------
# shard_flood
# ----------------------------------------------------------------------
#: field area per sensor of ``make_xl_workload`` (its default density)
_XL_AREA_PER_SENSOR = 900.0


def diagonal_sources(positions: np.ndarray, edge: float, n: int) -> list:
    """The sensors nearest ``n`` points evenly spaced along the diagonal
    of a field of side ``edge``.

    The points sit at the same places at every seed, so every seed's
    floods reach about as many sensors; their x positions spread evenly,
    so the floods nearest the middle cross the boundary of the x-strips
    the sharded executor cuts the field into.
    """
    points = [((k + 0.5) * edge / n,) * 2 for k in range(n)]
    return [int(np.argmin(((positions - p) ** 2).sum(axis=1))) for p in points]


class ShardFlood:
    """The E6b flood through the sharded executor with barrier checkpoints."""

    name = "shard_flood"

    def __init__(self, sensors: int, floods: int, ttl: int, shards: int,
                 checkpoint_every: int, tmp_root: str) -> None:
        self.sensors = sensors
        self.floods = floods
        self.ttl = ttl
        self.shards = shards
        self.checkpoint_every = checkpoint_every
        self.tmp_root = tmp_root

    def inputs(self, seed: int):
        """The E6b workload at ``seed`` with its flood sources on the
        field's diagonal.

        ``make_xl_workload`` picks sources by index, so at random places:
        a flood from near the edge reaches fewer sensors, and the events
        of a run varied by ±20% from seed to seed.
        """
        from dataclasses import replace

        from repro.experiments.scalability import make_xl_workload

        wl = make_xl_workload(self.sensors, self.floods, self.ttl,
                              seed=int(seed), audit=True)
        edge = math.sqrt(self.sensors * _XL_AREA_PER_SENSOR)
        sources = diagonal_sources(np.asarray(wl.sensor_positions), edge, self.floods)
        traffic = tuple((t, src) for (t, _), src in zip(wl.traffic, sources))
        return replace(wl, traffic=traffic)

    def run(self, workload, first: FirstEvent, shards: Optional[int] = None) -> OpResult:
        """One sharded run; ``run_s`` starts at the first ``advance``.

        Under audit mode ``run_sharded`` strictly audits the merged
        conservation ledger and raises on a violation.
        """
        import repro.shard as shard

        shards = self.shards if shards is None else shards
        os.makedirs(self.tmp_root, exist_ok=True)
        first.reset()
        with tempfile.TemporaryDirectory(dir=self.tmp_root) as d:
            t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
            ckpt = (shard.CheckpointConfig(dir=d, every=self.checkpoint_every)
                    if shards > 1 else None)
            result = shard.run_sharded(workload, shards=shards, checkpoint=ckpt)
            ok = result.conservation is not None and result.conservation.ok
            t1 = time.clock_gettime(time.CLOCK_MONOTONIC)
        start = first.at if (shards > 1 and first.at is not None) else t0
        op = OpResult(name=self.name, digest=result.digest,
                      events=result.events_processed, run_s=t1 - start)
        if not ok:
            op.ok = False
            op.error = "merged-ledger conservation audit did not pass"
        op.extra.update(
            result=result, wall_s=t1 - t0, ready_s=start - t0,
        )
        return op


def make(name: str, root: str, tiny: bool = False) -> Any:
    """The workload called ``name``; ``root`` is the checkout it runs in.

    ``tiny`` shrinks every workload to a smoke-test size.
    """
    if name == "mlr_lifetime":
        return (MlrLifetime(side=4, rounds=4, battery=0.01) if tiny
                else MlrLifetime(side=7, rounds=10, battery=0.04))
    if name == "shard_flood":
        return ShardFlood(sensors=2000 if tiny else 20000, floods=2 if tiny else 4,
                          ttl=6 if tiny else 20, shards=2,
                          checkpoint_every=4 if tiny else 32,
                          tmp_root=os.path.join(root, ".perfbench", "tmp"))
    raise KeyError(name)


WORKLOADS = ("mlr_lifetime", "shard_flood")
