"""Golden-digest cells: small worlds whose recorded outcome pins behaviour.

Each :class:`Cell` is a complete, deterministic scenario — deployment,
radio, protocol, traffic, optional fault plan and finite batteries.
:func:`run_cell` executes one in-process and condenses its outcome into
an *entry*:

``digest``
    :func:`repro.shard.runner.run_digest` over the metrics collector and
    the store's per-node tx/rx counter columns;
``rng``
    SHA-256 of every per-node RNG substream's final state;
``energy``
    SHA-256 of the exact bytes of the store's energy columns (capacity,
    remaining, spent tx/rx/idle, battery-death time);
``ledger``
    the packet-conservation totals of the audited run;
``events`` / ``end_time``
    engine events processed and the final simulated clock (hex float).

``tests/golden/digests.json`` holds the recorded entry of every cell;
``tests/test_golden.py`` replays each cell and compares, and replays the
shard-safe cells under :func:`repro.shard.run_sharded` at two workers
against the same entries (digest, RNG states and ledger — the fields a
sharded run reports).  ``python -m tests.golden.record`` rewrites the
fixtures after an intended behaviour change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.baselines.flooding import Flooding
from repro.core.base import ProtocolConfig
from repro.core.mlr import MLR
from repro.core.secmlr import SecMLR
from repro.core.spr import SPR
from repro.faults.plan import BatteryDrain, Crash, FaultPlan, Recover
from repro.shard.runner import ShardWorkload, run_digest
from repro.sim.mobility import FeasiblePlaces, GatewaySchedule
from repro.sim.network import grid_deployment, uniform_deployment
from repro.sim.radio import IEEE802154, GilbertElliott
from repro.world import WorldBuilder, WorldConfig

#: Radios by name: the four of the matrix (:data:`MATRIX_RADIOS`), from
#: ideal to the full 802.15.4 MAC, plus plain Bernoulli loss without ARQ.
RADIOS = {
    "ideal": IEEE802154.ideal(),
    "lossy": dataclasses.replace(IEEE802154.ideal(), loss_rate=0.3, arq_retries=2),
    "ge": dataclasses.replace(
        IEEE802154.ideal(),
        burst=GilbertElliott(p_gb=0.15, p_bg=0.4, loss_good=0.05, loss_bad=0.8),
        arq_retries=2,
    ),
    "csma": IEEE802154,
    "loss15": dataclasses.replace(IEEE802154.ideal(), loss_rate=0.15),
    "loss30": dataclasses.replace(IEEE802154.ideal(), loss_rate=0.3),
}

MATRIX_RADIOS = ("ideal", "lossy", "ge", "csma")

PROTOCOLS = {"flooding": Flooding, "spr": SPR, "mlr": MLR, "secmlr": SecMLR}

#: Ledger totals carried by every entry.
LEDGER_KEYS = (
    "generated", "delivered", "dropped", "pending",
    "duplicates", "unknown_delivered", "late_drops",
)

#: Entry fields a two-worker sharded replay reports and must match.
SHARDED_KEYS = ("digest", "rng", "ledger")


@dataclass(frozen=True)
class Cell:
    """One golden scenario.

    ``sensors`` is ``("uniform", n, field, topology_seed)`` or
    ``("grid", rows, cols, spacing)``; ``traffic`` is the global
    ``((time, source), ...)`` origination list, datum ``i`` labelled
    ``data_id = i + 1`` exactly as the sharded executor labels it.
    MLR/SecMLR cells rotate gateway 0 between two feasible places at
    ``rounds`` (strip-stable: the alternate place shares its x).
    """

    name: str
    protocol: str
    radio: str
    sensors: tuple
    gateways: tuple
    comm_range: float
    traffic: tuple
    seed: int = 0
    battery: float = math.inf
    faults: Optional[FaultPlan] = None
    table_answering: bool = True
    rounds: tuple = ()
    #: also replayed at ``shards=2`` (shard-safe protocol and radio, no faults)
    sharded: bool = False

    def sensor_positions(self) -> np.ndarray:
        kind, *args = self.sensors
        if kind == "uniform":
            n, field, topology_seed = args
            return uniform_deployment(n, field, seed=topology_seed)
        rows, cols, spacing = args
        return grid_deployment(rows, cols, spacing)

    def protocol_params(self) -> dict:
        if self.protocol == "flooding":
            return {}
        config = ProtocolConfig(table_answering=self.table_answering)
        if self.protocol == "secmlr":
            config = dataclasses.replace(config, gateway_collect_timeout=0.05)
        params = {"config": config}
        if self.protocol in ("mlr", "secmlr"):
            params["schedule"] = self._schedule()
        return params

    def _schedule(self) -> GatewaySchedule:
        n = len(self.sensor_positions())
        spots = [tuple(map(float, g)) for g in self.gateways]
        alt = (spots[0][0], spots[0][1] * 0.6)
        labels = ["home0", "alt0"] + [f"home{k}" for k in range(1, len(spots))]
        places = FeasiblePlaces(labels=tuple(labels), coordinates=(spots[0], alt, *spots[1:]))
        home = {n + k: f"home{k}" for k in range(len(spots))}
        return GatewaySchedule(
            places=places,
            rounds=[home, {**home, n: "alt0"}],
        )

    def workload(self) -> ShardWorkload:
        """This cell as a :class:`ShardWorkload` (shard-safe cells only)."""
        return ShardWorkload(
            sensor_positions=self.sensor_positions(),
            gateway_positions=np.asarray(self.gateways, dtype=float),
            comm_range=self.comm_range,
            traffic=self.traffic,
            world=WorldConfig(audit=True),
            radio=RADIOS[self.radio],
            protocol=self.protocol,
            protocol_params=self.protocol_params(),
            sensor_battery=self.battery,
            seed=self.seed,
            rounds=self.rounds,
        )


# ----------------------------------------------------------------------
# entry computation
# ----------------------------------------------------------------------
def rng_hash(states: dict) -> str:
    """SHA-256 over per-node RNG substream states, keyed by node id."""
    canon = {str(k): states[k] for k in sorted(states)}
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def energy_hash(store) -> str:
    """SHA-256 of the energy columns' exact float64 bytes."""
    h = hashlib.sha256()
    for col in (store.capacity, store.remaining, store.spent_tx,
                store.spent_rx, store.spent_idle, store.died_at):
        h.update(np.ascontiguousarray(col, dtype=np.float64).tobytes())
    return h.hexdigest()


def ledger_totals(report) -> dict:
    return {key: int(getattr(report, key)) for key in LEDGER_KEYS}


def run_cell(cell: Cell, config: WorldConfig = WorldConfig()) -> dict:
    """Run ``cell`` in-process under execution ``config``; return its entry."""
    config = config.replace(audit=True, faults=cell.faults)
    world = (
        WorldBuilder()
        .seed(cell.seed)
        .sensors(cell.sensor_positions())
        .gateways(cell.gateways)
        .comm_range(cell.comm_range)
        .sensor_battery(cell.battery)
        .radio(RADIOS[cell.radio])
        .configure(config)
        .build()
    )
    proto = world.attach(PROTOCOLS[cell.protocol], **cell.protocol_params())
    for r, when in enumerate(cell.rounds):
        world.sim.schedule_at(float(when), proto.start_round, r)
    for i, (when, src) in enumerate(cell.traffic):
        world.sim.schedule_at(float(when), proto.send_data, int(src), None, i + 1)
    world.sim.run()
    store = world.network.store
    tx, rx = store.counter_columns()
    return {
        "digest": run_digest(world.metrics, (tx.tolist(), rx.tolist())),
        "rng": rng_hash(world.sim.node_rng_states()),
        "energy": energy_hash(store),
        "ledger": ledger_totals(world.conservation_report(strict=True)),
        "events": int(world.events_processed),
        "end_time": float(world.sim.now).hex(),
    }


def run_cell_sharded(cell: Cell, shards: int = 2) -> dict:
    """Replay a shard-safe cell through the sharded executor."""
    from repro.shard import run_sharded

    result = run_sharded(cell.workload(), shards=shards)
    return {
        "digest": result.digest,
        "rng": rng_hash(result.rng_states),
        "ledger": ledger_totals(result.conservation),
    }


# ----------------------------------------------------------------------
# the matrix
# ----------------------------------------------------------------------
def _matrix() -> list[Cell]:
    """Protocol × radio × faults over one 60-sensor field.

    Fault cells arm one crash/recover pair and a battery drain on
    finite (3 mJ) batteries, so deaths, RERR repair and rejoin all
    run.  Every fault-free cell on the ideal, lossy and Gilbert–Elliott
    radios with a shard-safe protocol is also replayed at two workers.
    """
    n, field = 60, 150.0
    base = dict(
        sensors=("uniform", n, field, 3),
        gateways=((45.0, 75.0), (120.0, 90.0)),
        comm_range=40.0,
        traffic=tuple((0.4 + 0.2 * k, (k * 7) % n) for k in range(16)),
        seed=5,
    )
    plan = FaultPlan((
        Crash(node=11, t=0.9),
        Recover(node=11, t=2.3),
        BatteryDrain(node=24, t=0.6, fraction=0.97),
    ))
    cells = []
    for proto in PROTOCOLS:
        for radio in MATRIX_RADIOS:
            for faulted in (False, True):
                cells.append(Cell(
                    name=f"{proto}-{radio}-{'faults' if faulted else 'clean'}",
                    protocol=proto,
                    radio=radio,
                    rounds=(0.0, 2.0) if proto in ("mlr", "secmlr") else (),
                    battery=0.003 if faulted else math.inf,
                    faults=plan if faulted else None,
                    sharded=(not faulted and radio in ("ideal", "lossy", "ge")
                             and proto != "secmlr"),
                    **base,
                ))
    return cells


def _regressions() -> list[Cell]:
    """Scenarios of former cross-implementation equivalence tests."""
    grid4 = dict(
        protocol="spr",
        sensors=("grid", 4, 4, 10.0),
        gateways=((40.0, 30.0),),
        comm_range=10.5,  # axis-aligned links only: distances are exact floats
        traffic=((0.0, 0), (0.05, 5), (0.1, 10), (0.15, 15)),
        seed=7,
    )
    ge_traffic = tuple(
        (r * 4.0 + 0.3 + i * 1e-3, i) for r in range(3) for i in range(30)
    )
    cells = [
        Cell(name=f"grid4-spr-{radio}", radio=radio, **grid4)
        for radio in ("ideal", "lossy", "csma")
    ]
    cells += [
        Cell(
            name=f"uniform30-spr-ge-seed{seed}",
            protocol="spr",
            radio="ge",
            sensors=("uniform", 30, 150.0, 3),
            gateways=((20.0, 20.0), (130.0, 130.0)),
            comm_range=55.0,
            traffic=ge_traffic,
            seed=seed,
            sharded=True,
        )
        for seed in (0, 7)
    ]
    cells.append(Cell(
        name="uniform80-spr-flood",
        protocol="spr",
        radio="ideal",
        sensors=("uniform", 80, 150.0, 13),
        gateways=((75.0, 75.0),),
        comm_range=30.0,
        traffic=tuple((0.5 * k, k) for k in range(4)),
        seed=7,
        table_answering=False,
    ))
    return cells


def _small_spr() -> list[Cell]:
    """14 sensors and 2 gateways running SPR under Bernoulli loss, with
    and without finite batteries, under two crashes, a recovery and a
    battery drain that leaves its node to die mid-run when batteries
    are finite (the scenario shape of the former randomized
    store-vs-object equivalence property)."""
    n = 14
    plan = FaultPlan((
        Crash(node=3, t=1.2),
        BatteryDrain(node=8, t=2.0, fraction=0.995),
        Recover(node=3, t=3.5),
        Crash(node=10, t=5.0),
    ))
    traffic = tuple(sorted(
        [(0.4 * i + 0.01, i) for i in range(n)]
        + [(0.4 * i + 6.5, (i * 5) % n) for i in range(n)]
    ))
    return [
        Cell(
            name=f"uniform14-spr-{radio}-{'batt' if math.isfinite(battery) else 'mains'}",
            protocol="spr",
            radio=radio,
            sensors=("uniform", n, 80.0, 11),
            gateways=((40.0, 40.0), (15.0, 15.0)),
            comm_range=35.0,
            traffic=traffic,
            seed=11,
            battery=battery,
            faults=plan,
            table_answering=False,
        )
        for radio in ("loss15", "loss30")
        for battery in (math.inf, 0.05)
    ]


CELLS: dict[str, Cell] = {c.name: c for c in _matrix() + _regressions() + _small_spr()}
