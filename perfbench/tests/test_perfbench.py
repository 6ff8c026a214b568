"""Tests of the benchmark itself: metric names, the digest gate, the
self-time arithmetic, the spread statistics and the history labelling.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from report import history_lines, spread  # noqa: E402
from run import Checker, Run  # noqa: E402
from tracer import Tracer, layer_of  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# smoke: every metric of BENCHMARK.json is printed, by name and unit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_smoke_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    res = _result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == want
    text = proc.stdout.splitlines()[:-1]
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and f" {unit}" in line for line in text), name
    for m in res["metrics"].values():
        assert isinstance(m["value"], float)


def test_tiny_trace_attributes_time_per_layer():
    res = _result(_bench("--workload", "mlr_lifetime", "--seconds", "1",
                         "--trace", "1", "--tiny"))
    v = {n: m["value"] for n, m in res["metrics"].items()}
    selfs = [n for n in v if n.endswith(("self_s", "fork_s", "hook_s", "solve_s",
                                         "serialize_s", "build_s"))
             or n == "other_s"]
    assert sum(v[n] for n in selfs) == pytest.approx(v["trace.run_s"], rel=1e-6)
    assert v["radio.receptions"] > 0 and v["proto.handler_calls"] > 0
    assert v["world.builds"] > 0 and v["shard.windows"] == 0
    for name in ("topo.moves", "energy.deaths", "crypto.calls", "lp.solve_s"):
        assert v[name] > 0, name


# ----------------------------------------------------------------------
# the digest gate
# ----------------------------------------------------------------------
def test_tampered_digest_is_a_failed_operation():
    recorded = json.loads((HERE / "digests.json").read_text())
    wl = workloads.make("mlr_lifetime", str(ROOT), tiny=True)
    op = wl.run(wl.inputs(0), workloads.FirstEvent())
    assert op.ok and op.digest == recorded["mlr_lifetime@tiny"]["0"]["mlr_lifetime"]
    recorded["mlr_lifetime@tiny"]["0"]["mlr_lifetime"] = "0" * 64
    Checker(recorded, "mlr_lifetime@tiny", 0).check(op)
    assert op.ok is False and op.extra["mismatch"] is True
    assert op.error.startswith("digest ")


def test_disagreeing_repeats_are_failed_operations():
    checker = Checker({}, "mlr_lifetime@tiny", 5)
    first = workloads.OpResult(name="mlr_lifetime", digest="a" * 64)
    again = workloads.OpResult(name="mlr_lifetime", digest="b" * 64)
    checker.check(first)
    checker.check(again)
    assert first.ok and not again.ok and again.extra["mismatch"] is True


def test_an_operation_that_raises_is_a_named_failed_operation(monkeypatch):
    from repro.exceptions import TopologyError

    def raising(self, inputs, first):
        raise TopologyError("deployment leaves sensors unreachable")

    monkeypatch.setattr(workloads.MlrLifetime, "run", raising)
    args = argparse.Namespace(workload="mlr_lifetime", seed=0, tiny=True)
    run = Run(args)
    unit = run.unit()
    (op,) = run.ops
    assert unit["ops"] == [op] and not op.ok and op.digest is None
    assert op.name == "mlr_lifetime" and op.error.startswith("TopologyError")


def test_mlr_lifetime_inputs_come_from_the_seed_and_stay_connected():
    wl = workloads.make("mlr_lifetime", str(ROOT))
    a, b = wl.inputs(3), wl.inputs(4)
    assert (a.positions == wl.inputs(3).positions).all()
    assert not (a.positions == b.positions).all()
    # Each sensor is within the jitter of its grid point, so grid
    # neighbours are at most this far apart: inside the radio range.
    axis = (np.arange(wl.side) + 0.5) * wl.spacing
    grid = np.array([(x, y) for x in axis for y in axis])
    assert np.abs(a.positions - grid).max() <= wl.jitter
    assert math.hypot(wl.spacing + 2 * wl.jitter, 2 * wl.jitter) < wl.comm_range


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "mlr_lifetime", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
class _Clock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_a_nested_span_tree():
    # run [0,10] > engine.run [1,9] > radio.event [2,6] > proto.handler [3,4]
    #                               > radio.event [7,8]
    t = Tracer(clock=_Clock([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0]))
    t.begin("run")
    t.begin("engine.run")
    t.begin("radio.event")
    t.begin("proto.handler")
    t.end()
    t.end()
    t.begin("radio.event")
    t.end()
    t.end()
    t.end()
    assert dict(t.self_run) == {"run": 2.0, "engine.run": 3.0, "radio.event": 4.0,
                                "proto.handler": 1.0}
    layers = t.layer_self_run()
    assert (layers["other"], layers["engine"], layers["radio"], layers["proto"]) == (
        2.0, 3.0, 4.0, 1.0)
    assert sum(layers.values()) == t.run_total() == 10.0
    kept = {s["name"]: s for s in t.kept_spans()}
    assert kept["engine.run"]["parent"] == kept["run"]["id"]
    assert kept["run"]["run"] == 1


def test_layer_names():
    assert layer_of("run") == "other"
    assert layer_of("shard.recv.ready") == "shard"
    assert layer_of("mystery.thing") == "other"


# ----------------------------------------------------------------------
# spread and history
# ----------------------------------------------------------------------
def test_spread_reports_quartiles_and_tail():
    s = spread(range(1, 21))
    assert (s["n"], s["min"], s["median"], s["max"]) == (20, 1.0, 10.5, 20.0)
    assert s["tail_pct"] == 50 and s["tail"] == 10.0
    assert spread(range(10))["tail"] is None
    assert spread([3.0])["median"] == 3.0


def _report(cpu, value, tiny=False, seconds=20.0):
    fp = {"cpu_model": cpu, "cpu_count": 2, "python": "3", "numpy": "2",
          "scipy": "1", "git_sha": None, "src_sha256": "x"}
    return {"workload": "shard_flood", "trace": 0, "tiny": tiny, "seconds": seconds,
            "fingerprint": fp, "metrics": {"run_s": {"value": value, "unit": "s"}}}


def test_history_compares_only_the_same_host(tmp_path):
    history = tmp_path / "history.jsonl"
    assert history_lines(history, _report("cpu-a", 1.0)) == []
    history_lines(history, _report("cpu-b", 9.0))
    lines = history_lines(history, _report("cpu-a", 2.0))
    assert any("median of 1 earlier same-host runs 1" in line for line in lines)
    assert any("1 earlier report(s) from another host" in line for line in lines)
    assert len(history.read_text().splitlines()) == 3


def test_history_compares_only_the_same_size_and_length(tmp_path):
    history = tmp_path / "history.jsonl"
    history_lines(history, _report("cpu-a", 0.01, tiny=True))
    history_lines(history, _report("cpu-a", 0.5, seconds=5.0))
    assert history_lines(history, _report("cpu-a", 2.0)) == []
