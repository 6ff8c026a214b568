"""Golden digests: every cell replays to its recorded entry.

The fixtures in ``tests/golden/digests.json`` pin the simulator's
observable behaviour — run digest (metrics plus per-node tx/rx
counters), per-node RNG states, energy column bytes and conservation
ledger totals — across protocol × radio × faults, plus the scenarios of
former cross-implementation equivalence tests.  A mismatch means
behaviour changed; if the change is intended, re-record with
``PYTHONPATH=src python -m tests.golden.record`` and say why in the
commit.
"""

import json

import pytest

from tests.golden.cells import CELLS, SHARDED_KEYS, run_cell, run_cell_sharded
from tests.golden.record import FIXTURE

RECORDED = json.loads(FIXTURE.read_text())["cells"]


def test_fixture_covers_every_cell():
    assert sorted(RECORDED) == sorted(CELLS)


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cell_matches_recorded_entry(name):
    assert run_cell(CELLS[name]) == RECORDED[name]


@pytest.mark.parametrize("name", sorted(n for n, c in CELLS.items() if c.sharded))
def test_two_shard_replay_matches_recorded_entry(name):
    got = run_cell_sharded(CELLS[name])
    assert got == {key: RECORDED[name][key] for key in SHARDED_KEYS}
