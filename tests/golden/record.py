"""Record the golden-digest fixtures: ``python -m tests.golden.record``.

Runs every cell of :mod:`tests.golden.cells` under every execution
variant in :data:`VARIANTS` and refuses to write unless all variants
produce the same entry; shard-safe cells must also match when replayed
at two workers.  The fixture file records the commit it was generated
at and the variants that agreed.  Run from the repository root with
``PYTHONPATH=src``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.world import WorldConfig
from tests.golden.cells import CELLS, SHARDED_KEYS, run_cell, run_cell_sharded

FIXTURE = Path(__file__).with_name("digests.json")

#: Execution variants every cell must agree across.  The fixture's
#: ``variants`` list names the ones that agreed when it was recorded:
#: the committed fixtures were recorded across the struct-of-arrays
#: store and the since-removed per-object node state (compared on what
#: both exposed: metrics, per-node energy bits, RNG states, ledger
#: totals, events and end time), and most cells earlier across the
#: since-removed scalar fan-out and dense spatial index.
VARIANTS = {
    "default": WorldConfig(),
}


def _head() -> str:
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
        cwd=Path(__file__).parent,
    )
    return out.stdout.strip() or "unknown"


def record() -> dict:
    entries: dict[str, dict] = {}
    disagreements: list[str] = []
    for name, cell in CELLS.items():
        runs = {label: run_cell(cell, cfg) for label, cfg in VARIANTS.items()}
        reference = next(iter(runs.values()))
        for label, entry in runs.items():
            if entry != reference:
                disagreements.append(f"{name}: {label} differs from {next(iter(runs))}")
        if cell.sharded:
            sharded = run_cell_sharded(cell)
            for key in SHARDED_KEYS:
                if sharded[key] != reference[key]:
                    disagreements.append(f"{name}: shards=2 differs on {key}")
        entries[name] = reference
        print(f"{name:32s} events={reference['events']:6d} ledger={reference['ledger']}")
    if disagreements:
        raise SystemExit("refusing to write fixtures:\n  " + "\n  ".join(disagreements))
    return {
        "recorded_at": _head(),
        "variants": list(VARIANTS),
        "cells": entries,
    }


def main() -> int:
    fixture = record()
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(fixture['cells'])} cells to {FIXTURE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
