"""Shared benchmark record writer: ``BENCH_<name>.json`` at repo root.

Every benchmark that leaves a committed record follows the
``BENCH_hotpath.json`` schema — a ``config`` block (the knobs the run
was taken with), a ``legs`` mapping (one timed configuration per label,
each with at least ``wall_clock_s``), a ``digest`` block (the numbers
every leg must agree on, proving the legs computed the same thing), and
a headline ``speedup``.  Centralizing the writer keeps the schema in
one place so ``bench_topology.py`` and ``bench_shard.py`` records stay
machine-comparable with the hotpath one.

Re-running a benchmark no longer discards the prior measurement: the
latest record stays at the top level (so consumers keep reading the
same shape) and earlier top-level records shift into a bounded
``history`` list, oldest first — a cheap local trend line across runs.
Every record carries a ``host`` block (CPU model, ``cpu_count``,
Python/NumPy versions, git SHA) so timings taken on different machines
or commits are never read as comparable.  A benchmark that repeats its
legs records each leg's min/median/max through
:func:`wall_clock_spread`.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from typing import Optional

import numpy as np

__all__ = ["bench_record", "wall_clock_spread", "write_bench"]

#: the directory holding the committed BENCH_*.json records.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: prior records kept in a BENCH file's ``history`` list (oldest are
#: dropped first); bounds committed file growth under repeated runs.
HISTORY_LIMIT = 20


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def _git_sha() -> str:
    """HEAD's SHA, suffixed ``-dirty`` when tracked files are modified."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--abbrev=40", "--dirty"],
            capture_output=True, text=True, cwd=REPO_ROOT, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def host_fingerprint() -> dict:
    """The machine and code a measurement was taken on."""
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
    }


def wall_clock_spread(samples: list[float]) -> dict:
    """A leg's timing fields from its ``repeat`` wall-clock samples.

    ``wall_clock_s`` is the median, the number gates read; the min and
    max beside it show the spread, so one noisy repeat is visible
    instead of silently moving the headline.
    """
    if not samples:
        raise ValueError("a leg needs at least one wall-clock sample")
    return {
        "wall_clock_s": statistics.median(samples),
        "wall_clock_min_s": min(samples),
        "wall_clock_max_s": max(samples),
        "repeat": len(samples),
    }


def bench_record(
    config: dict, legs: dict, digest: dict, speedup: float, **extra
) -> dict:
    """Assemble a record in the ``BENCH_hotpath.json`` schema, stamped
    with the :func:`host_fingerprint`.

    ``extra`` lands at the top level (e.g. ``batched_speedup`` in the
    hotpath record, ``cpu_count`` in the shard one).
    """
    record = {
        "config": dict(config),
        "legs": {str(k): dict(v) for k, v in legs.items()},
        "digest": dict(digest),
        "speedup": float(speedup),
        "host": host_fingerprint(),
    }
    record.update(extra)
    return record


def _load_prior(path: str) -> Optional[dict]:
    """The existing record at ``path``, or None (absent/unreadable)."""
    try:
        with open(path) as fh:
            prior = json.load(fh)
    except (OSError, ValueError):
        return None
    return prior if isinstance(prior, dict) else None


def write_bench(name: str, record: dict, path: Optional[str] = None) -> str:
    """Write ``record`` to ``BENCH_<name>.json`` (repo root by default).

    The new record becomes the top level; an existing record at the
    destination is appended (minus its own ``history``) to the new
    record's ``history`` list, bounded to the last :data:`HISTORY_LIMIT`
    entries.  ``path`` overrides the destination (``"-"`` prints to
    stdout and writes nothing, leaving any existing file's history
    untouched).  Returns the path written, or ``"-"``.
    """
    for key in ("config", "legs", "digest", "speedup"):
        if key not in record:
            raise ValueError(f"bench record for {name!r} is missing {key!r}")
    if path == "-":
        print(json.dumps(record, indent=2))
        return "-"
    if path is None:
        path = os.path.join(REPO_ROOT, f"BENCH_{name}.json")
    record = dict(record)
    history = list(record.pop("history", []))
    prior = _load_prior(path)
    if prior is not None:
        history = list(prior.pop("history", []) or [])
        history.append(prior)
    record["history"] = history[-HISTORY_LIMIT:]
    # Atomic replace (same idiom as the runner's ResultCache): a killed
    # or crashed benchmark can never leave a truncated BENCH file behind
    # — readers see the complete old record or the complete new one.
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(json.dumps(record, indent=2) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # replace failed midway
            try:
                os.unlink(tmp)
            except OSError:
                pass
    return path
