"""Spread statistics, the host fingerprint and the report history."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Optional, Sequence


def spread(values: Sequence[float]) -> dict:
    """min, quartiles, median, max and the sample count of ``values``.

    ``tail`` is the highest whole percentile that still has at least ten
    samples beyond it (``None`` below 11 samples), with ``tail_pct``.
    """
    xs = sorted(float(v) for v in values)
    n = len(xs)
    if n == 0:
        return {"n": 0}
    if n == 1:
        q1 = med = q3 = xs[0]
    else:
        q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    out = {"n": n, "min": xs[0], "q1": q1, "median": med, "q3": q3, "max": xs[-1],
           "tail_pct": None, "tail": None}
    if n >= 11:
        pct = math.floor(100.0 * (n - 10) / n)
        k = max(0, math.ceil(pct / 100.0 * n) - 1)
        out["tail_pct"], out["tail"] = pct, xs[k]
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> Optional[str]:
    """HEAD of the checkout, or ``None`` outside a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def source_hash(src: Path) -> str:
    """SHA-256 over the program's Python sources (path and content)."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def fingerprint(root: Path) -> dict:
    """Host and build identity a report is only comparable within."""
    import numpy
    import scipy

    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
        "src_sha256": source_hash(root / "src"),
    }


def host_key(fp: dict) -> tuple:
    """The part of a fingerprint that decides comparability."""
    return (fp["cpu_model"], fp["cpu_count"], fp["python"], fp["numpy"], fp["scipy"])


#: report fields that must be equal for two runs to be compared
_RUN_KEYS = ("workload", "trace", "tiny", "seconds")


def history_lines(history: Path, report: dict) -> list[str]:
    """Compare ``report`` with earlier ones of the same host, workload,
    size and run length.

    Reports from another host are counted and labelled, never compared.
    The report is then appended to the history file.
    """
    same, other = [], 0
    if history.exists():
        for line in history.read_text().splitlines():
            try:
                old = json.loads(line)
            except json.JSONDecodeError:
                continue
            if any(old.get(k) != report[k] for k in _RUN_KEYS):
                continue
            if tuple(host_key(old["fingerprint"])) == host_key(report["fingerprint"]):
                same.append(old)
            else:
                other += 1
    lines = []
    if same:
        for name, cur in report["metrics"].items():
            prev = [o["metrics"][name]["value"] for o in same if name in o.get("metrics", {})]
            if prev:
                lines.append(
                    f"  history {name}: this run {cur['value']:.6g}, median of "
                    f"{len(prev)} earlier same-host runs {statistics.median(prev):.6g}"
                )
    if other:
        lines.append(f"  history: {other} earlier report(s) from another host "
                     "(different fingerprint; not compared)")
    history.parent.mkdir(parents=True, exist_ok=True)
    with history.open("a") as fh:
        fh.write(json.dumps(report, sort_keys=True) + "\n")
    return lines
