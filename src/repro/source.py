"""Content hash of the ``repro`` source tree: the code identity of results.

Result caches (:func:`repro.runner.spec.cache_key`) and checkpoint
addresses (:func:`repro.shard.checkpoint.workload_key`) are keyed by the
code that produced them, not by a hand-bumped version string, so editing
any module can never replay a stale cached result or resume a stale
snapshot.  The hash is computed once per process.
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path

__all__ = ["source_hash", "tree_hash"]

#: the installed ``repro`` package directory
PACKAGE_DIR = Path(__file__).resolve().parent


def tree_hash(root: Path) -> str:
    """SHA-256 over every ``*.py`` file under ``root``: relative path and bytes.

    Files are visited in sorted relative-path order, so the hash depends
    only on the tree's content, never on filesystem iteration order or
    the directory's location.
    """
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py"), key=lambda p: p.relative_to(root).as_posix()):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


@functools.cache
def source_hash() -> str:
    """:func:`tree_hash` of the ``repro`` package, cached for the process."""
    return tree_hash(PACKAGE_DIR)
