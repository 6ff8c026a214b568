"""The shared benchmark record writer is crash-safe and schema-checked.

``benchmarks/_record.py`` is a script-side helper (the ``benchmarks/``
directory is not a package), so it is loaded here by file path.  The
load-bearing regression: :func:`write_bench` must replace the committed
``BENCH_*.json`` atomically — a write that dies mid-serialization leaves
the prior record byte-identical and no ``.tmp.*`` litter behind.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_RECORD_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "_record.py"


@pytest.fixture(scope="module")
def record_mod():
    spec = importlib.util.spec_from_file_location("bench_record", _RECORD_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _record(record_mod, **extra):
    return record_mod.bench_record(
        config={"n": 1}, legs={"a": {"wall_clock_s": 0.5}},
        digest={"run_digest": "d"}, speedup=1.0, **extra,
    )


def test_write_then_rewrite_shifts_history(record_mod, tmp_path):
    path = str(tmp_path / "BENCH_x.json")
    record_mod.write_bench("x", _record(record_mod, cpu_count=2), path=path)
    record_mod.write_bench("x", _record(record_mod, cpu_count=4), path=path)
    got = json.loads(Path(path).read_text())
    assert got["cpu_count"] == 4
    assert len(got["history"]) == 1
    assert got["history"][0]["cpu_count"] == 2
    assert "history" not in got["history"][0]  # no nesting


def test_failed_write_leaves_prior_record_intact(record_mod, tmp_path):
    """An unserializable record cannot clobber the committed file."""
    path = tmp_path / "BENCH_x.json"
    record_mod.write_bench("x", _record(record_mod), path=str(path))
    before = path.read_text()
    poisoned = _record(record_mod, bad=object())  # json.dumps raises
    with pytest.raises(TypeError):
        record_mod.write_bench("x", poisoned, path=str(path))
    assert path.read_text() == before  # old record untouched
    assert list(tmp_path.glob("*.tmp.*")) == []  # no temp litter


def test_missing_schema_key_is_rejected(record_mod, tmp_path):
    rec = _record(record_mod)
    del rec["digest"]
    with pytest.raises(ValueError, match="digest"):
        record_mod.write_bench("x", rec, path=str(tmp_path / "b.json"))


def test_record_carries_host_fingerprint(record_mod):
    host = _record(record_mod)["host"]
    assert set(host) == {"cpu_model", "cpu_count", "python", "numpy", "git_sha"}
    assert host["cpu_count"] >= 1
    assert host["python"].count(".") == 2
