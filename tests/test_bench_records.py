"""Every perf record at the repo root (``BENCH_<change>.json``) parses and
carries the keys that all of them share."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SHARED_KEYS = {"change", "parent_commit", "command", "method", "machine",
               "claim", "digests", "workloads"}


def test_perf_records_are_present():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_perf_record_parses_with_the_shared_keys(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    assert sorted(SHARED_KEYS - record.keys()) == []
