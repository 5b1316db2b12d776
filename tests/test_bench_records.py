"""Every perf record at the repo root (``BENCH_<change>.json``) parses,
carries the keys that all of them share, and claims, if it claims a gain,
a metric and a workload that ``BENCHMARK.json`` declares."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SHARED_KEYS = {"change", "parent_commit", "command", "method", "machine",
               "claim", "digests", "workloads"}


def test_perf_records_are_present():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_perf_record_parses_with_the_shared_keys(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    assert sorted(SHARED_KEYS - record.keys()) == []


def claim_errors(claim, benchmark) -> list[str]:
    """What is wrong with a record's ``claim``: None claims nothing; a
    claim must name an end-to-end metric and a workload of
    ``benchmark``."""
    if claim is None:
        return []
    if not isinstance(claim, dict):
        return [f"claim is not an object: {claim!r}"]
    metrics = {m["name"] for m in benchmark["end_to_end"]}
    workloads = {w["name"] for w in benchmark["workloads"]}
    errors = []
    if claim.get("metric") not in metrics:
        errors.append(f"unknown metric {claim.get('metric')!r}")
    if claim.get("workload") not in workloads:
        errors.append(f"unknown workload {claim.get('workload')!r}")
    return errors


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_perf_record_claims_a_declared_metric_and_workload(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert claim_errors(record["claim"], BENCHMARK) == []


def test_claim_check_refuses_a_mistyped_claim():
    assert claim_errors(None, BENCHMARK) == []
    good = {"metric": "train_sps.dql", "workload": "train_sparse"}
    assert claim_errors(good, BENCHMARK) == []
    assert claim_errors({**good, "metric": "train_sps.dqn"}, BENCHMARK) == [
        "unknown metric 'train_sps.dqn'"]
    assert claim_errors({**good, "workload": "train_dense"}, BENCHMARK) == [
        "unknown workload 'train_dense'"]
    assert claim_errors("train_sps.dql", BENCHMARK) == [
        "claim is not an object: 'train_sps.dql'"]
