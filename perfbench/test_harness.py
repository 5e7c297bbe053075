"""Tests of the benchmark's own harness, on inputs small enough for the test suite.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

import child
import run
import workloads
from workloads import WORKLOADS, Stream, Sweep

ROOT = Path(__file__).resolve().parent.parent
SMALL = {
    "sweep": Sweep(ks=(2, 3, 4), level="marcus", jobs=1),
    "stream": Stream(k=2, level="marcus", sum_cap=8),
}


@pytest.fixture(scope="module")
def api():
    return child.load_api()


def test_corrupted_golden_digest_is_caught(api):
    golden, _ = workloads.run(api, SMALL["stream"], 0, workloads.Checks())
    assert child.measure(api, SMALL["stream"], 0, golden)["failed"] == 0

    digest = golden["sha256"]
    corrupted = dict(golden, sha256=digest[:-1] + ("1" if digest[-1] == "0" else "0"))
    sample = child.measure(api, SMALL["stream"], 0, corrupted)
    assert sample["failed"] == 1
    assert sample["failures"][0].startswith("sha256:")


def test_golden_file_covers_every_workload():
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    assert set(golden) == set(WORKLOADS)
    assert sorted(golden["delta3-marcus"], key=int) == [str(k) for k in WORKLOADS["delta3-marcus"].ks]


def test_metric_names_match_benchmark_json(api):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert run.END_TO_END_UNITS == declared_e2e
    assert run.PER_LAYER_UNITS == declared_layer

    for small in SMALL.values():
        plain = child.measure(api, small, 1, {})
        traced, _ = child.measure_traced(api, small, 1, {}, "test")
        assert set(run.end_to_end([plain], [0.1])) == set(declared_e2e)
        assert set(run.per_layer(traced, plain, plain, small.jobs)) == set(declared_layer)


def test_exact_counts_repeat(api):
    counts = ("nodes", "evaluated", "shards", "shard_leaves_max", "pair_canonical_calls",
              "pair_canonical_accepts", "canonical_form_calls", "count_cofacets_calls", "oracle_calls")
    for small in SMALL.values():
        runs = []
        for seed in (1, 2):
            sample, tracer = child.measure_traced(api, small, seed, {}, "test")
            assert sample["failed"] == 0
            runs.append({name: sample["layers"][name] for name in counts})
            runs[-1]["shard_records"] = sorted(s[:6] for s in tracer.shards)
        assert runs[0] == runs[1]
        assert runs[0]["nodes"] > 0 and runs[0]["pair_canonical_calls"] > 0
