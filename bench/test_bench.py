"""Tests of the benchmark itself, at smoke size.

Run with ``PYTHONPATH=src python -m pytest bench -q``.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

from bench.metrics import (
    END_TO_END_UNITS,
    HOST_METRICS,
    NAME_RE,
    PER_LAYER_UNITS,
    latency_metrics,
    tail_supported,
)
from bench.run import ROOT, load_spec
from bench.workloads import WORKLOADS, build_context, failed_frac

UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def smoke_sets(tmp_path_factory):
    """Two traced smoke sets of every workload, each in fresh processes."""
    sets = []
    for i in range(2):
        out = tmp_path_factory.mktemp("smoke") / f"set{i}.json"
        proc = _run("--smoke", "--seconds", "0", "--trace", "1",
                    "--json", str(out))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        with open(out) as handle:
            sets.append(json.load(handle)["workloads"])
    return sets


def test_names_follow_the_grammar():
    spec = load_spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for name in names + list(END_TO_END_UNITS) + list(PER_LAYER_UNITS):
        assert NAME_RE.fullmatch(name), name
    for metric in metrics:
        assert UNIT_RE.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_spec_matches_emitted_metrics(smoke_sets):
    spec = load_spec()
    results = smoke_sets[0]
    assert sorted(results) == sorted(w["name"] for w in spec["workloads"])
    assert sorted(results) == sorted(WORKLOADS)
    common = set.intersection(*(set(r["end_to_end"])
                                for r in results.values()))
    # failed_frac reads 0 when all is well and a gated metric must never
    # read 0; failed output checks reach the result line as ``failed``.
    assert {m["name"] for m in spec["end_to_end"]} \
        == common - {"failed_frac"}
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER_UNITS)
    for result in results.values():
        assert result["correct"], result["problems"]
        assert set(result["per_layer"]) == set(PER_LAYER_UNITS)
        for metric in spec["end_to_end"]:
            emitted = result["end_to_end"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            assert emitted["value"] > 0
        for metric in spec["per_layer"]:
            assert result["per_layer"][metric["name"]]["unit"] \
                == metric["unit"]


def test_wrapped_layers_that_run_record_spans(smoke_sets):
    for name, result in smoke_sets[0].items():
        layer = result["per_layer"]
        assert layer["model.calls"]["value"] > 0
        assert layer["hardware.ops"]["value"] > 0
        assert layer["core.steps"]["value"] > 0
        if name == "paper-b1-sweep":
            assert layer["perf.lookups"]["value"] > 0
        else:
            assert layer["sched.ticks"]["value"] > 0
        if name == "cluster-slo":
            assert layer["cluster.events"]["value"] > 0
        assert (ROOT / result["trace_file"]).exists()


def test_simulated_metrics_repeat_exactly(smoke_sets):
    first, second = smoke_sets
    for name in first:
        for key, metric in first[name]["end_to_end"].items():
            if key not in HOST_METRICS:
                assert second[name]["end_to_end"][key] == metric, key


def test_last_line_is_the_json_result():
    proc = _run("--workload", "batch-prefill", "--smoke", "--seconds", "0",
                "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1
    assert line["failed"] == 0
    assert list(line["metrics"]) == [m["name"]
                                     for m in load_spec()["end_to_end"]]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "batch-decode",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_p90_needs_ten_samples_beyond_it():
    assert not tail_supported(99, 90)
    assert tail_supported(100, 90)
    assert "sim_ttft_p90_s" not in latency_metrics([1.0] * 99, [1.0] * 99)
    both = latency_metrics(list(range(100)), list(range(100)))
    assert both["sim_ttft_p90_s"] == pytest.approx(89.1)
    assert "sim_tpot_p90_s" in both
    refused = latency_metrics([1.0] * 80 + [math.inf] * 20, [1.0] * 100)
    assert "sim_ttft_p90_s" not in refused


@pytest.mark.parametrize("name", ["batch-decode", "paper-b1-sweep"])
def test_planted_token_corruption_raises_failed_frac(name):
    workload = WORKLOADS[name](seed=0, smoke=True)
    ctx = build_context(smoke=True)
    workload.build_inputs(ctx)
    rep = workload.rep(ctx, workload.inputs)
    clean = workload.verify(ctx, rep)
    assert clean.failed == 0 and failed_frac(rep, clean) == 0.0
    if name == "batch-decode":
        tokens = rep.outputs.records[0].result.tokens
    else:
        tokens = next(r.tokens for engine, *_, r in rep.outputs
                      if engine == "fiddler")
    tokens[0] += 1
    planted = workload.verify(ctx, rep)
    assert planted.failed == 1
    assert failed_frac(rep, planted) > 0.0
