"""CLI integration tests (all on the tiny model for speed)."""

import json

import pytest

from repro.cli import build_parser, main

TINY = ["--model", "tiny", "--blocks", "4", "--ecr", "0.5"]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_info(capsys):
    assert main(["info", *TINY]) == 0
    out = capsys.readouterr().out
    assert "Tiny-MoE" in out
    assert "expert upload" in out


def test_speed(capsys):
    rc = main(["speed", *TINY, "--engines", "fiddler", "daop",
               "--input-len", "12", "--output-len", "6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fiddler" in out and "daop" in out
    assert "tok/s" in out and "tok/kJ" in out


def test_speed_rejects_unknown_engine():
    with pytest.raises(SystemExit):
        main(["speed", *TINY, "--engines", "vllm"])


def test_accuracy(capsys):
    rc = main(["accuracy", *TINY, "--task", "piqa", "--samples", "2",
               "--engines", "daop"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "official" in out
    assert "piqa" in out


def test_observe(capsys):
    rc = main(["observe", *TINY, "--dataset", "c4", "--sequences", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "similarity" in out


def test_serve(capsys):
    rc = main(["serve", *TINY, "--engines", "daop", "--requests", "2",
               "--rate", "1.0", "--input-len", "10", "--output-len", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "TTFT p50" in out


def test_bench_batch(tmp_path, capsys):
    report_path = tmp_path / "bench.json"
    rc = main(["bench-batch", *TINY, "--engines", "daop", "--requests",
               "3", "--batch-sizes", "1", "3", "--input-len", "10",
               "--output-len", "4", "--json", str(report_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bench-batch" in out and "overlap" in out
    payload = json.loads(report_path.read_text())
    # One run per batch size.
    assert len(payload["runs"]) == 2
    by_batch = {r["max_batch"]: r for r in payload["runs"]}
    batched = by_batch[3]
    # Acceptance: batched makespan undercuts the summed service spans.
    assert batched["makespan_s"] < batched["sum_solo_makespans_s"]
    assert batched["overlap_ratio"] > 0
    # Gathered cohorts amortize expert kernels across sequences; a
    # cohort of one has nothing to amortize.
    assert batched["n_expert_kernels"] < batched["n_expert_ops"]
    assert by_batch[1]["n_expert_kernels"] == by_batch[1]["n_expert_ops"]
    # The comparison is gathered@3 against max_batch=1.
    assert [(c["engine"], c["max_batch"]) for c in payload["comparison"]] \
        == [("daop", 3)]
    comparison = payload["comparison"][0]
    assert comparison["batch1_tokens_per_s"] \
        == by_batch[1]["throughput_tokens_per_s"]
    assert comparison["gathered_speedup"] > 1.0


def test_trace_with_chrome_export(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    rc = main(["trace", *TINY, "--engine", "daop", "--input-len", "10",
               "--output-len", "4", "--output", str(trace_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "makespan" in out
    payload = json.loads(trace_path.read_text())
    assert payload["traceEvents"]


def test_trace_without_export(capsys):
    rc = main(["trace", *TINY, "--engine", "fiddler", "--input-len", "10",
               "--output-len", "4"])
    assert rc == 0
    assert "critical path" in capsys.readouterr().out


def test_serve_cluster(tmp_path, capsys):
    report_path = tmp_path / "cluster.json"
    rc = main(["serve-cluster", *TINY, "--replicas", "2", "--requests", "4",
               "--rate", "1.0", "--input-len", "10", "--output-len", "4",
               "--json", str(report_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "round-robin" in out and "cache-affinity" in out
    assert "goodput" in out
    payload = json.loads(report_path.read_text())
    assert payload["summary"]["served"] >= 1
    assert payload["n_replicas"] == 2


def test_serve_cluster_rejects_unknown_policy():
    with pytest.raises(SystemExit):
        main(["serve-cluster", *TINY, "--policies", "random"])


def test_audit(capsys):
    rc = main(["audit", *TINY, "--engines", "fiddler", "daop",
               "--seeds", "2", "--input-len", "10", "--output-len", "6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "audit vs official" in out
    assert "fiddler" in out and "daop" in out
    assert "audit ok" in out


def test_audit_rejects_unknown_engine():
    with pytest.raises(SystemExit):
        main(["audit", *TINY, "--engines", "vllm"])


def test_bench_compute(tmp_path, capsys):
    report_path = tmp_path / "bench_compute.json"
    rc = main(["bench-compute", "--model", "tiny", "--blocks", "4",
               "--seeds", "1", "--input-len", "10", "--output-len", "4",
               "--sweep-len", "10", "--json", str(report_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bench-compute" in out and "speedup" in out
    payload = json.loads(report_path.read_text())
    for section in ("differential_audit", "ecr_sweep"):
        run = payload[section]
        assert run["cold_s"] > 0 and run["warm_s"] > 0
        assert run["speedup"] == pytest.approx(
            run["cold_s"] / run["warm_s"]
        )
        assert run["cache"]["hits"] > 0
        assert run["stages_warm"]  # per-stage hit rates recorded
    assert set(payload["criteria"]) == {
        "audit_warm_speedup_ge_2x", "sweep_warm_speedup_ge_2x",
    }


def test_audit_cache_disabled(capsys):
    rc = main(["audit", *TINY, "--engines", "fiddler", "--seeds", "1",
               "--input-len", "10", "--output-len", "4", "--cache-mb", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "audit ok" in out
    assert "compute cache" not in out


def test_watch(tmp_path, capsys):
    log_path = tmp_path / "events.jsonl"
    rc = main(["watch", *TINY, "--engine", "daop", "--requests", "2",
               "--rate", "1.0", "--input-len", "10", "--output-len", "4",
               "--jsonl", str(log_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sequence_start" in out and "sequence_finish" in out
    assert "watched 2 request(s)" in out
    lines = log_path.read_text().splitlines()
    assert lines
    kinds = {json.loads(line)["kind"] for line in lines}
    assert "engine_step" in kinds


def test_watch_kind_filter(capsys):
    rc = main(["watch", *TINY, "--engine", "fiddler", "--requests", "1",
               "--rate", "1.0", "--input-len", "10", "--output-len", "4",
               "--kinds", "sequence_finish"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sequence_finish" in out
    assert "engine_step" not in out


def test_perf_delta_gate(tmp_path, capsys):
    baseline = {
        "runs": [{"engine": "daop", "max_batch": 4, "mode": "gathered",
                  "throughput_tokens_per_s": 100.0}],
        "comparison": [],
    }
    base_path = tmp_path / "base.json"
    base_path.write_text(json.dumps(baseline))

    assert main(["perf-delta", str(base_path), str(base_path)]) == 0
    assert "-> ok" in capsys.readouterr().out

    degraded = json.loads(base_path.read_text())
    degraded["runs"][0]["throughput_tokens_per_s"] = 80.0
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(degraded))
    assert main(["perf-delta", str(base_path), str(bad_path)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "FAIL" in out

    # A looser threshold lets the same candidate through.
    assert main(["perf-delta", str(base_path), str(bad_path),
                 "--threshold", "0.5"]) == 0


def test_perf_delta_unreadable_input(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"runs": [], "comparison": []}))
    assert main(["perf-delta", str(good), str(missing)]) == 2
    assert "perf-delta error:" in capsys.readouterr().out


def test_scenarios_pause_resume_round_trip(tmp_path, capsys):
    scenario_args = ["scenarios", "run", "mixed-interactive-batch",
                     "--model", "tiny", "--blocks", "4", "--fast"]
    ref_dir = tmp_path / "ref"
    res_dir = tmp_path / "res"
    ckpt = tmp_path / "scenario.ckpt.json"

    assert main([*scenario_args, "--out-dir", str(ref_dir)]) == 0
    rc = main([*scenario_args, "--pause-after", "2",
               "--checkpoint-to", str(ckpt)])
    assert rc == 0
    assert "paused after 2 tick(s)" in capsys.readouterr().out
    assert ckpt.exists()
    assert main([*scenario_args, "--resume-from", str(ckpt),
                 "--out-dir", str(res_dir)]) == 0

    reference = json.loads(
        (ref_dir / "mixed-interactive-batch.json").read_text())
    resumed = json.loads(
        (res_dir / "mixed-interactive-batch.json").read_text())
    assert resumed["digest"] == reference["digest"]


def test_scenarios_lifecycle_flag_validation(capsys):
    rc = main(["scenarios", "run", "mixed-interactive-batch",
               "--model", "tiny", "--blocks", "4", "--fast",
               "--pause-after", "2"])
    assert rc == 2
    assert "--checkpoint-to" in capsys.readouterr().out
    rc = main(["scenarios", "run", "--all", "--model", "tiny",
               "--blocks", "4", "--fast", "--pause-after", "2",
               "--checkpoint-to", "/tmp/x.json"])
    assert rc == 2
