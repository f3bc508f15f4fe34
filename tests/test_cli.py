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
    assert "bench-compute" in out and "warm misses/lookups" in out
    # ffn_norm is looked up only to recompute a missed gate, so a warm
    # pass that misses nothing never looks it up: the line omits it.
    assert "ffn_norm=" not in out
    payload = json.loads(report_path.read_text())
    assert set(payload) == {"config", "differential_audit", "ecr_sweep"}
    for section in ("differential_audit", "ecr_sweep"):
        run = payload[section]
        assert set(run) == {"stages_cold", "stages_warm", "cache"}
        assert run["cache"]["hits"] > 0
        assert run["cache"]["evictions"] == 0
        assert run["stages_warm"]
        assert all(s["misses"] == 0 for s in run["stages_warm"].values())


def test_bench_compute_fails_when_warm_pass_recomputes(
        monkeypatch, tmp_path, capsys):
    # A budget too small to hold the cold pass evicts, so the warm pass
    # misses and the command must fail.
    monkeypatch.setattr("repro.perf.bench.DEFAULT_MAX_BYTES", 4096)
    rc = main(["bench-compute", "--model", "tiny", "--blocks", "4",
               "--seeds", "1", "--input-len", "6", "--output-len", "2",
               "--sweep-len", "6"])
    assert rc == 1
    assert "FAIL: the warm pass recomputed work" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["audit", "--seeds"],
    ["audit", "--input-len"],
    ["audit", "--output-len"],
    ["bench-batch", "--requests"],
    ["bench-batch", "--batch-sizes"],
    ["bench-batch", "--input-len"],
    ["bench-batch", "--output-len"],
    ["bench-compute", "--seeds"],
    ["bench-compute", "--input-len"],
    ["bench-compute", "--output-len"],
    ["bench-compute", "--sweep-len"],
], ids=" ".join)
def test_count_flags_reject_zero(argv):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "0"])
    assert excinfo.value.code == 2


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


def test_scenarios_compare_prints_mismatch_lines(tmp_path, capsys):
    scenario_args = ["scenarios", "run", "mixed-interactive-batch",
                     "--model", "tiny", "--blocks", "4", "--fast"]
    solo_dir = tmp_path / "solo"
    fleet_dir = tmp_path / "fleet"
    assert main([*scenario_args, "--out-dir", str(solo_dir)]) == 0
    assert main([*scenario_args, "--replicas", "2", "--concurrency", "2",
                 "--out-dir", str(fleet_dir)]) == 0
    solo = str(solo_dir / "mixed-interactive-batch.json")
    fleet = str(fleet_dir / "mixed-interactive-batch.json")
    capsys.readouterr()

    assert main(["scenarios", "compare", solo, solo]) == 0
    assert "reports identical" in capsys.readouterr().out

    assert main(["scenarios", "compare", solo, fleet]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("digest: ")
    assert "mode: 'serving' != 'cluster'" in lines
    assert "backend: {'concurrency': 1} != {'concurrency': 2}" in lines
    assert any(line.startswith("summary.") for line in lines)
    assert any(line.startswith("requests[") and "latency_s" in line
               for line in lines)


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
