"""Run the repository benchmark.

One workload, in this process (the form ``BENCHMARK.json`` names)::

    python3 bench/run.py --workload batch-decode --seed 0 --seconds 15 --trace 0

Several workloads, each in its own fresh process, one at a time::

    PYTHONPATH=src python -m bench.run [--workload W ...] [--seed S]
        [--trace 0|1] [--json OUT]

Repeat check, two full sets compared against each metric's bound::

    PYTHONPATH=src python -m bench.run --repeat 2

Protocol of one workload: materialize the inputs from ``--seed``; time
set-up (model build, calibration, engine or simulator construction)
several times and keep the median; run an untimed warm-up on a quarter
of the inputs; run timed reps with tracing off until ``--seconds`` have
passed (at least two); read the peak RSS; with ``--trace 1`` run one
traced rep; check the outputs.  Simulated metrics must repeat bit for
bit across reps, or the run fails.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Per-run result files and Chrome traces (git-ignored).
OUT_DIR = ROOT / ".bench_out"

#: One compute thread per workload process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5
MIN_REPS = 2
#: A workload process that has not finished by then is stopped.
CHILD_TIMEOUT_S = 900


def load_spec() -> dict:
    """The benchmark definition, ``BENCHMARK.json``."""
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def parse_args(argv, spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="bench.run", description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed (1 is held out for claims)")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="timed-rep budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced rep and report per-layer "
                             "metrics")
    parser.add_argument("--trace-dir", default=str(OUT_DIR),
                        help="where the traced rep writes its Chrome trace")
    parser.add_argument("--json", dest="json_out",
                        help="write the full result JSON here")
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N full sets and check their spread")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and model, for tests")
    return parser.parse_args(argv)


def _now() -> float:
    return time.perf_counter()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, args) -> dict:
    """Run one workload in this process; returns the full result."""
    from bench.metrics import END_TO_END_UNITS, PER_LAYER_UNITS
    from bench.metrics import per_layer_metrics
    from bench.tracing import Tracer
    from bench.workloads import WORKLOADS, build_context, failed_frac

    workload = WORKLOADS[name](args.seed, smoke=args.smoke)
    setup_s = []
    for _ in range(2 if args.smoke else SETUP_REPEATS):
        start = _now()
        ctx = build_context(args.smoke)
        workload.construct(ctx)
        setup_s.append(_now() - start)
    workload.build_inputs(ctx)
    workload.rep(ctx, workload.warmup_inputs())

    unit_s = []
    # (output digest, simulated metrics) of every rep: must be one value.
    outputs = set()
    rep = None
    start = _now()
    while len(unit_s) < MIN_REPS or _now() - start < args.seconds:
        rep = None
        gc.collect()
        rep = workload.rep(ctx, workload.inputs)
        unit_s.append(rep.unit_s)
        outputs.add((rep.fingerprint, json.dumps(rep.sim, sort_keys=True)))
    peak_rss_mb = _peak_rss_mb()
    rep_s = [sum(units) for units in unit_s]
    # Every rep does identical work, unit for unit, and noise only adds
    # time: the fastest time of each unit, summed, is the rep's host cost.
    host_s = sum(min(times) for times in zip(*unit_s))

    problems = []
    if len({len(units) for units in unit_s}) != 1:
        problems.append("reps ran different numbers of work units")
    result = {
        "workload": name, "loop": workload.loop, "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke, "trace": args.trace,
    }
    if args.trace:
        gc.collect()
        with Tracer() as tracer:
            traced = workload.rep(ctx, workload.inputs)
        outputs.add((traced.fingerprint,
                     json.dumps(traced.sim, sort_keys=True)))
        per_layer = per_layer_metrics(tracer, traced)
        per_layer["host.rep_min_s"] = min(rep_s)
        per_layer["host.rep_median_s"] = statistics.median(rep_s)
        per_layer["host.reps"] = len(rep_s)
        per_layer["trace.overhead_frac"] = (sum(traced.unit_s) / min(rep_s)
                                            - 1.0)
        os.makedirs(args.trace_dir, exist_ok=True)
        trace_path = os.path.join(args.trace_dir,
                                  f"{name}-seed{args.seed}.trace.json")
        tracer.write_chrome_trace(trace_path, {"workload": name,
                                               "seed": args.seed})
        result["trace_file"] = os.path.relpath(trace_path, ROOT)
        result["per_layer"] = {
            key: _metric(value, PER_LAYER_UNITS[key])
            for key, value in per_layer.items()
        }
        del tracer, traced
    if len(outputs) != 1:
        problems.append("simulated outputs differ between reps")

    verdict = workload.verify(ctx, rep)
    problems.extend(verdict.problems)
    end_to_end = {
        "setup_s": statistics.median(setup_s),
        "host_tok_per_s": rep.n_tokens / host_s,
        "peak_rss_mb": peak_rss_mb,
        **rep.sim,
        **verdict.metrics,
        "failed_frac": failed_frac(rep, verdict),
    }
    result.update({
        "correct": not problems,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "problems": problems,
        "host_rep_s": rep_s,
        "host_s": host_s,
        "end_to_end": {
            key: _metric(value, END_TO_END_UNITS[key])
            for key, value in end_to_end.items()
        },
    })
    return result


def _print_result(result: dict) -> None:
    print(f"workload {result['workload']} ({result['loop']}; "
          f"seed {result['seed']}): "
          f"{len(result['host_rep_s'])} timed reps "
          f"({result['host_s']:.3f} s of host work per rep), "
          f"{result['attempted']} outputs checked, "
          f"{result['failed']} failed")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for section in ("end_to_end", "per_layer"):
        for key, metric in result.get(section, {}).items():
            print(f"  {key:<36} {metric['value']:>16.6g} {metric['unit']}")
    if "trace_file" in result:
        print(f"  chrome trace: {result['trace_file']}")


def _summary_line(result: dict, spec: dict) -> dict:
    """The result's last line: the metrics BENCHMARK.json names."""
    section = "per_layer" if result["trace"] else "end_to_end"
    metrics = {m["name"]: result[section][m["name"]] for m in spec[section]}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def _write_json(path, payload) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _worker(args, spec: dict) -> int:
    name = args.workload[0]
    result = run_workload(name, args)
    _print_result(result)
    if args.json_out:
        _write_json(args.json_out, result)
    print(json.dumps(_summary_line(result, spec)), flush=True)
    return 0 if result["correct"] else 1


def _run_set(names, args, tag: str) -> dict:
    """Run each workload in its own fresh process, one at a time."""
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    results = {}
    for name in names:
        out = OUT_DIR / f"{name}-seed{args.seed}-{tag}.json"
        if out.exists():
            out.unlink()
        cmd = [sys.executable, str(ROOT / "bench" / "run.py"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", args.trace_dir, "--json", str(out)]
        if args.smoke:
            cmd.append("--smoke")
        try:
            subprocess.run(cmd, env=env, timeout=CHILD_TIMEOUT_S,
                           check=False)
        except subprocess.TimeoutExpired:
            pass  # run() has killed and reaped it; no result file follows
        if out.exists():
            with open(out) as handle:
                results[name] = json.load(handle)
        else:
            results[name] = {"workload": name, "correct": False,
                             "attempted": 1, "failed": 1,
                             "problems": ["workload process failed"]}
    return results


def _repeat_check(sets: list, spec: dict) -> bool:
    """Print each metric's spread across sets against its bound."""
    from bench.metrics import HOST_METRICS

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    print(f"repeat check over {len(sets)} sets "
          "(simulated metrics must be identical)")
    for name in sets[0]:
        runs = [s[name] for s in sets]
        if not all(r.get("correct") for r in runs):
            print(f"  {name}: a set failed its checks")
            ok = False
            continue
        for key in runs[0]["end_to_end"]:
            values = [r["end_to_end"][key]["value"] for r in runs]
            median = statistics.median(values)
            spread = ((max(values) - min(values)) / abs(median)
                      if median else float(max(values) != min(values)))
            bound = bounds.get(key, 0.0) if key in HOST_METRICS else 0.0
            verdict = "ok" if spread <= bound else "EXCEEDS"
            if key == "setup_s":
                # Set-up is too short to escape a noise burst; only its
                # median over many runs is gated.
                verdict = "reported"
            else:
                ok = ok and spread <= bound
            print(f"  {name:<16} {key:<24} spread {spread:9.3%} "
                  f"bound {bound:6.1%}  {verdict}")
    return ok


def _orchestrate(args, spec: dict) -> int:
    names = args.workload or [w["name"] for w in spec["workloads"]]
    n_sets = max(1, args.repeat)
    sets = [_run_set(names, args, f"set{i}") for i in range(n_sets)]
    ok = all(r["correct"] for s in sets for r in s.values())
    if args.repeat:
        ok = _repeat_check(sets, spec) and ok
    if args.json_out:
        _write_json(args.json_out, {"seed": args.seed, "workloads": sets[0]})
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in sets[0].values()),
        "failed": sum(r["failed"] for r in sets[0].values()),
        "workloads": sorted(sets[0]),
    }), flush=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    args = parse_args(argv, spec)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    if args.workload and len(args.workload) == 1 and not args.repeat:
        return _worker(args, spec)
    return _orchestrate(args, spec)


if __name__ == "__main__":
    sys.exit(main())
