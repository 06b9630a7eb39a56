#!/usr/bin/env python3
"""End-to-end RUSH benchmark: build bench_e2e, run workloads, print metrics.

One run, the interface BENCHMARK.json names (the last stdout line is the
JSON result; exit status 1 when any op failed):

    python3 bench/e2e/run.py --workload trials --seed 42 --seconds 20 --trace 0

Several runs, summarized per metric as median and quartiles:

    python3 bench/e2e/run.py --workload all --seed 42,1,2 [--trace 1]

--trace 1 reports the per-layer metrics instead of the end-to-end ones and
keeps the spans and the metrics-registry snapshot beside the raw results
in build-bench-e2e/results/. README.md defines every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-bench-e2e"
RESULTS = BUILD / "results"
BINARY = BUILD / "bench_e2e"
WORKLOADS = ["pipeline", "trials", "faults", "collect"]


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(jobs):
    """Configure (a no-op when cached) and rebuild whatever is stale."""
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD)],
                ["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", str(jobs)]):
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def ratio(num, den):
    return num / den if den else 0.0


# --- metrics ---------------------------------------------------------------


def end_to_end(raw):
    ops = raw["ops"]
    # Simulated days per wall hour of one op, times the callers running
    # ops side by side. A median, like op_p50_ms: a window holds only a
    # few pipeline rounds, and some corpora make the CV stop early.
    days_per_hour = [(op["sim_s"] / 86400.0) / (op["ms"] / 3.6e6) for op in ops]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "op_p50_ms": statistics.median(op["ms"] for op in ops),
        "sim_days_per_hour": raw["clients"] * statistics.median(days_per_hour),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


LAYER_OF = {
    "core.collect": "core.collect",
    "core.corpus_csv.write": "core.corpus_csv",
    "core.corpus_csv.read": "core.corpus_csv",
    "core.label": "core.label",
    "ml.cv": "ml.cv",
    "ml.fit": "ml.fit",
    "core.trials": "core.trial",
    "core.trial.fcfs": "core.trial",
    "core.trial.rush": "core.trial",
}


def per_layer(raw, spans):
    plain, ops = raw["ops"], raw["traced_ops"]
    spans = [s for s in spans if s["op"] >= 0]  # set-up is not timed
    dur = {s["id"]: s["end_s"] - s["start_s"] for s in spans}
    roots = {s["id"] for s in spans if s["parent"] < 0}
    root_time = sum(dur[i] for i in roots)
    # An op's span tiles into its direct children, one per layer call.
    layer_time = {}
    for s in spans:
        if s["parent"] in roots:
            layer = LAYER_OF[s["name"]]
            layer_time[layer] = layer_time.get(layer, 0.0) + dur[s["id"]]

    def named(name):
        return [dur[s["id"]] for s in spans if s["name"] == name]

    fcfs, rush = named("core.trial.fcfs"), named("core.trial.rush")
    # Each op ran both ways back to back on the same inputs.
    plain_ms = sum(op["ms"] for op in plain)
    traced_ms = sum(op["ms"] for op in ops)

    reg = raw["registry"]
    counters, hists = reg["counters"], reg["histograms"]
    trials = sum(op["trials"] for op in ops)
    evaluations = sum(op["oracle_evaluations"] for op in ops)

    def count(name):
        return counters.get(name, 0)

    def per_trial(value):
        return ratio(value, trials)

    depth = hists.get("sched.queue_depth", {})
    metrics = {
        f"{layer}.share_pct": 100.0 * ratio(layer_time.get(layer, 0.0), root_time)
        for layer in sorted(set(LAYER_OF.values()))
    }
    metrics.update({
        "trace.span_coverage_pct": 100.0 * ratio(sum(layer_time.values()), root_time),
        "trace_overhead_pct": 100.0 * (ratio(traced_ms, plain_ms) - 1.0),
        "op_p95_ms": statistics.quantiles([op["ms"] for op in plain], n=20,
                                          method="inclusive")[18],
        "common.task_pool.cpu_util_pct": 100.0 * raw["cpu_s"] / (raw["wall_s"] * raw["jobs"]),
        "core.collect.samples_per_s":
            ratio(sum(op["samples"] for op in ops), sum(named("core.collect"))),
        "core.corpus_csv.bytes_per_op": ratio(sum(op["csv_bytes"] for op in ops), len(ops)),
        "core.trial.rush_over_fcfs_pct":
            100.0 * (ratio(statistics.mean(rush), statistics.mean(fcfs)) - 1.0)
            if fcfs and rush else 0.0,
        "sim.engine.events_per_trial": per_trial(count("engine.events_executed")),
        "sim.engine.cancel_ratio":
            ratio(count("engine.events_cancelled"), count("engine.events_executed")),
        "cluster.net.probe_calls_per_trial": per_trial(count("net.probe_calls")),
        "telemetry.frames_per_trial":
            per_trial(hists.get("telemetry.max_link_util", {}).get("count", 0)),
        "sched.passes_per_trial": per_trial(count("sched.passes")),
        "sched.backfills_per_trial": per_trial(count("sched.backfills")),
        "sched.skips_per_trial": per_trial(count("sched.skips")),
        "sched.queue_depth.p50": depth.get("p50", 0.0),
        "sched.queue_depth.p99": depth.get("p99", 0.0),
        "core.oracle.evaluations_per_trial": per_trial(evaluations),
        "core.oracle.fallback_ratio":
            ratio(sum(op["oracle_fallbacks"] for op in ops), evaluations),
        "sched.fault_requeues_per_trial": per_trial(sum(op["fault_requeues"] for op in ops)),
        "faults.events_per_trial": per_trial(sum(
            v for k, v in counters.items()
            if k.startswith("faults.") and not k.startswith("faults.frames_"))),
        "faults.frames_per_trial":
            per_trial(count("faults.frames_dropped") + count("faults.frames_corrupted")),
    })
    return metrics


# --- one run ---------------------------------------------------------------


def check(raw, expected):
    """Returns (attempted, failed, problems). Ops fail on an error the
    binary reported, on a digest that differs from expected.json, or on a
    digest that differs between the untraced and traced execution."""
    problems = []
    golden = expected.get(raw["workload"], {}).get(str(raw["seed"]), {})
    setup = set(raw["setup_digests"])
    if len(setup) != 1:
        problems.append("set-up is not deterministic: digests " + ", ".join(sorted(setup)))
    elif "setup" in golden and golden["setup"] not in setup:
        problems.append(f"set-up digest {setup.pop()} != expected {golden['setup']}")
    golden_ops = golden.get("ops", [])
    plain = {op["i"]: op["digest"] for op in raw["ops"]}
    attempted = failed = 0
    for op in raw["ops"] + raw.get("traced_ops", []):
        attempted += 1
        i, why = op["i"], op["error"]
        if not why and i < len(golden_ops) and op["digest"] != golden_ops[i]:
            why = f"digest {op['digest']} != expected {golden_ops[i]}"
        if not why and op["digest"] != plain[i]:
            why = f"traced digest {op['digest']} != untraced {plain[i]}"
        if why:
            failed += 1
            problems.append(f"op {i}: {why}")
    return attempted, failed, problems


def run_once(args, workload, seed, expected, spec):
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{workload}-s{seed}{'-traced' if args.trace else ''}"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--jobs", str(args.jobs),
           "--faults", str(HERE / "fault_plan.json")]
    if args.trace:
        cmd += ["--trace", f"{stem}.spans.jsonl"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        problem = f"bench_e2e exited with {proc.returncode}"
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, [problem]
    (stem.parent / f"{stem.name}.raw.json").write_text(lines[-1] + "\n")
    raw = json.loads(lines[-1])
    # Recording replaces the old digests, so it checks everything else.
    attempted, failed, problems = check(raw, {} if args.write_expected else expected)
    if args.trace:
        (stem.parent / f"{stem.name}.registry.json").write_text(
            json.dumps(raw["registry"], indent=1, sort_keys=True) + "\n")
        with open(f"{stem}.spans.jsonl") as f:
            values = per_layer(raw, [json.loads(line) for line in f])
        wanted = spec["per_layer"]
    else:
        values = end_to_end(raw)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.write_expected and not problems:
        expected.setdefault(workload, {})[str(seed)] = {
            "setup": raw["setup_digests"][0],
            "ops": [op["digest"] for op in raw["ops"][:raw["min_ops"]]],
        }
    return result, problems


def summarize(runs, spec, trace):
    """Median and quartiles of every metric across runs, per workload."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload, results in runs.items():
        print(f"\n{workload}: {len(results)} runs")
        print(f"  {'metric':36} {'unit':>8} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8}")
        summary[workload] = {}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                           else [values[0]] * 3)
            spread = ratio(q3 - q1, abs(med))
            bound = bounds.get(name)
            mark = " !" if bound and not trace and name != "setup_s" and spread > bound / 3 else ""
            print(f"  {name:36} {first['unit']:>8} {med:14.6g} {q1:14.6g} {q3:14.6g}"
                  f" {100 * spread:7.2f}%{mark}")
            summary[workload][name] = {"unit": first["unit"], "median": med, "q1": q1,
                                       "q3": q3, "n": len(values)}
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all",
                    help="one of %s, a comma list, or 'all'" % ", ".join(WORKLOADS))
    ap.add_argument("--seed", default="42", help="seed, or a comma list of seeds")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured window per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--jobs", type=int, default=2, help="pool workers (at most nproc)")
    ap.add_argument("--expected", default=str(HERE / "expected.json"),
                    help="expected output digests per workload and seed")
    ap.add_argument("--write-expected", action="store_true",
                    help="record this run's digests into --expected")
    ap.add_argument("--out", help="write the multi-run summary as JSON here")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    cores = len(os.sched_getaffinity(0))
    if not 1 <= args.jobs <= cores:
        fail(f"--jobs {args.jobs} is outside 1..{cores} (nproc)")
    workloads = WORKLOADS if args.workload == "all" else args.workload.split(",")
    for w in workloads:
        if w not in WORKLOADS:
            fail(f"unknown workload {w!r}")
    try:
        seeds = [int(s) for s in args.seed.split(",")]
    except ValueError:
        fail(f"bad --seed {args.seed!r}")
    expected_path = Path(args.expected)
    expected = json.loads(expected_path.read_text()) if expected_path.exists() else {}

    build(min(cores, 4))
    runs = {w: [] for w in workloads}
    any_failed = False
    for w in workloads:
        for seed in seeds:
            result, problems = run_once(args, w, seed, expected, spec)
            runs[w].append(result)
            any_failed |= bool(problems)
            print(f"{w} seed={seed}: {result['attempted']} ops, {result['failed']} failed")
            for p in problems:
                print(f"  FAIL {p}")
            for name, m in result["metrics"].items():
                print(f"  {name:36} {m['value']:16.6f} {m['unit']}")
    if args.write_expected:
        expected_path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    if len(workloads) * len(seeds) > 1:
        summary = summarize(runs, spec, args.trace)
        if args.out:
            # Untraced and traced summaries share one file, one key each.
            out = Path(args.out)
            data = json.loads(out.read_text()) if out.exists() else {}
            data.update({"nproc": cores, "jobs": args.jobs, "seconds": args.seconds,
                         "per_layer" if args.trace else "end_to_end":
                             {"seeds": seeds, "workloads": summary}})
            out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    else:
        print(json.dumps(runs[workloads[0]][0]))
    sys.exit(1 if any_failed else 0)


if __name__ == "__main__":
    main()
