#!/usr/bin/env python3
"""Perf-baseline harness: run the micro-benchmarks, write BENCH_micro.json.

Runs the google-benchmark binaries (bench_micro_network,
bench_micro_telemetry, bench_micro_pool, bench_micro_ml,
bench_micro_sched, and bench_micro_engine by default) from a release
build tree and distills
their JSON output into one machine-readable file at the repo root:

    {
      "schema": 1,
      "quick": false,
      "benchmarks": {
        "bench_micro_network/BM_NetworkChurnIncremental": {
          "ns_per_op": 812.4, "items_per_second": 1231000.0
        },
        ...
      },
      "derived": { "network_churn_speedup": 123.4 }
    }

`ns_per_op` is google-benchmark cpu_time normalized to nanoseconds.
`network_churn_speedup` is BM_NetworkChurnFullRebuild /
BM_NetworkChurnIncremental — the incremental-engine headline number
(>= 5x is the PR 2 acceptance floor). `trial_parallel_speedup` is
derived only when the host has at least as many cores as the wide pool
(BM_PoolScaling/4); on a smaller host it is omitted and the run says why.
These are the only two derived ratios; every other entry is an absolute
measurement.

Usage:
    tools/bench_baseline.py [--quick] [--build-dir DIR] [--output FILE]
        [--fail-on-regress KEY:PCT ...]

--quick caps each benchmark's measuring time (CI smoke); full runs use
google-benchmark's default timing.

--fail-on-regress guards a benchmark against regression: before the
output file is overwritten, the freshly-measured ns_per_op of KEY (e.g.
"bench_micro_ml/BM_ForestPredict") is compared against the committed
value; the run fails if it regressed by more than PCT percent. Keys
absent from either side are skipped (first baseline runs stay green).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BENCHES = ["bench_micro_network", "bench_micro_telemetry", "bench_micro_pool",
                   "bench_micro_ml", "bench_micro_sched", "bench_micro_engine"]
TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

SPEEDUP_NUMERATOR = "bench_micro_network/BM_NetworkChurnFullRebuild"
SPEEDUP_DENOMINATOR = "bench_micro_network/BM_NetworkChurnIncremental"

# Fixed work over 10 trial-shaped tasks at pool widths 1 and 4; the ratio
# is the expected trial fan-out speedup on this host (~= min(4, cores)).
# On a host with fewer cores than the wide pool the ratio measures only
# dispatch overhead, so it is not derived there.
POOL_SCALING_SERIAL = "bench_micro_pool/BM_PoolScaling/1"
POOL_SCALING_WIDE = "bench_micro_pool/BM_PoolScaling/4"
POOL_SCALING_WIDTH = int(POOL_SCALING_WIDE.rsplit("/", 1)[1])


def find_build_dir(explicit: str | None) -> Path:
    if explicit:
        d = Path(explicit)
        if not d.is_absolute():
            d = REPO_ROOT / d
        if not d.is_dir():
            sys.exit(f"error: build dir {d} does not exist")
        return d
    for name in ("build-release", "build"):
        d = REPO_ROOT / name
        if d.is_dir():
            return d
    sys.exit("error: no build tree found (looked for build-release/, build/); "
             "pass --build-dir")


def find_binary(build_dir: Path, name: str) -> Path | None:
    for candidate in (build_dir / "bench" / name, build_dir / name):
        if candidate.is_file():
            return candidate
    hits = sorted(build_dir.rglob(name))
    return hits[0] if hits else None


def run_bench(binary: Path, quick: bool) -> dict:
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = Path(tmp.name)
    cmd = [str(binary), f"--benchmark_out={out_path}", "--benchmark_out_format=json"]
    if quick:
        # Newer google-benchmark requires the unit suffix; older builds
        # accept the bare float. Try the suffixed form first.
        for arg in ("--benchmark_min_time=0.05s", "--benchmark_min_time=0.05"):
            result = subprocess.run(cmd + [arg], cwd=REPO_ROOT,
                                    capture_output=True, text=True)
            if result.returncode == 0:
                break
    else:
        result = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout + result.stderr)
        sys.exit(f"error: {binary.name} exited with {result.returncode}")
    sys.stdout.write(result.stdout)
    data = json.loads(out_path.read_text())
    out_path.unlink(missing_ok=True)
    return data


def distill(binary_name: str, raw: dict, out: dict[str, dict]) -> None:
    for bench in raw.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        scale = TIME_UNIT_NS.get(bench.get("time_unit", "ns"), 1.0)
        entry = {
            "ns_per_op": bench["cpu_time"] * scale,
            "real_ns_per_op": bench["real_time"] * scale,
        }
        if "items_per_second" in bench:
            entry["items_per_second"] = bench["items_per_second"]
        for key, value in bench.items():
            if key.startswith("allocs_per_op"):
                entry["allocs_per_op"] = value
        if bench.get("error_occurred"):
            entry["error"] = bench.get("error_message", "benchmark error")
        out[f"{binary_name}/{name}"] = entry


def parse_regress_guards(specs: list[str]) -> list[tuple[str, float]]:
    guards = []
    for spec in specs:
        key, sep, pct = spec.rpartition(":")
        if not sep or not key:
            sys.exit(f"error: --fail-on-regress expects KEY:PCT, got {spec!r}")
        try:
            guards.append((key, float(pct)))
        except ValueError:
            sys.exit(f"error: --fail-on-regress expects a numeric PCT, got {spec!r}")
    return guards


def check_regressions(guards: list[tuple[str, float]], baseline_path: Path,
                      benchmarks: dict[str, dict]) -> list[str]:
    """Regression messages for guarded keys that got slower than allowed."""
    if not guards or not baseline_path.is_file():
        return []
    baseline = json.loads(baseline_path.read_text()).get("benchmarks", {})
    problems = []
    for key, pct in guards:
        old = baseline.get(key, {}).get("ns_per_op")
        new = benchmarks.get(key, {}).get("ns_per_op")
        if old is None or new is None or old <= 0.0:
            continue
        limit = old * (1.0 + pct / 100.0)
        if new > limit:
            problems.append(f"{key}: {new:.1f} ns/op vs baseline {old:.1f} "
                            f"(+{(new / old - 1.0) * 100.0:.1f}%, limit +{pct:.0f}%)")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="short measuring time per benchmark (CI smoke)")
    parser.add_argument("--build-dir", default=None,
                        help="build tree holding the bench binaries "
                             "(default: build-release/ then build/)")
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_micro.json"),
                        help="output path (default: BENCH_micro.json at repo root)")
    parser.add_argument("--benches", nargs="*", default=DEFAULT_BENCHES,
                        help=f"benchmark binaries to run (default: {DEFAULT_BENCHES})")
    parser.add_argument("--fail-on-regress", action="append", default=[],
                        metavar="KEY:PCT",
                        help="fail if KEY's ns_per_op regressed more than PCT%% "
                             "against the committed output file (repeatable)")
    args = parser.parse_args()
    guards = parse_regress_guards(args.fail_on_regress)

    build_dir = find_build_dir(args.build_dir)
    benchmarks: dict[str, dict] = {}
    missing: list[str] = []
    for name in args.benches:
        binary = find_binary(build_dir, name)
        if binary is None:
            missing.append(name)
            continue
        print(f"== {name} ({binary}) ==", flush=True)
        distill(name, run_bench(binary, args.quick), benchmarks)
    if missing:
        sys.exit(f"error: benchmark binaries not found in {build_dir}: {missing} "
                 "(build them first: cmake --build <dir> --target " +
                 " ".join(missing) + ")")

    report = {
        "schema": 1,
        "generated_by": "tools/bench_baseline.py",
        "quick": args.quick,
        "build_dir": (str(build_dir.relative_to(REPO_ROOT))
                      if build_dir.is_relative_to(REPO_ROOT) else str(build_dir)),
        # Host parallelism the pool benchmarks ran under.
        "jobs": os.cpu_count() or 1,
        "benchmarks": benchmarks,
        "derived": {},
    }
    num = benchmarks.get(SPEEDUP_NUMERATOR)
    den = benchmarks.get(SPEEDUP_DENOMINATOR)
    if num and den and den["ns_per_op"] > 0.0:
        report["derived"]["network_churn_speedup"] = num["ns_per_op"] / den["ns_per_op"]
    serial = benchmarks.get(POOL_SCALING_SERIAL)
    wide = benchmarks.get(POOL_SCALING_WIDE)
    if serial and wide and wide["real_ns_per_op"] > 0.0:
        if report["jobs"] < POOL_SCALING_WIDTH:
            print(f"trial fan-out speedup not derived: the host has {report['jobs']} "
                  f"cores, fewer than the pool width {POOL_SCALING_WIDTH}")
        else:
            # Wall-clock ratio (cpu_time only meters the dispatching thread).
            report["derived"]["trial_parallel_speedup"] = (
                serial["real_ns_per_op"] / wide["real_ns_per_op"])

    failures = [k for k, v in benchmarks.items() if "error" in v]
    out_path = Path(args.output)
    regressions = check_regressions(guards, out_path, benchmarks)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    if "network_churn_speedup" in report["derived"]:
        print(f"network churn speedup (full rebuild / incremental): "
              f"{report['derived']['network_churn_speedup']:.1f}x")
    if "trial_parallel_speedup" in report["derived"]:
        print(f"trial fan-out speedup (pool width 1 / width 4, "
              f"{report['jobs']} cores): "
              f"{report['derived']['trial_parallel_speedup']:.2f}x")
    if failures:
        sys.exit(f"error: benchmarks reported failures: {failures}")
    if regressions:
        sys.exit("error: perf regressions beyond the allowed threshold:\n  " +
                 "\n  ".join(regressions))
    return 0


if __name__ == "__main__":
    sys.exit(main())
