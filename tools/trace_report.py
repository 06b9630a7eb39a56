#!/usr/bin/env python3
"""Summarize a RUSH JSONL event trace (see docs/trace-format.md).

Reads a trace produced with a bench's `--trace PATH` flag (or any
obs::EventTrace sink), validates every record against the v1 schema
envelope — required keys, known event names, per-trial monotone sim
time, gap-free sequence numbers — and prints one summary block per
trial:

  * policy, seed, job count, makespan, total Algorithm-2 skips
  * variation runs (jobs whose measured slowdown exceeded a threshold)
  * top congested links by max-congestion episodes and peak utilization
  * prediction outcome counts: each oracle label (no-variation /
    little-variation / variation) crossed with whether the job's run
    actually varied — the deployment-side confusion table

Any parse or schema error makes the exit status non-zero, so CI can run
this as a trace smoke check. So does a trace with no records, unless the
sibling PATH.metrics.json exists and records nothing: the benches that
run no trials (Fig. 1, Fig. 3, Table I, RFE) write such a pair. A sibling PATH.manifest.json (written by
the bench harness) is echoed when present so a report is traceable to
the binary and seed that produced it.

Usage:
  trace_report.py TRACE.jsonl [--slowdown-threshold X] [--top-links N]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REQUIRED_KEYS = ("v", "seq", "t", "ev")
SCHEMA_VERSION = 1
KNOWN_EVENTS = {
    "trial_start", "trial_end", "job_submit", "job_start", "job_end",
    "alloc_decision", "alg2_skip", "predict", "congestion",
    "fault_node_down", "fault_node_restore", "fault_link_degrade",
    "fault_link_restore", "fault_sampler_dropout", "fault_counter_corrupt",
    "fault_canary_timeout", "fault_job_requeue", "fault_oracle_fallback",
}
EVENT_FIELDS = {
    "trial_start": {"policy", "seed"},
    "trial_end": {"policy", "seed", "makespan_s", "total_skips"},
    "job_submit": {"job", "app", "nodes", "walltime_est_s"},
    "job_start": {"job", "wait_s", "backfilled", "node_ids"},
    "job_end": {"job", "runtime_s", "slowdown", "skips"},
    "alloc_decision": {"head_job", "reservation_s", "candidates"},
    "alg2_skip": {"job", "prediction", "skip_count", "skip_threshold"},
    "predict": {"job", "label", "feature_hash"},
    "congestion": {"start_s", "link", "peak_util"},
    # Fault-injection records (docs/fault-injection.md); only present in
    # runs given a --faults plan.
    "fault_node_down": {"node", "drain", "duration_s"},
    "fault_node_restore": {"node"},
    "fault_link_degrade": {"link", "factor", "duration_s"},
    "fault_link_restore": {"link"},
    "fault_sampler_dropout": {"node", "until_s"},
    "fault_counter_corrupt": {"node", "until_s"},
    "fault_canary_timeout": {"node", "until_s"},
    "fault_job_requeue": {"job", "node", "requeues"},
    "fault_oracle_fallback": {"job", "reason", "label"},
}


class TraceError(Exception):
    """A record that violates the trace schema."""


class Trial:
    def __init__(self, policy: str, seed: int):
        self.policy = policy
        self.seed = seed
        self.makespan_s = 0.0
        self.total_skips = 0
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.backfilled = 0
        self.slowdowns: list[float] = []
        self.skip_events = 0
        # link id -> (episode count, worst peak utilization)
        self.links: dict[int, list[float]] = {}
        # job id -> last predicted label before it ran
        self.predictions: dict[int, str] = {}
        # (label, varied?) -> count
        self.confusion: dict[tuple[str, bool], int] = {}
        self.job_slowdown: dict[int, float] = {}
        # fault record kind -> count (empty for zero-fault runs)
        self.faults: dict[str, int] = {}
        # fallback reason -> count
        self.fallback_reasons: dict[str, int] = {}


def parse_records(path: Path):
    """Yield (line_number, record) for every line; raise TraceError on any
    malformed record."""
    with path.open(encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"line {ln}: invalid JSON: {exc}") from exc
            if not isinstance(rec, dict):
                raise TraceError(f"line {ln}: record is not a JSON object")
            for key in REQUIRED_KEYS:
                if key not in rec:
                    raise TraceError(f"line {ln}: missing required key '{key}'")
            if rec["v"] != SCHEMA_VERSION:
                raise TraceError(
                    f"line {ln}: schema version {rec['v']} (reader supports "
                    f"{SCHEMA_VERSION}); see docs/trace-format.md")
            ev = rec["ev"]
            if ev not in KNOWN_EVENTS:
                raise TraceError(f"line {ln}: unknown event '{ev}'")
            missing = EVENT_FIELDS[ev] - rec.keys()
            if missing:
                raise TraceError(
                    f"line {ln}: event '{ev}' missing fields {sorted(missing)}")
            yield ln, rec


def analyze(path: Path, slowdown_threshold: float) -> list[Trial]:
    trials: list[Trial] = []
    current: Trial | None = None
    prev_seq = None
    prev_t = None

    for ln, rec in parse_records(path):
        seq, t, ev = rec["seq"], rec["t"], rec["ev"]
        if prev_seq is not None and seq != prev_seq + 1:
            raise TraceError(f"line {ln}: sequence gap ({prev_seq} -> {seq})")
        prev_seq = seq
        # Sim time restarts at each trial boundary but must never move
        # backwards within one trial.
        if ev == "trial_start":
            prev_t = None
        if prev_t is not None and t < prev_t:
            raise TraceError(
                f"line {ln}: sim time went backwards ({prev_t} -> {t})")
        prev_t = t

        if ev == "trial_start":
            current = Trial(rec["policy"], rec["seed"])
            trials.append(current)
            continue
        if current is None:
            # Tolerate traces that begin mid-trial (e.g. manual emits).
            current = Trial("(unknown)", 0)
            trials.append(current)

        if ev == "trial_end":
            current.makespan_s = rec["makespan_s"]
            current.total_skips = rec["total_skips"]
        elif ev == "job_submit":
            current.jobs_submitted += 1
        elif ev == "job_start":
            if rec["backfilled"]:
                current.backfilled += 1
        elif ev == "job_end":
            current.jobs_completed += 1
            slowdown = rec["slowdown"]
            current.slowdowns.append(slowdown)
            current.job_slowdown[rec["job"]] = slowdown
            label = current.predictions.get(rec["job"])
            if label is not None:
                varied = slowdown >= slowdown_threshold
                key = (label, varied)
                current.confusion[key] = current.confusion.get(key, 0) + 1
        elif ev == "alg2_skip":
            current.skip_events += 1
        elif ev == "predict":
            current.predictions[rec["job"]] = rec["label"]
        elif ev == "congestion":
            entry = current.links.setdefault(rec["link"], [0, 0.0])
            entry[0] += 1
            entry[1] = max(entry[1], rec["peak_util"])
        elif ev.startswith("fault_"):
            current.faults[ev] = current.faults.get(ev, 0) + 1
            if ev == "fault_oracle_fallback":
                reason = rec["reason"]
                current.fallback_reasons[reason] = (
                    current.fallback_reasons.get(reason, 0) + 1)
    return trials


def metrics_path(trace: Path) -> Path:
    return trace.with_name(trace.name + ".metrics.json")


def registry_is_empty(path: Path) -> bool:
    """True when PATH holds a metrics snapshot with no counter or histogram;
    false when it is missing, unreadable or recorded anything."""
    try:
        snapshot = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, OSError, UnicodeDecodeError):
        return False
    sections = ("counters", "histograms")
    return (isinstance(snapshot, dict) and set(snapshot) == set(sections)
            and all(snapshot[s] == {} for s in sections))


def print_report(trials: list[Trial], slowdown_threshold: float,
                 top_links: int) -> None:
    for i, trial in enumerate(trials):
        variation_runs = sum(1 for s in trial.slowdowns if s >= slowdown_threshold)
        print(f"trial {i}: policy={trial.policy} seed={trial.seed}")
        print(f"  jobs: {trial.jobs_submitted} submitted, "
              f"{trial.jobs_completed} completed, {trial.backfilled} backfilled")
        print(f"  makespan: {trial.makespan_s:.1f} s   "
              f"alg2 skips: {trial.total_skips} "
              f"({trial.skip_events} skip events)")
        print(f"  variation runs (slowdown >= {slowdown_threshold}): "
              f"{variation_runs} / {len(trial.slowdowns)}")
        if trial.links:
            ranked = sorted(trial.links.items(),
                            key=lambda kv: (-kv[1][0], -kv[1][1]))[:top_links]
            parts = [f"link {lid}: {int(n)} episodes peak {peak:.2f}"
                     for lid, (n, peak) in ranked]
            print(f"  top congested links: {'; '.join(parts)}")
        if trial.confusion:
            print("  prediction outcomes (label / actually varied: count):")
            for (label, varied), n in sorted(trial.confusion.items()):
                print(f"    {label:>16} / {'varied' if varied else 'steady':>6}: {n}")
        if trial.faults:
            parts = [f"{kind.removeprefix('fault_')}: {n}"
                     for kind, n in sorted(trial.faults.items())]
            print(f"  faults: {'; '.join(parts)}")
            if trial.fallback_reasons:
                reasons = [f"{r}: {n}"
                           for r, n in sorted(trial.fallback_reasons.items())]
                print(f"  oracle fallback reasons: {'; '.join(reasons)}")
        print()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trace", type=Path, help="JSONL trace file to summarize")
    parser.add_argument("--slowdown-threshold", type=float, default=1.2,
                        help="slowdown above which a run counts as a "
                             "variation run (default: %(default)s)")
    parser.add_argument("--top-links", type=int, default=3,
                        help="congested links to list per trial "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)

    manifest = args.trace.with_name(args.trace.name + ".manifest.json")
    if manifest.exists():
        try:
            info = json.loads(manifest.read_text(encoding="utf-8"))
            print(f"manifest: tool={info.get('tool', '?')} "
                  f"seed={info.get('seed', '?')} trials={info.get('trials', '?')} "
                  f"days={info.get('days', '?')} git={info.get('git_sha', '?')}")
        except (json.JSONDecodeError, OSError) as exc:
            print(f"error: unreadable manifest {manifest}: {exc}", file=sys.stderr)
            return 1

    try:
        trials = analyze(args.trace, args.slowdown_threshold)
    except TraceError as exc:
        print(f"error: {args.trace}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot read {args.trace}: {exc}", file=sys.stderr)
        return 1

    if not trials:
        # Benches that run no trials (Fig. 1, Fig. 3, Table I, RFE) write
        # an empty trace next to a registry that recorded nothing.
        if registry_is_empty(metrics_path(args.trace)):
            print(f"{args.trace}: no trials; the run's metrics record nothing")
            return 0
        print(f"error: {args.trace}: no records", file=sys.stderr)
        return 1

    records = sum(t.jobs_submitted + t.jobs_completed for t in trials)
    print(f"{args.trace}: {len(trials)} trial(s), "
          f"{records} job lifecycle records validated\n")
    print_report(trials, args.slowdown_threshold, args.top_links)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
