#!/usr/bin/env python3
"""Paper-bench byte identity: digest every paper bench's output.

Runs every non-micro `bench_*` binary of a release build tree, in sorted
order, with `--days 2 --trials 1 --jobs 2`, then compares a digest of
each bench's stdout and of each cache CSV with the committed
tools/paper_digests.json. Any difference, or a bench that is missing or
not recorded, exits 1 and names the benches involved.

All benches share one fresh temporary directory as cwd and
$RUSH_CACHE_DIR. The order matters: the first bench collects the corpus
and the others read it back, as a cold paper run does. Before hashing,
the lines that depend on the host are masked: the `jobs=` count in the
`seed=... jobs=...` banner, and the cache paths after `[bench] corpus:`,
`[bench] experiment CODE:` and `[bench] trace:`.

Usage:
    tools/paper_digests.py [--build-dir DIR] [--write]

--write records the current digests instead of comparing. Use it only in
a change that says why the paper's results move;
bench/e2e/expected.json follows the same rule.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DIGESTS = REPO_ROOT / "tools" / "paper_digests.json"
BENCH_ARGS = ["--days", "2", "--trials", "1", "--jobs", "2"]
MASKS = [
    (re.compile(r"^(seed=.* jobs=)\d+", re.M), r"\1*"),
    (re.compile(r"^(\[bench\] (?:corpus|experiment [^:\n]*|trace): ).*$", re.M), r"\1*"),
]


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


def paper_benches(build_dir: Path) -> list[Path]:
    bench_dir = build_dir / "bench"
    return sorted(p for p in bench_dir.glob("bench_*")
                  if p.is_file() and os.access(p, os.X_OK)
                  and not p.name.startswith("bench_micro_"))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def mask(stdout: str) -> str:
    for pattern, repl in MASKS:
        stdout = pattern.sub(repl, stdout)
    return stdout


def sweep(benches: list[Path]) -> dict[str, dict[str, str]]:
    """Run the benches in one fresh directory; digest stdout and cache CSVs."""
    stdout_digests: dict[str, str] = {}
    with tempfile.TemporaryDirectory(prefix="rush-paper-") as tmp:
        env = dict(os.environ, RUSH_CACHE_DIR=tmp)
        for binary in benches:
            start = time.monotonic()
            result = subprocess.run([str(binary), *BENCH_ARGS], cwd=tmp, env=env,
                                    capture_output=True, text=True)
            if result.returncode != 0:
                sys.stderr.write(result.stdout + result.stderr)
                sys.exit(f"error: {binary.name} exited with {result.returncode}")
            stdout_digests[binary.name] = digest(mask(result.stdout).encode())
            print(f"  {binary.name:<28} {time.monotonic() - start:6.1f} s", flush=True)
        files = {p.relative_to(tmp).as_posix(): digest(p.read_bytes())
                 for p in sorted(Path(tmp).rglob("*.csv"))}
    return {"stdout": stdout_digests, "files": files}


def differences(recorded: dict[str, str], current: dict[str, str]) -> list[str]:
    out = []
    for key in sorted(set(recorded) | set(current)):
        if key not in current:
            out.append(f"{key} (missing)")
        elif key not in recorded:
            out.append(f"{key} (not recorded)")
        elif recorded[key] != current[key]:
            out.append(key)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=None,
                        help="build tree holding the bench binaries "
                             "(default: build-release/ then build/)")
    parser.add_argument("--write", action="store_true",
                        help=f"record the digests in {DIGESTS.relative_to(REPO_ROOT)} "
                             "instead of comparing")
    args = parser.parse_args()

    benches = paper_benches(find_build_dir(args.build_dir))
    if not benches:
        sys.exit("error: no paper bench binaries found; build the bench targets first")
    if not args.write and not DIGESTS.is_file():
        sys.exit(f"error: {DIGESTS} is missing; record it with --write")

    print(f"running {len(benches)} paper benches with {' '.join(BENCH_ARGS)}")
    start = time.monotonic()
    current = sweep(benches)
    print(f"sweep took {time.monotonic() - start:.1f} s")

    if args.write:
        DIGESTS.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        print(f"wrote {DIGESTS.relative_to(REPO_ROOT)}")
        return 0

    recorded = json.loads(DIGESTS.read_text())
    benches_differ = differences(recorded.get("stdout", {}), current["stdout"])
    files_differ = differences(recorded.get("files", {}), current["files"])
    if not benches_differ and not files_differ:
        print(f"all {len(current['stdout'])} bench outputs and "
              f"{len(current['files'])} cache CSVs match")
        return 0
    if benches_differ:
        print("benches whose output differs:\n  " + "\n  ".join(benches_differ))
    if files_differ:
        print("cache CSVs that differ:\n  " + "\n  ".join(files_differ))
    return 1


if __name__ == "__main__":
    sys.exit(main())
