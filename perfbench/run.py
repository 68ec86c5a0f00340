#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ycsb-paper --seed 1 --seconds 25 --trace 0

The Go program in this directory is built with its build cache, temporary
files and output under .bench_build/ in the checkout, then run with the
arguments given. Its standard output is passed through unchanged; the last
line is the JSON result. A failed build exits 1 without printing a result.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "perfbench"
# A run measures for --seconds and then finishes its last repetition.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def go_env():
    """Environment that keeps every file the Go toolchain writes inside the
    checkout and never reaches the network."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"),
                     ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "config")):
        path = BUILD_DIR / sub
        path.mkdir(parents=True, exist_ok=True)
        env[key] = str(path)
    env.update(GOENV="off", GOPROXY="off",
               GOTOOLCHAIN="local", GOWORK="off", CGO_ENABLED="0")
    return env


def source_revision():
    """The git commit when the checkout is a repository, otherwise a digest
    of the sources the benchmark builds from."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for path in sorted(ROOT.rglob("*")):
        rel = path.relative_to(ROOT)
        if rel.parts[0] in (".bench_build", ".git") or not path.is_file():
            continue
        if path.suffix == ".go" or path.name == "go.mod":
            h.update(str(rel).encode() + b"\0" + path.read_bytes() + b"\0")
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    env = go_env()
    build = subprocess.run(["go", "build", "-trimpath", "-o", str(BINARY), "."],
                           cwd=BENCH_DIR, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [str(BINARY), "-workload", args.workload, "-seed", args.seed,
           "-seconds", args.seconds, "-trace", args.trace,
           "-commit", source_revision(),
           "-spans-dir", str(BUILD_DIR / "spans")]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
