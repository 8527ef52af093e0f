#!/usr/bin/env python3
"""Assert that running the benchmark leaves the git tree unchanged.

    python3 perfbench/check_clean.py [--workloads a,b] [--seconds 1]

Records `git status --porcelain` and the digest of every
tracked file, runs each workload once untraced and once traced with a short
run length, and fails (exit 1) if the status or any tracked file changed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def snapshot():
    status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout
    files = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.split("\0")
    digests = {}
    for name in filter(None, files):
        path = os.path.join(ROOT, name)
        if os.path.isfile(path):
            with open(path, "rb") as f:
                digests[name] = hashlib.sha256(f.read()).hexdigest()
    return status, digests


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--seconds", default="1")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]

    before = snapshot()
    for workload in workloads:
        for trace in ("0", "1"):
            cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seconds", args.seconds, "--trace", trace]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            print(f"{workload} trace={trace}: exit {done.returncode}", flush=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr[-2000:])
                sys.exit(1)
    after = snapshot()
    if before[0] != after[0]:
        sys.exit(f"git status changed:\nbefore:\n{before[0]}\nafter:\n{after[0]}")
    changed = sorted(n for n in before[1] if before[1][n] != after[1].get(n))
    if changed:
        sys.exit("tracked files changed: " + ", ".join(changed))
    print("git tree unchanged")


if __name__ == "__main__":
    main()
