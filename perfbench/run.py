#!/usr/bin/env python3
"""Build the benchmark and the campaign server from source, then run a
workload.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Builds go to $CARGO_TARGET_DIR (default
`.bench_build/`). Every `WLAN_*` variable of the caller's environment is
dropped, so no cache directory, fault plan or telemetry knob reaches the run.
The benchmark's own output (the last line is the JSON result) goes to
standard output; build output goes to standard error. `--workload all` runs
every workload of BENCHMARK.json in turn.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(env):
    """Build the benchmark package and `campaign_server`; exit on failure."""
    commands = [
        # The benchmark: a workspace of its own under perfbench/.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        # The server binary the service workloads drive, from the repository's
        # workspace with its own release profile.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "wlan-bench", "--bin", "campaign_server"],
    ]
    for cmd in commands:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write(f"perfbench: build failed: {' '.join(cmd)}\n")
            sys.exit(done.returncode or 1)


def main():
    env = {k: v for k, v in os.environ.items() if not k.startswith("WLAN_")}
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build(env)
    release = os.path.join(target, "release")
    bench = os.path.join(release, "wlan-perfbench")
    server = os.path.join(release, "campaign_server")
    os.chdir(ROOT)
    args = sys.argv[1:]
    if "all" not in args:
        os.execve(bench, [bench, *args, "--server", server], env)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    failed = False
    for workload in workloads:
        argv = [workload if a == "all" else a for a in args]
        sys.stdout.flush()
        done = subprocess.run([bench, *argv, "--server", server], env=env)
        failed |= done.returncode != 0
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
