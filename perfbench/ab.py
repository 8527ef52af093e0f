#!/usr/bin/env python3
"""Interleaved A/B of the benchmark between a git revision and the work tree.

    python3 perfbench/ab.py --base <rev> [--workloads a,b] [--pairs 10]
                            [--seed 1] [--seconds S]

Checks the base revision out into a temporary git worktree, copies this
benchmark directory into it so both sides run identical benchmark code, and
builds the base and the current work tree (the change) each into its own
target directory. Then, for every
workload, it runs `pairs` parent/change pairs on the same seed, alternating
which side runs first, and reports for every end-to-end metric each side's
median and quartiles, the share of pairs the change won (ties count for
neither side), and a verdict:

* `gain`       the change won at least 9/10 of the pairs and the medians
               differ by more than the parent's own quartile spread;
* `regression` the change's median is worse than the parent's by more than
               the metric's bound in BENCHMARK.json;
* `unresolved` the parent's own spread is wider than the bound, so "no
               worse" cannot be shown;
* `identical`  every pair read the same (deterministic metrics);
* `same`       otherwise.

Everything it creates lives under `.bench_work/` (ignored by git) and is
removed at the end; it writes no tracked file.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_DIR = os.path.basename(HERE)


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def add_worktree(tmp, name, rev):
    path = os.path.join(tmp, name)
    git("worktree", "add", "--detach", "--quiet", path, rev)
    dest = os.path.join(path, BENCH_DIR)
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(HERE, dest, ignore=shutil.ignore_patterns("target", "Cargo.lock"))
    return path


def run(side, target, workload, seed, seconds):
    """One benchmark run; returns its result object (or None on failure)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("WLAN_")}
    env["CARGO_TARGET_DIR"] = target
    cmd = ["python3", os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=side, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def verdict(base, change, better, bound):
    """Apply the pairwise rule to one metric's paired values."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    share = wins / len(base)
    b_lo, b_med, b_hi = quartiles(base)
    c_med = statistics.median(change)
    spread = b_hi - b_lo
    if all(c == b for b, c in zip(base, change)):
        label = "identical"
    elif share >= 0.9 and abs(c_med - b_med) > spread and sign * (c_med - b_med) > 0:
        label = "gain"
    elif sign * (b_med - c_med) > bound * abs(b_med):
        label = "regression"
    elif spread > bound * abs(b_med) and not all(
            sign * (c - b) > 0 for c in change for b in base):
        label = "unresolved"
    else:
        label = "same"
    return share, label


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision of the parent side")
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i uses seed+i")
    ap.add_argument("--seconds", type=int, help="run length (default: BENCHMARK.json's)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    tmp = os.path.join(ROOT, ".bench_work", f"ab-{os.getpid()}")
    os.makedirs(tmp)
    base = None
    try:
        base = add_worktree(tmp, "base", args.base)
        sides = {"base": (base, os.path.join(tmp, "target-base")),
                 "change": (ROOT, os.path.join(tmp, "target-change"))}
        # One short run per side builds it and lets lazy set-up finish.
        for name, (tree, target) in sides.items():
            print(f"building {name} ({tree})", flush=True)
            if run(tree, target, workloads[0], args.seed, 1) is None:
                sys.exit(f"perfbench-ab: the {name} side does not build or run")
        for workload in workloads:
            values = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
                results = {}
                for name in order:
                    tree, target = sides[name]
                    results[name] = run(tree, target, workload, args.seed + i, seconds)
                if None in results.values() or not all(r["correct"] for r in results.values()):
                    print(f"{workload} pair {i}: a run failed or reported wrong results; pair dropped")
                    continue
                for name in values:
                    values[name].append(results[name]["metrics"])
                print(f"{workload} pair {i + 1}/{args.pairs} done", flush=True)
            if not values["base"]:
                continue
            print(f"\n{workload} ({len(values['base'])} pairs, seeds {args.seed}..{args.seed + args.pairs - 1})")
            print(f"  {'metric':14} {'base q1/med/q3':>34} {'change q1/med/q3':>34} {'won':>5}  verdict")
            for name, m in metrics.items():
                b = [v[name]["value"] for v in values["base"]]
                c = [v[name]["value"] for v in values["change"]]
                share, label = verdict(b, c, m["better"], m["bound"])
                fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
                print(f"  {name:14} {fmt(quartiles(b)):>34} {fmt(quartiles(c)):>34} "
                      f"{share:5.0%}  {label}")
    finally:
        if base is not None:
            subprocess.run(["git", "worktree", "remove", "--force", base], cwd=ROOT,
                           capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # another run is using it


if __name__ == "__main__":
    main()
