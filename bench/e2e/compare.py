#!/usr/bin/env python3
"""Compares two builds, or two result directories, of the end-to-end benchmark.

  # N alternating pairs of two checkouts; pair i runs seed S+i on both
  python3 bench/e2e/compare.py --runs PARENT_ROOT CHANGE_ROOT --pairs 10
  # result directories written by run.py --out
  python3 bench/e2e/compare.py --dirs PARENT_DIR CHANGE_DIR

Prints one row per workload and end-to-end metric: each side's median and
quartiles, the parent's spread (quartile distance over median) against the
metric's bound, the pairs the change won, and a verdict:

  better      the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              quartile distance
  worse       the change's median is worse by more than the bound
  unresolved  the parent's spread is wider than the bound, and not every
              change run beats every parent run
  unchanged   otherwise
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ["geo_commit", "xsite_send", "local_rw", "send_faults"]
# End-to-end metrics BENCHMARK.json does not list (README.md explains
# why): name -> (better, bound).
EXTRA = {
    "capacity_ops_s": ("higher", 0.15),
    "outage_ms": ("lower", 0.05),
    "fail_frac": ("lower", 0.0),
    "wall_ops_s": ("higher", 0.25),
    "setup_wall_s": ("lower", 0.25),
}


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update(EXTRA)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, better, bound):
    """`pairs`: (parent, change) values of runs made with the same seed."""
    sign = 1 if better == "higher" else -1
    q1, median_a, q3 = quartiles(parent)
    median_b = statistics.median(change)
    gain = sign * (median_b - median_a)
    iqr = q3 - q1
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > iqr:
        return "better", wins
    spread = iqr / abs(median_a) if median_a else (0.0 if iqr == 0 else 1.0)
    if spread > bound:
        all_beat = all(sign * (b - a) > 0 for a in parent for b in change)
        return ("unchanged" if all_beat else "unresolved"), wins
    if -gain > bound * abs(median_a):
        return "worse", wins
    return "unchanged", wins


def load_dir(path):
    """workload -> seed -> result, from run.py result files."""
    out = {}
    for f in sorted(Path(path).glob("*.json")):
        result = json.loads(f.read_text())
        if result.get("mode") != "full":
            continue  # smoke and traced results make no end-to-end claims
        out.setdefault(result["workload"], {})[result["seed"]] = result
    return out


def run_pairs(roots, workloads, pairs, seed, seconds, out):
    """Alternates which side runs first; returns two load_dir() maps."""
    for i in range(pairs):
        order = [0, 1] if i % 2 == 0 else [1, 0]
        for workload in workloads:
            for side in order:
                cmd = [sys.executable, str(Path(roots[side]) / "bench/e2e/run.py"),
                       "--workload", workload, "--seed", str(seed + i),
                       "--seconds", str(seconds), "--out",
                       str(out / f"side{side}")]
                proc = subprocess.run(cmd, capture_output=True, text=True)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                    sys.exit(f"compare.py: {' '.join(cmd)} failed")
    return load_dir(out / "side0"), load_dir(out / "side1")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--dirs", nargs=2, metavar=("PARENT", "CHANGE"))
    group.add_argument("--runs", nargs=2, metavar=("PARENT_ROOT", "CHANGE_ROOT"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out", type=Path,
                        default=ROOT / "build-e2e" / "compare")
    args = parser.parse_args()

    workloads = args.workload or WORKLOADS
    if args.dirs:
        parent, change = load_dir(args.dirs[0]), load_dir(args.dirs[1])
    else:
        parent, change = run_pairs(args.runs, workloads, args.pairs,
                                   args.seed, args.seconds, args.out)

    specs = metric_specs()

    def cell(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    print(f"{'workload':<12} {'metric':<17} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'delta':>8} {'spread/bound':>13} "
          f"{'wins':>7}  verdict")
    worse = False
    for workload in workloads:
        a_runs, b_runs = parent.get(workload, {}), change.get(workload, {})
        names = sorted({n for r in [*a_runs.values(), *b_runs.values()]
                        for n in r["metrics"]} & specs.keys())
        for name in names:
            better, bound = specs[name]
            a = {s: r["metrics"][name]["value"] for s, r in a_runs.items()
                 if name in r["metrics"]}
            b = {s: r["metrics"][name]["value"] for s, r in b_runs.items()
                 if name in r["metrics"]}
            if not a or not b:
                continue
            pairs = [(a[s], b[s]) for s in sorted(a.keys() & b.keys())]
            result, wins = verdict(list(a.values()), list(b.values()), pairs,
                                   better, bound)
            worse |= result == "worse"
            qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
            delta = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            spread = (qa[2] - qa[0]) / abs(qa[1]) if qa[1] else 0.0
            print(f"{workload:<12} {name:<17} {cell(qa):>36} {cell(qb):>36} "
                  f"{delta:>+8.2%} {spread:>6.1%}/{bound:<6.0%} "
                  f"{wins:>3}/{len(pairs):<3}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
