#!/usr/bin/env python3
"""End-to-end Blockplane benchmark (see README.md next to this file).

Builds bench_e2e from source into build-e2e/, runs each requested workload
in its own single-threaded process, prints every metric by name and unit,
stamps each result with where it came from, and writes it to
build-e2e/results/ (or --out). The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics BENCHMARK.json lists, or with --trace 1 its per-layer metrics.

  python3 bench/e2e/run.py --workload=all --seed=1
  python3 bench/e2e/run.py --workload geo_commit --seed 3 --trace 1
  python3 bench/e2e/run.py --workload=xsite_send --seed=1 --smoke

Exit status: 0 when every run passed its correctness checks, 1 when one
did not, 2 when the benchmark could not be built or run.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-e2e"
BINARY = BUILD / "bench_e2e"
WORKLOADS = ["geo_commit", "xsite_send", "local_rw", "send_faults"]
# One run must end well inside three minutes; the slowest takes ~20 s.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds bench_e2e; a no-op build is quick."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"{ROOT / 'src'} is missing: the benchmark builds the library "
             "from source")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail(f"build step failed: {' '.join(step)}")


def git_state():
    """(sha, dirty) of the checkout, or ("unknown", None) outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()) != ROOT:
            return "unknown", None
        sha = git("rev-parse", "HEAD").stdout.strip() or "unknown"
        dirty = bool(git("status", "--porcelain").stdout.strip())
        return sha, dirty
    except OSError:
        return "unknown", None


def contract():
    """Metric names the last line reports, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def run_workload(name, args):
    cmd = [str(BINARY), f"--workload={name}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--traced", f"--trace-file={BUILD / f'trace_{name}.json'}"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name} did not finish within {RUN_TIMEOUT_S} s")
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"{name} exited {proc.returncode} without a result")
    if proc.returncode not in (0, 1, 3):
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"{name} exited {proc.returncode}")
    sha, dirty = git_state()
    result["provenance"] = {
        "git_sha": sha, "dirty": dirty, "seed": args.seed,
        "mode": result["mode"], "build_type": result["build_type"],
        "compiler": result["compiler"], "nproc": os.cpu_count(),
        "seconds": args.seconds,
    }
    return result


def show(result):
    p = result["provenance"]
    print(f"== {result['workload']}  seed {p['seed']}  mode {p['mode']}  "
          f"sim window {result['sim_window_s']:g} s  "
          f"git {p['git_sha'][:12]}{'+dirty' if p['dirty'] else ''}")
    for section in ("metrics", "layers"):
        for metric, m in sorted(result[section].items()):
            print(f"  {metric:<46} {m['value']:>16.6g} {m['unit']}")
    verdict = "ok" if result["correct"] else "FAILED"
    print(f"  correctness: {verdict}; {result['attempted']} ops attempted, "
          f"{result['failed']} failed, {result['errors']} error replies, "
          f"{result['latency_samples']} latency samples")
    if result["guard"]:
        print(f"  run guard tripped: {result['guard']}")
    for violation in result["violations"]:
        print(f"  violation: {violation}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10,
                        help="wall-clock budget of one measured phase; "
                             "sets the simulated arrival window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run the traced pass and report "
                             "per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="a tenth of the length; makes no claims")
    parser.add_argument("--out", type=Path, default=BUILD / "results",
                        help="directory for the result files")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    build()
    e2e_names, layer_names = contract()
    names = layer_names if args.trace else e2e_names
    args.out.mkdir(parents=True, exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for name in workloads:
        result = run_workload(name, args)
        mode = result["provenance"]["mode"]
        path = args.out / f"{name}_seed{args.seed}_{mode}.json"
        path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        show(result)
        results.append(result)

    def picked(result, prefix):
        found = {**result["metrics"], **result["layers"]}
        return {prefix + n: found[n] for n in names if n in found}

    prefix = (lambda r: r["workload"] + ".") if len(results) > 1 else \
        (lambda r: "")
    metrics = {}
    for result in results:
        metrics.update(picked(result, prefix(result)))
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
