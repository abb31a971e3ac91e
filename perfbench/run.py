#!/usr/bin/env python3
"""Builds and runs the serving system's benchmark (fg-perfbench).

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --steady K --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first form builds the benchmark
package (perfbench/Cargo.toml, release profile; CARGO_TARGET_DIR is
honoured) and runs one workload; the last line of standard output is
the result object. The second form runs the workload K times with seeds
N..N+K-1 and prints, for every metric, its median, quartiles, spread
(interquartile range over the median) and the bound BENCHMARK.json
gives it.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def usage(code):
    print(__doc__.strip())
    print()
    print("workloads: serve-read | ingest-cascade | mixed-churn")
    sys.exit(code)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    cmd = ["cargo", "build", "--release", "--quiet", "--manifest-path",
           os.path.join(HERE, "Cargo.toml")]
    done = subprocess.run(cmd, stdout=sys.stderr)
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(done.returncode or 1)
    return os.path.join(os.path.abspath(target), "release", "fg-perfbench")


def pin_to_one_cpu():
    """Runs the benchmark on one CPU of those this process may use.

    Client, server, writer and replica threads then share a core instead
    of migrating between two: on a small VM, cross-CPU wake-ups made
    pipelined read throughput swing between 23k and 81k requests/s from
    one round to the next, while one core holds it within a few percent.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})



def take_flag(args, flag):
    """Removes `flag VALUE` from args and returns VALUE (or None)."""
    if flag not in args:
        return None
    i = args.index(flag)
    if i + 1 >= len(args):
        print(f"perfbench: {flag} needs a value", file=sys.stderr)
        usage(2)
    value = args[i + 1]
    del args[i:i + 2]
    return value


def steady(binary, args, runs):
    seed = int(take_flag(args, "--seed") or "1")
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    values, failed_shares = {}, []
    for k in range(runs):
        done = subprocess.run([binary, *args, "--seed", str(seed + k)],
                              stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"perfbench: run with seed {seed + k} failed "
                  f"(exit {done.returncode})", file=sys.stderr)
            sys.exit(1)
        result = json.loads(lines[-1])
        failed_shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed + k}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            file=sys.stderr)
    print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    wide = False
    for name in bounds:
        vals = [v for v in values.get(name, []) if v is not None]
        if len(vals) < 2:
            print(f"{name:<40} missing")
            wide = True
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds[name]
        if bound is None:
            verdict = ""
        elif name == "setup_s" or spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict, wide = "WIDER THAN BOUND", True
        print(f"{name:<40} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {bound if bound is not None else '-':>6}  {verdict}")
    print(f"failed share per run: {sorted(set(failed_shares))}")
    sys.exit(1 if wide else 0)


def main():
    args = sys.argv[1:]
    if "--help" in args or "-h" in args:
        usage(0)
    runs = take_flag(args, "--steady")
    binary = build()
    pin_to_one_cpu()
    if runs is not None:
        steady(binary, args, int(runs))
    done = subprocess.run([binary, *args])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
