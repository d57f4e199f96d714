"""Run one workload over consecutive seeds and summarize the metrics.

    python3 perfbench/spread.py --workload census_q4 --seeds 1-10 \\
        [--seconds 25] [--trace 0]

Prints one line per run and then, per metric, the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median.  This is how the medians in
baseline.json were made.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    p.add_argument("--seconds", default="25")
    p.add_argument("--trace", default="0")
    args = p.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))

    values, failed = {}, 0
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", args.workload, "--seed",
             str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"] + (not result["correct"])
        print(seed, json.dumps(result), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    summary = {}
    for name, xs in values.items():
        q1, _, q3 = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0,
                         "runs": len(xs)}
    print(json.dumps({"workload": args.workload, "failed": failed,
                      "metrics": summary}, sort_keys=True))


if __name__ == "__main__":
    main()
