"""Benchmark of the clstruct CLI: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload census_q4 --seed 1 --seconds 25 \\
        --trace 0

Run from the root of a source checkout.  The inputs of the workload are
made from --seed under .perfbench_out/, and each measurement runs in a
fresh Python process (worker.py) that calls ``clstruct.cli.main``
in-process with stdout captured.

--trace 0: set-up probes plus one untraced run of --seconds seconds;
prints the end_to_end metrics of BENCHMARK.json.
--trace 1: an untraced and a traced run of --seconds/2 seconds each;
prints the per_layer metrics, including trace.overhead_ratio.

Every time is in reference seconds: measured seconds scaled by the
host's speed at that moment, as speed.py describes.  Before the result a
"host" line records the machine and the code, and a "detail" line the
sample counts, the raw median job wall time and the median speed
factor.  The last line of stdout is the JSON
result; the exit code is 0 only when a result was printed.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 11
DEADLINE_S = 170  # a run gives up, printing no result, after this long
_START = time.monotonic()

sys.path.insert(0, HERE)
import workloads  # noqa: E402


def _percentile(xs, p):
    """Nearest-rank percentile."""
    xs = sorted(xs)
    return xs[max(0, -(-len(xs) * p // 100) - 1)]


def _worker(args):
    left = DEADLINE_S - (time.monotonic() - _START)
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(left, 1))
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: gave up after {DEADLINE_S} s")
    if proc.returncode != 0:
        sys.exit(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return proc.stdout


def _run(workload, spec_path, seconds, trace_path=None):
    result_path = spec_path + (".traced" if trace_path else ".plain")
    args = ["--workload", workload, "--spec",
            spec_path, "--seconds", str(seconds), "--result", result_path]
    if trace_path:
        args += ["--trace", trace_path]
    _worker(args)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _setup_probe():
    return json.loads(_worker(["--setup-only"]))["setup_s"]


def host_facts():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "cpu_model": model,
            "commit": _commit(),
            "src_sha256": _source_digest()}


def _commit():
    """HEAD of the checkout's git directory, when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def _source_digest():
    """Digest of the package sources, which names the code also where
    the checkout carries no git metadata."""
    pkg = os.path.join(ROOT, "src", "clstruct")
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def end_to_end(res, setups):
    """Latency percentiles are taken over the job's calls, each call
    timed as its median over the run's jobs: the tail is that of the
    inputs, not of the moments the host was busy."""
    walls = res["job_wall_s"]
    per_call = [median(times) for times in zip(*res["op_ms"])]
    return {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "cpu_s": median(res["job_cpu_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "op_p50_ms": median(per_call),
        "op_p99_ms": _percentile(per_call, 99),
        "ops_per_s": sum(len(job) for job in res["op_ms"]) / sum(walls),
    }


def per_layer(names, plain, traced):
    """Counts from the first traced job; times are medians over jobs."""
    out = {}
    jobs = traced["layers"]
    for name in names:
        if name == "trace.overhead_ratio":
            out[name] = (median(traced["job_wall_s"]) /
                         median(plain["job_wall_s"]))
        elif name.endswith("_s"):
            out[name] = median([job.get(name, 0.0) for job in jobs])
        else:
            out[name] = jobs[0].get(name, 0)
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "clstruct", "cli.py")):
        sys.exit("run.py: no clstruct sources under src/; run it from the "
                 "root of a source checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    workdir = os.path.join(OUT, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        spec = workloads.prepare(args.workload, args.seed, workdir)
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        if args.trace:
            plain = _run(args.workload, spec_path, args.seconds / 2)
            spans = os.path.join(OUT, f"spans-{args.workload}.tsv")
            traced = _run(args.workload, spec_path,
                          args.seconds / 2, spans)
            metrics = bench["per_layer"]
            values = per_layer([m["name"] for m in metrics], plain, traced)
            runs = [plain, traced]
        else:
            setups = [_setup_probe() for _ in range(SETUP_PROBES)]
            plain = _run(args.workload, spec_path, args.seconds)
            metrics = bench["end_to_end"]
            values = end_to_end(plain, setups + [plain["setup_s"]])
            runs = [plain]
    finally:
        shutil.rmtree(workdir)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print("host " + json.dumps(host_facts(), sort_keys=True))
    print("detail " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "ops_per_job": len(spec["ops"]),
        "jobs": [len(r["job_wall_s"]) for r in runs],
        "calls": [sum(len(job) for job in r["op_ms"]) for r in runs],
        "raw_wall_s": [median(r["job_raw_wall_s"]) for r in runs],
        "factor": [median(r["job_factor"]) for r in runs],
        "clients": 1}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))


if __name__ == "__main__":
    main()
