"""One fresh process of a benchmark run (started by run.py).

    worker.py --setup-only
        prints the seconds taken to import clstruct, in reference
        seconds (speed.py), and exits.
    worker.py --workload W --spec SPEC --seconds S --result OUT [--trace SPANS]
        repeats the job in SPEC in-process until S seconds of jobs have
        run, then checks every output and writes OUT (JSON).  Each job
        carries its speed factor (speed.py); job, call and layer times
        are written in reference seconds.  With --trace the layer
        functions are wrapped in spans, per-layer stats are kept per job
        and the first job's spans go to SPANS.
"""
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

# Set-up time: the import every CLI call pays, timed before anything
# else loads the standard modules clstruct imports.
_t0 = time.perf_counter()
import clstruct.cli as cli  # noqa: E402
SETUP_S = time.perf_counter() - _t0

import speed  # noqa: E402
#: Speed factor of the import time, from slices run right after it.
SETUP_FACTOR = speed.factor([speed.slice_s() for _ in range(20)])

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from clstruct.errors import ClstructError  # noqa: E402


#: Slices a call must hold to be scaled by its own factor.
MIN_CALL_SLICES = 8


def _cpu():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb():
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss +
           resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _call_factor(slices, job_factor):
    """A call long enough to hold MIN_CALL_SLICES slices is scaled by
    its own, so that the host's speed moving within a job is followed;
    shorter calls by the job's factor."""
    if len(slices) >= MIN_CALL_SLICES:
        return speed.factor(slices)
    return job_factor


def run_jobs(ops, seconds, tracer):
    """Closed loop, one client: each call starts when the previous ends.
    Runs whole jobs while the next one is expected to fit in seconds
    (raw seconds).  Times are kept in reference seconds: the handler
    time of the sampler is taken out, then the job's speed factor
    applied."""
    jobs, layers = [], []
    first_spans = None
    elapsed = 0.0
    sampler = speed.Sampler()
    while True:
        outs, op_s, op_slices = [], [], []
        sampler.start()
        c0, t0 = _cpu(), time.perf_counter()
        for argv in ops:
            buf = io.StringIO()
            t, stolen = time.perf_counter(), sampler.stolen_s
            first = len(sampler.slices)
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            op_s.append(time.perf_counter() - t - (sampler.stolen_s - stolen))
            op_slices.append(sampler.slices[first:])
            outs.append((rc, buf.getvalue()))
        wall, cpu = time.perf_counter() - t0, _cpu() - c0
        stolen = sampler.stolen_s
        k = sampler.stop()
        if jobs:  # later jobs are compared by digest; keep no copies
            outs = [(rc, workloads.sha256(out)) for rc, out in outs]
        jobs.append({"wall_s": (wall - stolen) * k,
                     "cpu_s": (cpu - stolen) * k,
                     "raw_wall_s": wall, "factor": k,
                     "op_ms": [x * _call_factor(sl, k) * 1000.0
                               for x, sl in zip(op_s, op_slices)],
                     "outs": outs})
        if tracer is not None:
            spans = tracer.take()
            layers.append({name: v * k if name.endswith("_s") else v
                           for name, v in tr.summarize(spans).items()})
            if first_spans is None:
                first_spans = spans
        elapsed += wall
        if elapsed + wall > seconds:
            return jobs, layers, first_spans


def check_jobs(workload, spec, jobs):
    """(attempted, failed): the first job's outputs are checked in full,
    later jobs must reproduce them byte for byte."""
    first = []
    for i, (rc, out) in enumerate(jobs[0]["outs"]):
        try:
            ok = workloads.check(workload, spec, i, rc, out)
        except (ValueError, KeyError, TypeError, IndexError,
                ClstructError):
            ok = False
        first.append((ok, workloads.sha256(out)))
    failed = sum(not ok for ok, _ in first)
    for job in jobs[1:]:
        for (ok, digest), (rc, out_digest) in zip(first, job["outs"]):
            failed += not (ok and rc == 0 and out_digest == digest)
    return len(jobs) * len(first), failed


def _write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\tname\tthread\tcpu_start\tcpu_end\n")
        for sid, parent, name, tid, t0, t1, _note in spans:
            fh.write(f"{sid}\t{parent}\t{name}\t{tid}\t{t0:.9f}\t{t1:.9f}\n")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--spec")
    p.add_argument("--seconds", type=float)
    p.add_argument("--result")
    p.add_argument("--trace")
    args = p.parse_args()

    if args.setup_only:
        print(json.dumps({"setup_s": SETUP_S * SETUP_FACTOR}))
        return
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)

    tracer = None
    if args.trace:
        tracer = tr.Tracer()
        tracer.install()
    try:
        jobs, layers, spans = run_jobs(spec["ops"], args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss = _peak_rss_mb()
    attempted, failed = check_jobs(args.workload, spec, jobs)
    if spans is not None:
        _write_spans(args.trace, spans)
    result = {
        "setup_s": SETUP_S * SETUP_FACTOR,
        "job_wall_s": [j["wall_s"] for j in jobs],
        "job_cpu_s": [j["cpu_s"] for j in jobs],
        "job_raw_wall_s": [j["raw_wall_s"] for j in jobs],
        "job_factor": [j["factor"] for j in jobs],
        "op_ms": [j["op_ms"] for j in jobs],
        "peak_rss_mb": rss,
        "attempted": attempted,
        "failed": failed,
        "layers": layers,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
