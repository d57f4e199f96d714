"""Host speed reference: every time the benchmark reports is scaled by it.

The CPU speed this benchmark sees on a shared host moves by up to 2x
within a minute (a fixed job took 0.38 to 0.86 s over four minutes on
2 vCPUs, with the host's steal time near zero), so raw seconds of runs
made minutes apart say more about the host than about the program.
A *slice* is a fixed piece of pure-Python work (``ref_work``: dicts,
lists, sorting, a graph search) that uses the standard library only and
nothing of ``clstruct``.  Slices run on a timer while a job runs, and
the job's seconds are scaled by

    factor = NOMINAL_SLICE_S / mean thread CPU time of the job's slices

so a reported time is the time the job would take on a host that runs
one slice in NOMINAL_SLICE_S.  A change to the program moves the
reported time as it moves the raw one; a change of host speed during
the job moves both the job and its slices and cancels out.

Slices are timed with the thread's CPU clock: their wall time, while
the ``classify`` thread pool works, would count waits for the
interpreter lock (measured: 2.3x the CPU time).  So time the host takes
the virtual CPU away (steal) still lengthens wall times and is not
scaled out.  The timer handler runs in the main thread between
bytecodes; the time it takes is measured and taken out of the job and
of the call it interrupted.
"""
import signal
import time

#: Mean thread CPU time of one slice on the reference machine (2 vCPUs
#: of an Intel Xeon at 2.0 GHz, Python 3.11.7).
NOMINAL_SLICE_S = 0.002
#: Seconds between two timer slices while a job runs.
PERIOD_S = 0.25


def ref_work():
    """One slice of fixed work; returns a checksum so none of it is
    skipped."""
    acc = 0
    for r in range(40):
        adj = {}
        for i in range(120):
            adj.setdefault((i + r) % 17, []).append(((i * 7) % 23, i & 3))
        for k in sorted(adj):
            xs = sorted(adj[k])
            acc += len(xs) + xs[0][0]
        seen, stack = {0}, [0]
        while stack:
            v = stack.pop()
            for w, _ in adj.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        acc += len(seen) + len(str(tuple(seen)))
    return acc


def slice_s():
    """Thread CPU seconds of one slice, run now."""
    c = time.thread_time()
    ref_work()
    return time.thread_time() - c


class Sampler:
    """Slices on an interval timer while a job runs.

    ``stolen_s`` is the wall time spent in the handler since the job
    began; callers subtract it from what they time."""

    def __init__(self):
        self.slices = []
        self.stolen_s = 0.0
        self._old = None

    def _handler(self, _signum, _frame):
        t = time.perf_counter()
        self.slices.append(slice_s())
        self.stolen_s += time.perf_counter() - t

    def start(self):
        """Begin a job: one slice now, then one every PERIOD_S."""
        self.slices = [slice_s()]
        self.stolen_s = 0.0
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """End a job: stop the timer, one slice more; returns the job's
        factor."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.slices.append(slice_s())
        return factor(self.slices)


def factor(slices):
    """Scale from measured seconds to reference seconds."""
    return NOMINAL_SLICE_S * len(slices) / sum(slices)
