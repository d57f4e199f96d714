"""Spans around the public functions of the clstruct layers.

``Tracer.install`` replaces every public, non-generator function of the
layer modules by a wrapper that records a span: id, caller span, name,
thread and the thread's CPU clock at entry and exit.  Aliases of those
functions imported into other layer modules are replaced too, so
``reduce`` calling ``make_scheme`` is seen.  ``uninstall`` restores the
originals.  Spans stay in memory until ``take`` hands them over.

Thread CPU time keeps the numbers additive when ``classify`` runs its
thread pool: a span's self time is its own thread's CPU minus that of
its children on the same thread, and a span's total adds the totals of
children run for it on other threads.
"""
import importlib
import inspect
import itertools
import threading
import time

LAYERS = ("multigraph", "scheme", "classify", "reduce", "cli")

# What a span keeps of a call's result, for the ratio and count metrics.
NOTES = {
    "scheme.boundary_trace": lambda r: r.b,
    "multigraph.canonical_form": lambda r: r,
    "multigraph.automorphisms": len,
    "classify.realizable_signs": len,
}


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers = []  # one per thread, see _buffer
        self._saved = []

    def _buffer(self):
        """This thread's span stack and span columns.  Columns of plain
        numbers and strings keep the collector from scanning the spans,
        and one buffer per thread keeps the columns aligned."""
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = [0]
            local.tid = threading.get_ident()
            local.cols = ([], [], [], [], [], [])
            self._buffers.append((local.tid, local.cols))
        return local

    def _wrap(self, name, fn):
        note = NOTES.get(name)
        ids, buffer, clock = self._ids, self._buffer, time.thread_time

        def span(*args, **kwargs):
            local = buffer()
            stack = local.stack
            sid = next(ids)
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                c_id, c_parent, c_name, c_t0, c_t1, c_note = local.cols
                c_id.append(sid)
                c_parent.append(stack[-1])
                c_name.append(name)
                c_t0.append(t0)
                c_t1.append(t1)
                c_note.append(note(result) if note and result is not None
                              else None)
        return span

    def _pool_class(self, base):
        """ThreadPoolExecutor whose tasks start under the submitter's span."""
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._buffer().stack[-1]

                def task(*a, **k):
                    tracer._buffer().stack[:] = [parent]
                    return fn(*a, **k)
                return super().submit(task, *args, **kwargs)
        return TracedPool

    def install(self):
        modules = [importlib.import_module(f"clstruct.{m}") for m in LAYERS]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        classify = modules[LAYERS.index("classify")]
        self._saved.append((classify, "ThreadPoolExecutor",
                            classify.ThreadPoolExecutor))
        classify.ThreadPoolExecutor = self._pool_class(
            classify.ThreadPoolExecutor)

    def uninstall(self):
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved.clear()

    def take(self):
        """All spans recorded so far, as (id, parent id, name, thread,
        cpu start, cpu end, note) tuples; the buffers are emptied."""
        spans = []
        for tid, cols in self._buffers:
            c_id, c_parent, c_name, c_t0, c_t1, c_note = cols
            spans += [(sid, parent, name, tid, t0, t1, note)
                      for sid, parent, name, t0, t1, note
                      in zip(c_id, c_parent, c_name, c_t0, c_t1, c_note)]
            for col in cols:
                col.clear()
        return spans


# Nearest traced ancestor that names the caller of a boundary_trace.
_CALLERS = (("classify.realizable_signs", "in_realizable"),
            ("classify.equivalence_classes", "in_witness"),
            ("cli.run_verify", "in_verify"),
            ("cli.main", "in_cli"))


def _caller(sid, parent_of, name_of):
    p = parent_of[sid]
    while p:
        name = name_of[p]
        if name.startswith("cli.suite_"):
            return "in_verify"
        for caller, label in _CALLERS:
            if name == caller:
                return label
        p = parent_of[p]
    return None


def summarize(spans):
    """Per-name calls/self_s/total_s, boundary_trace caller splits and
    the result-derived counts, for the spans of one job."""
    parent_of, name_of, tid_of = {0: 0}, {}, {}
    dur = {}
    for sid, parent, name, tid, t0, t1, _note in spans:
        parent_of[sid], name_of[sid], tid_of[sid] = parent, name, tid
        dur[sid] = t1 - t0
    self_t = dict(dur)
    total = dict(dur)
    # Children have larger ids than their parents (ids are taken on entry).
    for sid in sorted(dur, reverse=True):
        p = parent_of[sid]
        if p in dur:
            if tid_of[p] == tid_of[sid]:
                self_t[p] -= dur[sid]
            else:
                total[p] += total[sid]
    stats = {}
    for sid, name in name_of.items():
        st = stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += self_t[sid]
        st[2] += total[sid]
    out = {}
    for name, (calls, s, t) in stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = s
        out[f"{name}.total_s"] = t
        if name.startswith("cli.suite_"):
            out[f"cli.suite.{name[len('cli.suite_'):]}.total_s"] = t

    canon, auts, tables = set(), 0, 0
    strips = 0
    for sid, parent, name, _tid, _t0, _t1, note in spans:
        if name == "scheme.boundary_trace":
            label = _caller(sid, parent_of, name_of)
            if label:
                out[f"{name}.{label}.calls"] = \
                    out.get(f"{name}.{label}.calls", 0) + 1
                out[f"{name}.{label}.self_s"] = \
                    out.get(f"{name}.{label}.self_s", 0.0) + self_t[sid]
                if label == "in_realizable" and note == 1:
                    strips += 1
        elif name == "multigraph.canonical_form":
            canon.add(note)
        elif name == "multigraph.automorphisms" and note is not None:
            auts += note
        elif name == "classify.realizable_signs" and note is not None:
            tables += note
    calls = out.get("multigraph.canonical_form.calls", 0)
    out["multigraph.canonical_form.dedup_ratio"] = \
        len(canon) / calls if calls else 0.0
    out["multigraph.automorphisms.group_order_sum"] = auts
    out["classify.realizable_signs.tables"] = tables
    traced = out.get("scheme.boundary_trace.in_realizable.calls", 0)
    out["classify.realizable_signs.strip_hit_ratio"] = \
        strips / traced if traced else 0.0
    return out
