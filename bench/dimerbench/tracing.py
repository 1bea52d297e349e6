"""Span tracing of the program's layers from outside the program.

Tracer.install() wraps every public function of each layer module, and the
constructors of the classes in CLASSES, by rebinding the attribute every
dimercorr module (and the package) looks the original up through: for
example both dimercorr.correlations.correlation_point and
dimercorr.cli.correlation_point.  Each call made while an operation is
traced becomes a span (id, parent, operation id, name, start, end, count,
flag); counts such as predicate evaluations ride on the span of the call
that made them.  Spans stay in memory until write().
"""

from __future__ import annotations

import contextlib
import gzip
import inspect
import os
import sys
import time

PACKAGE = "dimercorr"
LAYERS = ("cli", "correlations", "quantum_core", "numerics", "ins_model", "fitting", "spectra")
CLASSES = {"quantum_core": ("DensityMatrix",), "spectra": ("Spectrum",)}

# span tuple fields
ID, PARENT, OP, NAME, START, END, COUNT, FLAG = range(8)


def _count_calls(func, counter):
    def counted(*args, **kwargs):
        counter[0] += 1
        return func(*args, **kwargs)
    return counted


def _evaluations(call, args, kwargs):
    """Run a search routine with its callable argument counted (count = evals)."""
    counter = [0]
    args = (_count_calls(args[0], counter),) + tuple(args[1:])
    return call(*args, **kwargs), counter[0], None


def _fit(call, args, kwargs):
    result = call(*args, **kwargs)
    return result, result.n_iterations, int(result.converged)


def _directions(call, args, kwargs):
    q_vec = args[1] if len(args) > 1 else kwargs["q_vec"]
    shape = getattr(q_vec, "shape", None) or (len(q_vec),)
    return call(*args, **kwargs), (shape[0] if len(shape) == 2 else 1), None


def _bytes_read(call, args, kwargs):
    path = args[0] if args else kwargs["path"]
    return call(*args, **kwargs), os.path.getsize(path), None


# What a span's count (and flag) records, for the calls that have one.
COUNTERS = {
    "numerics.bisect_boundary": _evaluations,       # predicate evaluations
    "numerics.golden_section_max": _evaluations,    # objective evaluations
    "fitting.fit_gaussian_linear": _fit,            # iterations; flag = converged
    "ins_model.cross_section": _directions,         # q vectors evaluated
    "cli.read_spectrum_csv": _bytes_read,           # bytes of the file read
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.names = []
        self._name_index = {}
        self._stack = []
        self._op = None
        self._next_id = 0
        self._restore = []
        self._last_root = None

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in sorted(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(obj, f"{layer}.{name}")
                for other in modules:
                    for attr, value in list(vars(other).items()):
                        if value is obj:
                            self._rebind(other, attr, obj, wrapper)
            for name in CLASSES.get(layer, ()):
                cls = getattr(module, name)
                init = cls.__init__
                self._rebind(cls, "__init__", init, self._wrap(init, f"{layer}.{name}"))

    def _rebind(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _intern(self, name):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _wrap(self, func, name):
        index = self._intern(name)
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op is None:
                return func(*args, **kwargs)
            span_id, parent = tracer._open()
            count = flag = None
            start = time.perf_counter_ns()
            try:
                if counter is None:
                    return func(*args, **kwargs)
                result, count, flag = counter(func, args, kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, tracer._op, index, start, end, count, flag))

        traced.__wrapped__ = func
        return traced

    # -- recording ---------------------------------------------------------

    def _open(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        return span_id, parent

    @contextlib.contextmanager
    def operation(self, op_id, kind):
        """Root span of one operation; every traced call inside is its descendant."""
        index = self._intern(f"op.{kind}")
        span_id = self._next_id
        self._next_id += 1
        self._op = op_id
        self._stack = [span_id]
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._op = None
            self._stack = []
            self.spans.append((span_id, None, op_id, index, start, end, None, None))
            self._last_root = len(self.spans) - 1

    def set_root_count(self, count):
        """Attach a count (bytes the CLI wrote) to the last operation's root span."""
        span = self.spans[self._last_root]
        self.spans[self._last_root] = span[:COUNT] + (count,) + span[COUNT + 1:]

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("id,parent,op,name,start_ns,end_ns,count,flag\n")
            for span in self.spans:
                fields = list(span)
                fields[NAME] = self.names[span[NAME]]
                handle.write(",".join("" if v is None else str(v) for v in fields) + "\n")


def self_times(spans):
    """Span id -> self time in ns: its duration minus the durations of its
    direct children (children of one span never overlap: one thread)."""
    children = {}
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]] = children.get(span[PARENT], 0) + span[END] - span[START]
    return {span[ID]: span[END] - span[START] - children.get(span[ID], 0) for span in spans}


def aggregate(spans, names):
    """Per span name: calls, self_ns, summed count and summed flag."""
    selfs = self_times(spans)
    totals = {}
    for span in spans:
        name = names[span[NAME]]
        entry = totals.setdefault(name, {"calls": 0, "self_ns": 0, "count": 0, "flag": 0})
        entry["calls"] += 1
        entry["self_ns"] += selfs[span[ID]]
        entry["count"] += span[COUNT] or 0
        entry["flag"] += span[FLAG] or 0
    return totals
