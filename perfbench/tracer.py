"""In-memory span tracer that wraps surveykit's public functions from outside.

`Tracer.installed()` replaces every public function of the layer modules
with a timing wrapper, at every name a surveykit module binds it to (so
`designs.conditional_poisson_pips`, imported by name from `core`, is wrapped
as well as `core.conditional_poisson_pips`).  Each call appends one span
`[name, start, end, parent, count]` to `Tracer.spans`; `parent` is the index
of the enclosing span (-1 at the top) and `count` is an optional number
recorded at the boundary, such as the support size `enumerate_design`
returned.  Nothing under `src/` is modified; only attributes are swapped and
restored.

Functions held somewhere else than a module attribute (a default argument,
a dict built at import time) are not wrapped.  Compiled kernels (numba
dispatchers) are not plain functions and are left alone, because a Python
wrapper cannot be called from compiled code.
"""

import contextlib
import functools
import importlib
import json
import sys
import time
import types

LAYERS = ("frame", "design", "designs", "kernels", "core", "estimators",
          "calibration", "variance", "simulate", "cli")

# counts recorded where the work happens: (args, kwargs, result) -> number
COUNTERS = {
    "core.enumerate_design": lambda a, k, r: len(r),
    "frame.read_frame_csv": lambda a, k, r: r.n_units,
    "calibration.solve_entropy": lambda a, k, r: r.iterations,
    "simulate.monte_carlo": lambda a, k, r: len(r["replicates"]),
}


def maybe_span(tracer, name):
    """`tracer.span(name)`, or nothing when the run is not traced."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around calls into a layer."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    rec[4] = count(args, kwargs, result)
                return result
            finally:
                self._close(rec)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer modules' public functions for the duration."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"surveykit.{layer}")
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        patched = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "surveykit"
                                   or modname.startswith("surveykit.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, obj))
        try:
            yield self
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    def extend(self, spans, parent=-1):
        """Append spans recorded by another process under span `parent`."""
        base = len(self.spans)
        for name, start, end, up, count in spans:
            self.spans.append([name, start, end, up + base if up >= 0 else parent,
                               count])

    def dump(self, path, header):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for rec in self.spans:
                handle.write(json.dumps(rec) + "\n")


class Summary:
    """Per-name totals over a list of spans.

    calls   number of spans with the name
    s       wall time of the outermost spans with the name, so a recursive
            function is not counted twice
    count   sum of the boundary counts
    """

    def __init__(self, spans):
        self.spans = spans
        self.calls, self.s, self.count = {}, {}, {}
        for i, (name, start, end, parent, count) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            if count is not None:
                self.count[name] = self.count.get(name, 0) + count
            if self._ancestor(i, lambda n: n == name) < 0:
                self.s[name] = self.s.get(name, 0.0) + end - start

    def _ancestor(self, i, pred):
        p = self.spans[i][3]
        while p >= 0 and not pred(self.spans[p][0]):
            p = self.spans[p][3]
        return p

    def self_time(self, name, exclude_prefix):
        """Outermost `name` time minus the time of the outermost descendant
        spans whose name starts with `exclude_prefix`."""
        covered = 0.0
        for i, (child, start, end, _, _) in enumerate(self.spans):
            if not child.startswith(exclude_prefix):
                continue
            if self._ancestor(i, lambda n: n.startswith(exclude_prefix)) >= 0:
                continue
            if self._ancestor(i, lambda n: n == name) >= 0:
                covered += end - start
        return self.s.get(name, 0.0) - covered

    def children_time(self, parent_name, child_name):
        """Time of spans named `child_name` whose parent is named `parent_name`."""
        return sum(end - start for name, start, end, parent, _ in self.spans
                   if name == child_name and parent >= 0
                   and self.spans[parent][0] == parent_name)
