"""Per-function timing of the library from outside it.

While installed, every public module-level function of the library's
modules is replaced by a timing wrapper in *every* namespace that binds
it (the defining module, each module that imported it by name, and the
package itself), so calls between modules are seen as well as calls from
the benchmark.  restore() puts every original binding back.  Nothing in
the library's source is changed.

Spans are not stored one by one: a stack of child-time accumulators
gives each call's self time (its duration minus the time covered by the
wrapped calls it made) on the fly, and per function the tracer keeps
calls, inclusive seconds and self seconds.
"""

import functools
import inspect
import sys
import time

PACKAGE = "resultant_lab"
MODULES = ("basis", "multipoly", "matpoly", "cayley", "sylvester",
           "rootfinder")


class Tracer:
    def __init__(self):
        self._saved = []        # (namespace, name, original)
        self._stack = []
        self.totals = {}        # "module.function" -> [calls, incl_s, self_s]

    def _targets(self):
        """Original function -> "module.function" for every public one."""
        out = {}
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    out[obj] = f"{short}.{name}"
        return out

    def _namespaces(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None
                and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _wrap(self, fn, key):
        stack = self._stack
        totals = self.totals
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = totals.get(key)
                if rec is None:
                    rec = totals[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.totals.clear()
        wrappers = {fn: self._wrap(fn, key)
                    for fn, key in self._targets().items()}
        for ns in self._namespaces():
            for name, obj in list(vars(ns).items()):
                w = wrappers.get(obj) if inspect.isfunction(obj) else None
                if w is not None:
                    self._saved.append((ns, name, obj))
                    setattr(ns, name, w)

    def restore(self):
        """Put every original binding back; return the per-function totals."""
        for ns, name, obj in reversed(self._saved):
            setattr(ns, name, obj)
        self._saved.clear()
        out = {k: tuple(v) for k, v in self.totals.items()}
        self.totals.clear()
        self._stack.clear()
        return out

    @property
    def installed(self):
        return bool(self._saved)
