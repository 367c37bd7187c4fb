"""Spans around the public functions of a package, installed from outside it.

``Tracer.install`` wraps every public function defined in the listed modules
and puts the wrapper at every module attribute of the package that names the
function, so ``ftgamma.gof.fit_ftg`` is traced as well as
``ftgamma.fit.fit_ftg``. Each call appends one span (name, start, end,
parent) to flat arrays kept in memory; ``summary`` turns them into calls and
self time per function, self time being a span minus the spans directly
inside it. Hooks add counts at the same boundary (see layers.py).
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

# float rounding of perf_counter timestamps; far below one traced call
_CLOCK_SLACK = 1e-9


class Tracer:
    def __init__(self, package: str, modules: tuple[str, ...], hooks: dict | None = None):
        self.package = package
        self.modules = modules
        self.hooks = hooks or {}
        self.counts: dict[str, float] = defaultdict(float)
        self.names: list[str] = []
        self.name_ix = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install
    def install(self) -> None:
        wrappers = {}
        for short in self.modules:
            mod = importlib.import_module(f"{self.package}.{short}")
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = self._wrap(name, obj, self.hooks.get(name))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package
                                   or modname.startswith(self.package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, name: str, fn, hook):
        nid = len(self.names)
        self.names.append(name)
        name_ix, parent, start, end = self.name_ix, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        before = hook.before if hook else None
        after = hook.after if hook else None

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_ix.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            token = before(args, kwargs) if before else None
            start.append(clock())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end[idx] = clock()
                stack.pop()
                if after:
                    after(counts, token, args, kwargs, result, exc)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # ------------------------------------------------------------ results
    def durations(self, name: str):
        """Wall time of every call of one function, in call order (seconds)."""
        import numpy as np

        nid = self.names.index(name)
        ix = np.frombuffer(self.name_ix, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return dur[ix == nid]

    def summary(self) -> dict:
        """Calls and self time per function, plus checks on the span tree.

        ``span_violations`` counts spans with negative self time and child
        spans that start before or end after their parent.
        """
        import numpy as np

        k, n = len(self.names), len(self.start)
        if n == 0:
            return {"functions": {}, "spans": 0, "span_violations": 0,
                    "counts": dict(self.counts)}
        ix = np.frombuffer(self.name_ix, dtype=np.int64)
        par = np.frombuffer(self.parent, dtype=np.int64)
        st, en = np.frombuffer(self.start), np.frombuffer(self.end)
        dur = en - st
        has = par >= 0
        p = par[has]
        covered = np.bincount(p, weights=dur[has], minlength=n)
        self_t = dur - covered
        violations = int(np.count_nonzero(self_t < -_CLOCK_SLACK)) + int(
            np.count_nonzero((st[has] < st[p]) | (en[has] > en[p]))
        )
        calls = np.bincount(ix, minlength=k)
        self_s = np.bincount(ix, weights=self_t, minlength=k)
        return {
            "functions": {
                self.names[i]: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                for i in range(k) if calls[i]
            },
            "spans": n,
            "span_violations": violations,
            "counts": dict(self.counts),
        }
