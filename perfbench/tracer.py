"""Outside-in span tracer for curvelab.

The tracer wraps the package's functions and methods from the benchmark's
side; nothing inside ``src/curvelab`` knows about it.  A module-level
function is rebound in every loaded ``curvelab`` module that holds a
reference to it (``from .geometry import radial_geometry`` leaves a separate
name in ``flows``, ``shapes``, ``cli``, ``functionals`` and ``acceptance``);
a method is replaced on its class.

Each call records a span ``(id, name, start, end, parent_id)`` in memory.
Spans started in one thread nest under that thread's open span, so the
thread pool of ``curvelab verify`` traces correctly.  A hook whose target is
gone is listed in ``missing`` by span name; the run goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Hook:
    """One traced target: ``qualname`` is ``func`` or ``Class.method``."""

    module: str
    qualname: str
    span: str
    observe: object = None  # callable(tracer, args, result), run on return


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.missing = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore = []

    # -- recording ----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, hook, fn):
        tracer = self
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, hook.span, start, end, parent))
            if hook.observe is not None:
                hook.observe(tracer, args, result)
            return result

        return traced

    def clear(self):
        self.spans.clear()
        self.counts.clear()

    # -- installation -------------------------------------------------------

    def install(self, hooks):
        for hook in hooks:
            try:
                module = importlib.import_module(hook.module)
            except ImportError:
                module = None
            owner, _, attr = hook.qualname.rpartition(".")
            target = getattr(module, owner, None) if owner else module
            original = vars(target).get(attr) if target is not None else None
            if not callable(original):
                self.missing.append(f"{hook.span} ({hook.module}.{hook.qualname})")
                continue
            wrapped = self._wrap(hook, original)
            if owner:
                self._rebind(target, attr, original, wrapped)
                continue
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "curvelab" or name.startswith("curvelab.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapped)

    def _rebind(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reduction ----------------------------------------------------------

    def aggregate(self):
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, which all end before it.
        """
        child_time = {}
        for sid, _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out = {}
        for sid, name, start, end, _parent in self.spans:
            entry = out.setdefault(name, [0, 0.0, 0.0])
            dur = end - start
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child_time.get(sid, 0.0)
        return out

    def durations(self, name):
        return [end - start for _sid, n, start, end, _p in self.spans if n == name]

    def calls_under(self, name, ancestors):
        """Number of ``name`` spans with an enclosing span in ``ancestors``."""
        parent_of = {sid: (n, p) for sid, n, _s, _e, p in self.spans}
        total = 0
        for _sid, n, _s, _e, parent in self.spans:
            if n != name:
                continue
            while parent >= 0:
                pname, parent = parent_of[parent]
                if pname in ancestors:
                    total += 1
                    break
        return total


def percentile(values, fraction):
    """Interpolated quantile of a non-empty list (fraction in (0, 1))."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]
