"""Span tracer that wraps the public functions of every ``sublin`` module
from outside the package.

Every module-level public function of ``sublin.*`` is replaced by a wrapper
that records one span per call: name, start, end, parent span and the id of
the operation it belongs to.  The wrapper is rebound wherever the original
function object is reachable as a module attribute (``from .x import f``
leaves copies in other modules and in the package namespace), and
``PhiExpression.__call__`` is wrapped on the class, so nested calls do not
escape.  Spans live in flat arrays in memory and are written once, at the
end, by :meth:`Tracer.save`.

A few wrappers keep a reference to the call's arguments or return value so
that work counts (state x atoms, tableau cells, PDE point x steps, enlarged
vertices) can be computed after the run, outside every timed span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array

import numpy as np


def _peng_mode(args, kwargs):
    return kwargs.get("mode", args[2] if len(args) > 2 else "probe")


def _seq_mode(args, kwargs):
    return "exact" if args[0].mode.value == "exact-rational" else "float"


# span name suffix chosen from the call's arguments
_NAMERS = {
    "recursion.sublinear_eval_sum": _seq_mode,
    "recursion.sublinear_event_probability": _seq_mode,
    "recursion.lattice_embed": _seq_mode,
    "independence.check_peng_independence": _peng_mode,
}


def _state_atoms(args, kwargs, emb):
    """Sum over steps of the reachable lattice width times the atoms of all
    measures of that step (the backward sweep's inner-loop trip count)."""
    width, total = 1, 0
    for measures in emb.steps:
        atoms = [a for ints, _ in measures for a in ints]
        total += width * len(atoms)
        width += max(atoms) - min(atoms)
    return total


def _tableau_cells(args, kwargs, result):
    c, A = args[0], args[1]
    m = len(A)
    return (m + 1) * (len(c) + m + 1)


def _point_steps(args, kwargs, grid):
    steps = round(grid.t / grid.dt) if grid.dt > 0 else 0
    return len(grid.xs) * steps


def _vertices(args, kwargs, model):
    return len(model.tables)


# work counts, computed at the end from (args, kwargs, result)
_COUNTERS = {
    "recursion.lattice_embed": _state_atoms,
    "linprog.simplex_max": _tableau_cells,
    "gheat.solve_g_heat": _point_steps,
    "independence.enlarge_vertices": _vertices,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []
        self.current_op = 0
        self._pending = []  # (span id, counter, args, kwargs, result)

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    @contextlib.contextmanager
    def span(self, name):
        """A span recorded from the benchmark's own code (operation roots)."""
        sid = self._open(self._name_id(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.start[sid] = t0
            self.end[sid] = t1

    def wrap(self, name, fn):
        namer = _NAMERS.get(name)
        counter = _COUNTERS.get(name)
        fixed = self._name_id(name)
        clock = time.perf_counter
        stack, start, end = self.stack, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = self._name_id(f"{name}.{namer(args, kwargs)}") if namer else fixed
            sid = self._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if counter is not None:
                self._pending.append((sid, counter, args, kwargs, result))
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self, package):
        """Wrap every public function of ``package``'s modules and rebind each
        reference to it across those modules."""
        prefix = package.__name__
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == prefix or n.startswith(prefix + "."))]
        wrapped = {}
        for mod in modules:
            short = mod.__name__[len(prefix) + 1:]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and not getattr(obj, "__wrapped_by_tracer__", False)):
                    wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, attr, wrapped[id(obj)])
        phi_cls = sys.modules[prefix + ".phi"].PhiExpression
        phi_cls.__call__ = self.wrap("phi.call", phi_cls.__call__)

    def aggregate(self):
        """Per span name: calls, inclusive seconds and self seconds (span
        minus the time its direct children cover), the self seconds spent
        inside operations (not set-up), and the work counts."""
        name, start, end, parent, op = self._arrays()
        n = len(name)
        dur = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - children
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        in_ops = op > 0
        ops_self_s = np.bincount(name[in_ops], weights=own[in_ops], minlength=k)
        spans = {nm: {"calls": int(calls[i]), "total_s": float(total[i]),
                      "self_s": float(self_s[i]), "ops_self_s": float(ops_self_s[i])}
                 for i, nm in enumerate(self.names) if calls[i]}
        counts = {}
        for sid, counter, args, kwargs, result in self._pending:
            key = self.names[self.name[sid]]
            counts[key] = counts.get(key, 0) + counter(args, kwargs, result)
        return {"spans": spans, "counts": counts}

    def _arrays(self):
        return (np.array(self.name, dtype=np.int32), np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64), np.array(self.parent, dtype=np.int32),
                np.array(self.op, dtype=np.int32))

    def save(self, path):
        """Write every span: name id, start, end, parent span and operation id."""
        name, start, end, parent, op = self._arrays()
        np.savez(path, names=np.array(self.names), name=name, start=start, end=end,
                 parent=parent, op=op)
