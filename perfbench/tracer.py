"""Span recorder for the traced run.

The program has no tracing of its own, so the spans are recorded from
outside: :func:`install` replaces every public function of each polygame
module with a wrapper that opens a span around the call.  A wrapper is bound
under every name that refers to the original in any polygame module, so a
call through ``from .monoidal import tensor`` in another module is traced
too.  A few class methods carry counters instead (element and set
construction, successor rows of every game built, apex points of every
simulation built, enumeration charged, refusals raised), because they run too
often or too briefly for a span each.

Spans are kept in memory as parallel arrays and written out once, at the
end.  A layer's self time is the summed duration of its spans minus the part
covered by their child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter

# polygame module -> layer; the fixtures are games built by the games layer.
LAYER_OF_MODULE = {
    "elements": "elements",
    "games": "games",
    "fixtures": "games",
    "limits": "limits",
    "monoidal": "monoidal",
    "additive": "additive",
    "exponential": "exponential",
    "simulation": "simulation",
    "synthesis": "synthesis",
    "documents": "documents",
    "laws": "laws",
    "cli": "cli",
}

# Inclusive-time metrics: summed over outermost calls of the named functions.
INCLUSIVE = {
    "simulation.check_s": ("simulation.check_simulation",),
    "simulation.compose_s": ("simulation.compose",),
    "simulation.equivalent_s": ("simulation.equivalent",),
    "synthesis.region_s": ("synthesis.alfred_region", "synthesis.dominic_region"),
    "synthesis.strategy_s": ("synthesis.alfred_strategy", "synthesis.dominic_strategy"),
    "synthesis.max_sim_s": ("synthesis.max_simulation",),
    "documents.dump_s": ("documents.dump_document",),
    "documents.load_s": ("documents.load_document",),
}


class Tracer:
    """In-memory spans: id, parent id, op id, name, start and end.

    While ``active`` is false the wrappers call straight through and count
    nothing, so that the benchmark's own checks stay out of the trace.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ids = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self.op = -1
        self.active = True
        self._stack: list[int] = []
        self._next_id = 0

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, after=None):
        """``fn`` with a span around each call; ``after(result, args)`` counts."""
        nid = self.name_id(name)
        stack = self._stack
        clock = time.perf_counter
        ids, parents, ops = self.ids, self.parents, self.ops
        name_ids, starts, ends = self.name_ids, self.starts, self.ends

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ids.append(sid)
                parents.append(parent)
                ops.append(self.op)
                name_ids.append(nid)
                starts.append(start)
                ends.append(end)
            if after is not None:
                after(result, args)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.ids)

    # -- analysis ------------------------------------------------------------

    def layer_self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the time their children cover."""
        child_time: dict[int, float] = {}
        for sid, parent, start, end in zip(self.ids, self.parents, self.starts, self.ends):
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        layer_of_name = [n.split(".", 1)[0] for n in self.names]
        out = Counter()
        for sid, nid, start, end in zip(self.ids, self.name_ids, self.starts, self.ends):
            out[layer_of_name[nid]] += (end - start) - child_time.get(sid, 0.0)
        return out

    def calls_per_layer(self) -> Counter:
        per_name = Counter(self.name_ids)
        out = Counter()
        for nid, n in per_name.items():
            out[self.names[nid].split(".", 1)[0]] += n
        return out

    def inclusive_times(self) -> dict[str, float]:
        """Each INCLUSIVE metric: summed durations of its outermost spans."""
        parent_of = dict(zip(self.ids, self.parents))
        name_of = dict(zip(self.ids, self.name_ids))
        out = {}
        for metric, names in INCLUSIVE.items():
            group = {self._name_ids[n] for n in names if n in self._name_ids}
            total = 0.0
            for sid, nid, start, end in zip(self.ids, self.name_ids, self.starts, self.ends):
                if nid not in group:
                    continue
                p = parent_of[sid]
                while p >= 0 and name_of[p] not in group:
                    p = parent_of[p]
                if p < 0:
                    total += end - start
            out[metric] = total
        return out

    def write(self, path) -> None:
        """Gzipped, one span a line: id, parent, op, name, start and end in
        seconds."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            names = self.names
            for row in zip(self.ids, self.parents, self.ops, self.name_ids, self.starts, self.ends):
                sid, parent, op, nid, start, end = row
                fh.write(f"{sid}\t{parent}\t{op}\t{names[nid]}\t{start:.9f}\t{end:.9f}\n")


def _hook(cls, attr: str, tracer: Tracer, before=None, after=None) -> None:
    """Replace ``cls.attr`` by a wrapper that counts while the tracer is active.

    ``before(args)`` runs ahead of the original, ``after(self)`` once it has
    returned (for ``__init__``, on the finished object).
    """
    original = getattr(cls, attr)

    @functools.wraps(original)
    def counted(*args, **kwargs):
        if not tracer.active:
            return original(*args, **kwargs)
        if before is not None:
            before(args)
        result = original(*args, **kwargs)
        if after is not None:
            after(args[0])
        return result

    setattr(cls, attr, counted)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every polygame module, and the counters."""
    modules = {m: importlib.import_module(f"polygame.{m}") for m in LAYER_OF_MODULE}
    counts = tracer.counts

    def add(metric, measure):
        def after(result, args):
            counts[metric] += measure(result, args)
        return after

    after_hooks = {
        "synthesis.max_simulation": add("synthesis.pairs_kept", lambda r, a: len(r.apex)),
        "documents.dump_document": add("documents.bytes_out", lambda r, a: len(r.encode())),
        "documents.load_document": add("documents.bytes_in", lambda r, a: len(a[0].encode())),
        "laws.run_suite": add("laws.checks", lambda r, a: len(r)),
    }

    wrapped = {}
    for short, mod in modules.items():
        layer = LAYER_OF_MODULE[short]
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            span_name = f"{layer}.{name}"
            wrapped[obj] = tracer.wrap(obj, span_name, after_hooks.get(f"{short}.{name}"))
    for mod in [importlib.import_module("polygame"), *modules.values()]:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])

    def bump(metric, measure=lambda x: 1):
        def count(x):
            counts[metric] += measure(x)
        return count

    elements, limits = modules["elements"], modules["limits"]
    _hook(elements.Element, "__init__", tracer, before=bump("elements.built"))
    _hook(elements.Element, "__eq__", tracer, before=bump("elements.eq_calls"))
    elements.FiniteSet.__init__ = tracer.wrap(elements.FiniteSet.__init__, "elements.FiniteSet")
    _hook(elements.FiniteSet, "__init__", tracer, before=bump("elements.sets_built"))
    _hook(limits.SizeRefused, "__init__", tracer, before=bump("limits.refusals"))
    _hook(limits.SearchRefused, "__init__", tracer, before=bump("limits.refusals"))
    _hook(limits.EnumBudget, "charge", tracer, before=bump("limits.enum_charged", lambda a: a[1]))
    _hook(modules["games"].Game, "__init__", tracer,
          after=bump("games.rows_built", lambda g: len(g.next)))
    _hook(modules["simulation"].Simulation, "__init__", tracer,
          after=bump("simulation.apex_points", lambda s: len(s.apex)))
