"""Spans at mlsgraph's module boundaries, recorded from outside the library.

A traced run replaces every function that one mlsgraph module binds from
another by a wrapper that records a span: name, start, end and the span that
was open when it was called (its parent).  Each wrapper is installed in every
namespace that bound the name, the defining module included, so calls made
inside that module are recorded too.  A few boundaries are not found by that
scan and are named in `EXTRA_FUNCTIONS` and `METHODS`.  Nothing under `src/`
is edited.

Spans are kept in flat arrays in memory, written out once at the end of the
run, and reduced to counts, self times and phase times by `summarize`.
"""

from __future__ import annotations

import array
import functools
import gzip
import inspect
import types
from time import perf_counter_ns

MODULES = ("graphs", "paths", "fungroup", "hull", "oracle", "rigidity", "disguise", "cli")

# Boundaries the namespace scan cannot see: the CLI entry point (no module
# imports it) and the two oracle helpers that `hull` imports inside a function
# body, where the name is looked up in `oracle` at call time.
EXTRA_FUNCTIONS = (("cli", "main"), ("oracle", "_enumerate_loop_codes"),
                   ("oracle", "covering_loop_depth"))

# Constructors and methods: (module, class, attribute, span name).
METHODS = (("graphs", "MetricGraph", "__init__", "graphs.MetricGraph"),
           ("paths", "EdgePath", "__init__", "paths.EdgePath"),
           ("fungroup", "Hom", "is_certified_isomorphism",
            "fungroup.Hom.is_certified_isomorphism"))

RECONSTRUCT = "rigidity.reconstruct"
CLI_MAIN = "cli.main"

# phase name -> (span names, required parent span or None for any parent).
# A phase's time is the total (not self) time of its spans.
PHASES = {
    "validate": (("graphs.require_valid", "fungroup.Hom.is_certified_isomorphism"),
                 RECONSTRUCT),
    "core": (("hull.compute_core",), RECONSTRUCT),
    "sweep": (("fungroup.marked_length", "fungroup.apply_hom"), RECONSTRUCT),
    "branch_map": (("rigidity.branch_point_map",), None),
    "segment_map": (("rigidity.extend_isometry",), None),
    "induced_hom": (("rigidity.verify_induces_hom",), None),
    "parse": (("graphs.read_graph", "fungroup.read_hom"), CLI_MAIN),
    "basis": (("fungroup.spanning_tree",), CLI_MAIN),
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self._stack = [-1]
        # Words the spectrum sweep queried on the source graph, one list per
        # `reconstruct` call (see `_sweep_hooks`).
        self.swept_words: list[list[tuple[int, ...]]] = []
        self._source_graph = None

    def _name_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def wrap(self, label: str, fn, on_call=None):
        nid = self._name_id(label)
        name, parent, start, end, stack = (self.name, self.parent, self.start,
                                           self.end, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, stack[-1])
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()

        return traced

    def _sweep_hooks(self):
        """Record the source-side words of the spectrum sweep: `marked_length`
        calls made by `reconstruct` itself on its first graph."""
        reconstruct_id = self._name_id(RECONSTRUCT)

        def on_reconstruct(args, _parent):
            self._source_graph = args[0]
            self.swept_words.append([])

        def on_marked_length(args, parent):
            if (parent >= 0 and self.name[parent] == reconstruct_id
                    and args[0].graph is self._source_graph):
                self.swept_words[-1].append(tuple(args[1]))

        return {RECONSTRUCT: on_reconstruct, "fungroup.marked_length": on_marked_length}

    def install(self, pkg, mods: dict) -> None:
        """Wrap every module-boundary function of the freshly imported package.

        Generator functions are left alone: their span would close before any
        of their work ran.
        """
        namespaces = [pkg] + [mods[m] for m in MODULES]
        targets: dict[int, tuple[str, object]] = {}
        for ns in namespaces:
            for obj in vars(ns).values():
                home = getattr(obj, "__module__", "")
                if (isinstance(obj, types.FunctionType) and home.startswith("mlsgraph.")
                        and home != ns.__name__ and not obj.__name__.startswith("_")
                        and not inspect.isgeneratorfunction(obj)):
                    targets[id(obj)] = (f"{home[len('mlsgraph.'):]}.{obj.__name__}", obj)
        for module, fname in EXTRA_FUNCTIONS:
            obj = getattr(mods[module], fname)
            targets[id(obj)] = (f"{module}.{fname}", obj)

        hooks = self._sweep_hooks()
        wrappers = {key: self.wrap(label, fn, hooks.get(label))
                    for key, (label, fn) in targets.items()}
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and isinstance(obj, types.FunctionType):
                    setattr(ns, attr, wrappers[id(obj)])
        for module, cls_name, attr, label in METHODS:
            cls = getattr(mods[module], cls_name)
            setattr(cls, attr, self.wrap(label, getattr(cls, attr)))

    def __len__(self) -> int:
        return len(self.name)

    def summarize(self, ranges) -> dict:
        """Counts, self times, phase times and (span, parent) call counts over
        the spans `lo <= i < hi` of each `(lo, hi)` in `ranges`.

        Each range holds whole span trees.  Self time is a span's duration
        minus the durations of its direct children; times are in nanoseconds.
        """
        name, parent, start, end = self.name, self.parent, self.start, self.end
        labels = self.names
        calls = [0] * len(labels)
        self_ns = [0] * len(labels)
        total_ns = [0] * len(labels)
        phase_of = {}
        for phase, (members, required_parent) in PHASES.items():
            for m in members:
                phase_of.setdefault(m, []).append((phase, required_parent))
        phase_ns = {phase: 0 for phase in PHASES}
        edges: dict[tuple[str, str], int] = {}
        for lo, hi in ranges:
            child = [0] * (hi - lo)
            for i in range(lo, hi):
                p = parent[i]
                if p >= lo:
                    child[p - lo] += end[i] - start[i]
            for i in range(lo, hi):
                nid = name[i]
                dur = end[i] - start[i]
                calls[nid] += 1
                total_ns[nid] += dur
                self_ns[nid] += dur - child[i - lo]
                p = parent[i]
                for phase, required_parent in phase_of.get(labels[nid], ()):
                    if required_parent is None or \
                            (p >= 0 and labels[name[p]] == required_parent):
                        phase_ns[phase] += dur
                key = (labels[nid], labels[name[p]] if p >= 0 else "")
                edges[key] = edges.get(key, 0) + 1
        per_name = {labels[k]: {"calls": calls[k], "self_ns": self_ns[k],
                                "total_ns": total_ns[k]} for k in range(len(labels))}
        return {"spans": per_name, "phases_ns": phase_ns, "edges": edges}

    def write(self, path: str) -> None:
        """Write the spans, gzip-compressed, as four arrays back to back in
        native byte order: int32 name index, int32 parent span index (-1 for
        none), int64 start ns and int64 end ns (`time.perf_counter_ns`)."""
        with gzip.open(path, "wb", compresslevel=1) as f:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(f)
