"""The core of a metric graph and its structure theory.

The core is the union of the supports of all cyclically reduced loops,
equivalently the minimal deformation retract; for a finite graph it is
what remains after iterated deletion of degree-1 vertices.  A non-empty
core decomposes into branch points (vertices of core-degree at least 3,
self-loops counting twice) and segments (maximal branch-free arcs).  The
complement of the core is a disjoint union of trees, each meeting the
core in exactly one attach vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import GraphError, MetricGraph, vertex_degree
from .paths import EdgePath


@dataclass(frozen=True)
class Segment:
    """Maximal branch-free arc of a core, stored in canonical orientation.

    Endpoints are branch points, except in the circle case where the whole
    core is a single closed segment (then x == y is the least core vertex).
    Loop segments at a single branch point also have x == y.
    """

    path: EdgePath

    @property
    def x(self) -> int:
        return self.path.start

    @property
    def y(self) -> int:
        return self.path.end

    @property
    def length(self) -> Fraction:
        return self.path.length

    @property
    def is_loop(self) -> bool:
        return self.x == self.y

    def __repr__(self) -> str:
        return f"Segment({self.x}->{self.y}, len {self.length})"


@dataclass(frozen=True)
class CoreDecomposition:
    graph: MetricGraph
    core: MetricGraph
    complement: tuple[tuple[MetricGraph, int], ...]
    branch_points: frozenset[int]
    segments: tuple[Segment, ...]

    @property
    def is_empty(self) -> bool:
        return not self.core.edge_ids and not self.core.vertex_ids


def compute_core(g: MetricGraph) -> CoreDecomposition:
    """Iteratively delete degree-1 vertices; decompose what remains.

    The core is empty iff `g` is a tree.  Raises on disconnected input.
    Computed once per graph: later calls wrap the same parts.
    """
    if g._core_parts is None:
        g._core_parts = _decompose(g)
    return CoreDecomposition(g, *g._core_parts)


def _decompose(g: MetricGraph):
    if not g.is_connected():
        raise GraphError("disconnected")
    alive_v = set(g.vertex_ids)
    alive_e = set(g.edge_ids)
    degree = {v: vertex_degree(g, v) for v in alive_v}
    incident: dict[int, set[int]] = {v: set() for v in alive_v}
    for eid in alive_e:
        rec = g.edge(eid)
        incident[rec.u].add(eid)
        incident[rec.v].add(eid)
    leaves = [v for v in alive_v if degree[v] == 1]
    while leaves:
        v = leaves.pop()
        if v not in alive_v or degree[v] != 1:
            continue
        (eid,) = (e for e in incident[v] if e in alive_e)
        rec = g.edge(eid)
        other = rec.v if rec.u == v else rec.u
        alive_v.discard(v)
        alive_e.discard(eid)
        degree[other] -= 1
        degree[v] = 0
        if degree[other] == 1:
            leaves.append(other)
    if len(alive_v) == 1 and not alive_e:
        alive_v = set()  # a tree prunes to a point: the core is empty

    core = g.subgraph(alive_e, extra_vertices=alive_v)
    # Attach points only exist for a non-empty core; a contractible graph is
    # its own (unattached) complement.
    complement = _complement_components(g, alive_v, alive_e) if alive_v else ()
    branch = frozenset(v for v in alive_v if degree[v] >= 3)
    return core, complement, branch, _segments(core, branch)


def _find(parent: dict[int, int], x: int) -> int:
    """Union-find root of `x` with path halving; absent keys are roots."""
    while parent.get(x, x) != x:
        parent[x] = parent.get(parent[x], parent[x])
        x = parent[x]
    return x


def _complement_components(g: MetricGraph, core_v: set[int], core_e: set[int]):
    dead_e = sorted(g.edge_ids - core_e)
    parent: dict[int, int] = {}

    for eid in dead_e:
        rec = g.edge(eid)
        parent.setdefault(rec.u, rec.u)
        parent.setdefault(rec.v, rec.v)
        parent[_find(parent, rec.u)] = _find(parent, rec.v)
    groups: dict[int, list[int]] = {}
    for eid in dead_e:
        groups.setdefault(_find(parent, g.edge(eid).u), []).append(eid)
    out = []
    for eids in groups.values():
        tree = g.subgraph(eids)
        attach = sorted(tree.vertex_ids & core_v)
        if len(attach) != 1:
            raise GraphError("complement component does not attach at a single point")
        out.append((tree, attach[0]))
    out.sort(key=lambda pair: (pair[1], min(pair[0].edge_ids)))
    return tuple(out)


def _canonical_arc(core: MetricGraph, start: int, steps: list) -> EdgePath:
    """The arc or its reverse, whichever has the lesser step tuple."""
    forward = tuple(steps)
    backward = tuple(s.reverse() for s in reversed(forward))
    if forward <= backward:
        return EdgePath(core, start, forward)
    return EdgePath(core, core.step_head(forward[-1]), backward)


def _segments(core: MetricGraph, branch: frozenset[int]) -> tuple[Segment, ...]:
    if not core.edge_ids:
        return ()
    if not branch:
        # Circle case: the whole core is one closed segment.
        base = min(core.vertex_ids)
        step = core.out_steps(base)[0]
        steps = [step]
        at = core.step_head(step)
        while at != base:
            steps.append(core.next_steps(steps[-1])[0])
            at = core.step_head(steps[-1])
        return (Segment(_canonical_arc(core, base, steps)),)
    # Each arc is traced once, from the first of its ends that is reached:
    # the out-step back along its last edge would trace it again, reversed.
    arcs = []
    traced: set[int] = set()
    for v in sorted(branch):
        for first in core.out_steps(v):
            if first.edge in traced:
                continue
            steps = [first]
            at = core.step_head(first)
            while at not in branch:
                steps.append(core.next_steps(steps[-1])[0])  # interior degree is exactly 2
                at = core.step_head(steps[-1])
            traced.add(steps[-1].edge)
            arcs.append(_canonical_arc(core, v, steps))
    arcs.sort(key=lambda p: p.steps)
    return tuple(Segment(p) for p in arcs)


def is_circle(decomp: CoreDecomposition) -> Fraction | None:
    """Circumference of the core if it is a circle (no branch points), else None."""
    if decomp.is_empty:
        raise GraphError("empty core")
    if decomp.branch_points:
        return None
    return decomp.core.total_length()


# -- retraction and loop-union checks ----------------------------------

def retraction_check(g: MetricGraph, sub: MetricGraph) -> bool:
    """True iff `g` deformation retracts to the subgraph `sub`.

    For graphs this holds iff every component of the complement is a tree
    meeting `sub` at exactly one vertex.
    """
    if not sub.vertex_ids:
        raise GraphError("empty subgraph")
    if not sub.is_connected():
        raise GraphError("subgraph is disconnected")
    for eid in sub.edge_ids:
        if eid not in g.edge_ids:
            raise GraphError(f"subgraph edge {eid} is not an edge of the graph")
    return _retracts_onto(g, set(sub.vertex_ids), set(sub.edge_ids))


def _retracts_onto(g: MetricGraph, sub_v: set[int], sub_e: set[int]) -> bool:
    extra_e = sorted(g.edge_ids - sub_e)
    parent: dict[int, int] = {}

    # Union endpoints of complement edges, never across sub vertices.
    comp_sizes: dict[int, list[int]] = {}
    for eid in extra_e:
        rec = g.edge(eid)
        for w in (rec.u, rec.v):
            parent.setdefault(w, w)
        if rec.u in sub_v and rec.v in sub_v:
            return False  # a complement edge joining two sub vertices closes a cycle
        if rec.u not in sub_v and rec.v not in sub_v:
            parent[_find(parent, rec.u)] = _find(parent, rec.v)
    # Isolated non-sub vertices cannot occur in a connected graph with edges.
    for v in g.vertex_ids - sub_v:
        if v not in parent:
            return False
    components: dict[int, dict] = {}
    for eid in extra_e:
        rec = g.edge(eid)
        anchor = rec.u if rec.u not in sub_v else rec.v
        if anchor in sub_v:
            return False
        comp = components.setdefault(_find(parent, anchor),
                                     {"edges": 0, "verts": set(), "attach": set()})
        comp["edges"] += 1
        for w in (rec.u, rec.v):
            if w in sub_v:
                comp["attach"].add(w)
            else:
                comp["verts"].add(w)
    for comp in components.values():
        if len(comp["attach"]) != 1:
            return False
        if comp["edges"] != len(comp["verts"]) + len(comp["attach"]) - 1:
            return False  # not a tree
    return True


def core_equals_loop_union(g: MetricGraph, max_edges: int, budget: int | None = None) -> bool:
    """Cross-validate the core against the definition as a union of loops.

    Enumerates all cyclically reduced loops with at most `max_edges` edges
    and compares the union of their supports with the core's edge set.
    Equality is guaranteed once max_edges >= 2 * |E(core)|.
    """
    from .oracle import _enumerate_loop_codes

    decomp = compute_core(g)
    return _edges_of(_enumerate_loop_codes(g, max_edges, budget)) == set(decomp.core.edge_ids)


def core_loop_union_agrees(g: MetricGraph, budget: int | None = None) -> bool:
    """Sufficient-depth form of `core_equals_loop_union`.

    The depth at which the loop union stabilizes is the longest shortest
    loop through any single core edge; one enumeration at that depth decides
    the comparison (the union is monotone in the depth, so equality there
    settles it for every larger budget as well).
    """
    from .oracle import _enumerate_loop_codes, covering_loop_depth

    decomp = compute_core(g)
    core_edges = set(decomp.core.edge_ids)
    if not core_edges:
        return not _enumerate_loop_codes(g, 2, budget)
    depth = covering_loop_depth(g, core_edges)
    if depth == 0:
        return False  # some core edge lies on no loop at all
    return _edges_of(_enumerate_loop_codes(g, depth, budget)) == core_edges


def _edges_of(walks) -> set[int]:
    """Edge ids on the given closed walks of step codes (2*edge + reversed)."""
    return {code >> 1 for walk in walks for code in walk}
