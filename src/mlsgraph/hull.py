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

from .graphs import GraphError, MetricGraph, _decode, vertex_degree
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
    """The core, its branch points, and two parts built on first read, once
    per graph: `segments`, and `complement`, which has one `(tree, attach)`
    entry per core vertex with complement edges, sorted by `attach`: all the
    edges hanging there, as one tree.  The core of
    `MetricGraph(range(4), [(0,0,0,1),(1,0,1,1),(2,0,2,1),(3,1,3,1)])` is the
    loop 0; its complement is the single entry of edges [1, 2, 3] at 0."""

    graph: MetricGraph
    core: MetricGraph
    branch_points: frozenset[int]

    @property
    def is_empty(self) -> bool:
        return not self.core.edge_ids and not self.core.vertex_ids

    @property
    def segments(self) -> tuple[Segment, ...]:
        g = self.graph
        if g._segments is None:
            g._segments = _segments(self.core, self.branch_points)
        return g._segments

    @property
    def complement(self) -> tuple[tuple[MetricGraph, int], ...]:
        g = self.graph
        if g._complement is None:
            # Attach points only exist for a non-empty core; a contractible
            # graph is its own (unattached) complement.
            g._complement = (_complement_components(g, self.core.vertex_ids, self.core.edge_ids)
                             if self.core.vertex_ids else ())
        return g._complement


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
    leaves = [v for v in alive_v if degree[v] == 1]
    while leaves:
        v = leaves.pop()
        if degree[v] != 1:
            continue  # listed once, but its last edge went with its neighbour
        (step,) = (s for s in g.out_steps(v) if s.edge in alive_e)
        other = g.step_head(step)
        alive_v.discard(v)
        alive_e.discard(step.edge)
        degree[other] -= 1
        if degree[other] == 1:
            leaves.append(other)
    if len(alive_v) == 1 and not alive_e:
        alive_v = set()  # a tree prunes to a point: the core is empty

    core = g.subgraph(alive_e, extra_vertices=alive_v)
    return core, frozenset(v for v in alive_v if degree[v] >= 3)


def _find(parent: dict[int, int], x: int) -> int:
    """Union-find root of `x` with path halving; absent keys are roots."""
    while parent.get(x, x) != x:
        parent[x] = parent.get(parent[x], parent[x])
        x = parent[x]
    return x


def _complement_groups(g: MetricGraph, sub_e: set[int]) -> list[list[int]]:
    """The edges of `g` off `sub_e`, sorted, in connected groups: two edges
    are in one group when they share an endpoint, on the subgraph or not."""
    off = sorted(g.edge_ids - sub_e)
    parent: dict[int, int] = {}
    for eid in off:
        rec = g.edge(eid)
        parent[_find(parent, rec.u)] = _find(parent, rec.v)
    groups: dict[int, list[int]] = {}
    for eid in off:
        groups.setdefault(_find(parent, g.edge(eid).u), []).append(eid)
    return list(groups.values())


def _complement_components(g: MetricGraph, core_v: set[int], core_e: set[int]):
    out = []
    for eids in _complement_groups(g, core_e):
        tree = g.subgraph(eids)
        attach = sorted(tree.vertex_ids & core_v)
        if len(attach) != 1:
            raise GraphError("complement component does not attach at a single point")
        out.append((tree, attach[0]))
    out.sort(key=lambda pair: pair[1])  # groups sharing an attach vertex are one group
    return tuple(out)


def _canonical_arc(core: MetricGraph, start: int, walk: list[int]) -> EdgePath:
    """The arc of step codes or its reverse, whichever is less (codes sort as steps do)."""
    back = [c ^ 1 for c in reversed(walk)]
    if walk <= back:
        return EdgePath._chained(core, start, tuple(map(_decode, walk)))
    return EdgePath._chained(core, core._step_table[1][walk[-1]], tuple(map(_decode, back)))


def _segments(core: MetricGraph, branch: frozenset[int]) -> tuple[Segment, ...]:
    if not core.edge_ids:
        return ()
    # Arcs end at branch points, a circle's one arc at its least vertex.
    # Each is traced once along the step table, from the first of its ends
    # reached: the out-step back along its last edge would trace it again.
    ends = branch or {min(core.vertex_ids)}
    _, head, _, succ = core._step_table
    arcs = []
    traced: set[int] = set()
    for v in sorted(ends):
        for e, r in core.out_steps(v):
            if e in traced:
                continue
            walk = [2 * e + r]
            while head[walk[-1]] not in ends:
                walk.append(succ[walk[-1]][0])  # interior degree is exactly 2
            traced.add(walk[-1] >> 1)
            arcs.append(_canonical_arc(core, v, walk))
    return tuple(Segment(p) for p in sorted(arcs, key=lambda p: p.steps))


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
    meeting `sub` at exactly one vertex: the rule that shapes a core's
    complement, applied to any subgraph.
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
    """Each complement group is a tree with exactly one vertex on the
    subgraph, and the groups and the subgraph cover the vertices of `g`."""
    for eid in g.edge_ids - sub_e:
        rec = g.edge(eid)
        if rec.u in sub_v and rec.v in sub_v:
            return False  # closes a cycle; cheaper to refuse here than per group
    covered = set(sub_v)
    for eids in _complement_groups(g, sub_e):
        verts = {w for eid in eids for w in g.edge(eid)[:2]}
        if len(verts & sub_v) != 1 or len(eids) != len(verts) - 1:
            return False
        covered |= verts
    return covered >= g.vertex_ids


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
        return False  # no core edge lies on a loop, so the union is empty
    return _edges_of(_enumerate_loop_codes(g, depth, budget)) == core_edges


def _edges_of(walks) -> set[int]:
    """Edge ids on the given closed walks of step codes (2*edge + reversed)."""
    return {code >> 1 for walk in walks for code in walk}
