"""Exact-arithmetic metric multigraphs.

Vertices are non-negative integer ids.  Edges are identified by integer
ids and carry a strictly positive rational length; parallel edges and
self-loops are allowed.  All lengths and distances are `fractions.Fraction`
values, so every comparison in the library is exact.  Graphs are immutable
after construction; every operation returns a new graph.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple


class GraphError(ValueError):
    """Malformed graph input or an operation precondition violation."""


def parse_length(text: str) -> Fraction:
    """Parse an edge length written as `p/q` or a decimal literal, exactly."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise GraphError(f"bad length literal {text!r}") from exc
    return value


def format_length(value: Fraction) -> str:
    """Canonical text form of a rational length (`p` or `p/q`)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class DirectedEdge(NamedTuple):
    """An edge id together with a traversal orientation.

    Tuple ordering (edge id first, forward before reverse) is the lexicographic
    order used everywhere for deterministic tie-breaking.
    """

    edge: int
    rev: bool = False

    def reverse(self) -> "DirectedEdge":
        return DirectedEdge(self.edge, not self.rev)

    def __str__(self) -> str:
        return f"e{self.edge}^-1" if self.rev else f"e{self.edge}"


class EdgeRecord(NamedTuple):
    u: int
    v: int
    length: Fraction


class MetricGraph:
    """A finite metric multigraph with exact rational edge lengths.

    The constructor is permissive about metric invariants (non-positive
    lengths, dangling endpoints, disconnection) so that `validate` can
    report on them; duplicate ids and non-integer ids are rejected outright
    because the representation cannot hold them.
    """

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[tuple[int, int, int, Fraction | int | str]],
        name: str = "g",
    ) -> None:
        self.name = name
        vs: set[int] = set()
        for v in vertices:
            if not isinstance(v, int) or v < 0:
                raise GraphError(f"vertex id must be a non-negative integer, got {v!r}")
            if v in vs:
                raise GraphError(f"duplicate vertex id {v}")
            vs.add(v)
        self._vertices = frozenset(vs)
        recs: dict[int, EdgeRecord] = {}
        for eid, u, v, length in edges:
            if not isinstance(eid, int) or eid < 0:
                raise GraphError(f"edge id must be a non-negative integer, got {eid!r}")
            if eid in recs:
                raise GraphError(f"duplicate edge id {eid}")
            if isinstance(length, str):
                length = parse_length(length)
            if isinstance(length, float):
                raise GraphError(
                    f"edge {eid}: float lengths are not exact; pass a Fraction, "
                    f"an int, or a literal string")
            recs[eid] = EdgeRecord(u, v, length if isinstance(length, Fraction)
                                   else Fraction(length))
        self._edges = recs

        adj: dict[int, list[DirectedEdge]] = {v: [] for v in self._vertices}
        for eid, rec in recs.items():
            if rec.u in self._vertices and rec.v in self._vertices:
                adj[rec.u].append(DirectedEdge(eid, False))
                adj[rec.v].append(DirectedEdge(eid, True))
        self._adj = {v: tuple(sorted(out)) for v, out in adj.items()}
        self._next: dict[DirectedEdge, tuple[DirectedEdge, ...]] = {}

        # Common denominator so path lengths can be summed as plain ints.
        scale = math.lcm(*(rec.length.denominator for rec in recs.values())) if recs else 1
        self._scale = scale
        self._scaled = {eid: rec.length.numerator * (scale // rec.length.denominator)
                        for eid, rec in recs.items()}

    # -- basic access -------------------------------------------------

    @property
    def vertex_ids(self) -> frozenset[int]:
        return self._vertices

    @property
    def edge_ids(self) -> frozenset[int]:
        return frozenset(self._edges)

    def edge(self, eid: int) -> EdgeRecord:
        try:
            return self._edges[eid]
        except KeyError:
            raise GraphError(f"unknown edge id {eid}") from None

    def edges_sorted(self) -> Iterator[tuple[int, EdgeRecord]]:
        for eid in sorted(self._edges):
            yield eid, self._edges[eid]

    def has_vertex(self, v: int) -> bool:
        return v in self._vertices

    def out_steps(self, v: int) -> tuple[DirectedEdge, ...]:
        """Directed edges leaving `v`, sorted; a self-loop appears twice."""
        try:
            return self._adj[v]
        except KeyError:
            raise GraphError(f"unknown vertex id {v}") from None

    def next_steps(self, step: DirectedEdge) -> tuple[DirectedEdge, ...]:
        """Steps that can follow `step` in a reduced path, sorted; cached."""
        if step not in self._next:
            back = step.reverse()
            self._next[step] = tuple(s for s in self.out_steps(self.step_head(step)) if s != back)
        return self._next[step]

    def step_tail(self, step: DirectedEdge) -> int:
        rec = self.edge(step.edge)
        return rec.v if step.rev else rec.u

    def step_head(self, step: DirectedEdge) -> int:
        rec = self.edge(step.edge)
        return rec.u if step.rev else rec.v

    def length(self, eid: int) -> Fraction:
        return self.edge(eid).length

    def scaled_length(self, eid: int) -> int:
        return self._scaled[eid]

    @property
    def length_scale(self) -> int:
        return self._scale

    def total_length(self) -> Fraction:
        return Fraction(sum(self._scaled.values()), self._scale)

    def rank(self) -> int:
        """First Betti number |E| - |V| + 1 of a connected graph."""
        if not self._vertices:
            return 0
        return len(self._edges) - len(self._vertices) + 1

    def __repr__(self) -> str:
        return f"MetricGraph({self.name!r}, {len(self._vertices)}V, {len(self._edges)}E)"

    # -- structure ----------------------------------------------------

    def is_connected(self) -> bool:
        if len(self._vertices) <= 1:
            return True
        start = min(self._vertices)
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for step in self._adj.get(v, ()):
                w = self.step_head(step)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self._vertices)

    def is_tree(self) -> bool:
        return self.is_connected() and len(self._edges) == max(len(self._vertices) - 1, 0)

    def subgraph(self, edge_ids: Iterable[int], extra_vertices: Iterable[int] = ()) -> "MetricGraph":
        """Subgraph spanned by the given edges plus any extra isolated vertices."""
        eids = sorted(set(edge_ids))
        verts = set(extra_vertices)
        rows = []
        for eid in eids:
            rec = self.edge(eid)
            verts.update((rec.u, rec.v))
            rows.append((eid, rec.u, rec.v, rec.length))
        for v in verts:
            if v not in self._vertices:
                raise GraphError(f"unknown vertex id {v}")
        return MetricGraph(verts, rows, name=f"{self.name}-sub")

    def relabeled(self, vertex_map: dict[int, int], edge_map: dict[int, int],
                  flip_edges: Iterable[int] = (), name: str | None = None) -> "MetricGraph":
        """Rename vertex and edge ids; edges in `flip_edges` swap endpoints."""
        flips = set(flip_edges)
        rows = []
        for eid, rec in self._edges.items():
            u, v = vertex_map[rec.u], vertex_map[rec.v]
            if eid in flips:
                u, v = v, u
            rows.append((edge_map[eid], u, v, rec.length))
        return MetricGraph(
            (vertex_map[v] for v in self._vertices), rows,
            name=self.name if name is None else name,
        )


# -- validation -------------------------------------------------------

def validate_graph(g: MetricGraph) -> list[str]:
    """Return a list of invariant violations; empty iff `g` is well formed."""
    report = []
    for eid, rec in g.edges_sorted():
        if rec.length <= 0:
            report.append(f"non-positive length on edge {eid}")
        if not g.has_vertex(rec.u) or not g.has_vertex(rec.v):
            report.append(f"dangling endpoint on edge {eid}")
    if not g.is_connected():
        report.append("disconnected")
    return report


def require_valid(g: MetricGraph) -> None:
    report = validate_graph(g)
    if report:
        raise GraphError("; ".join(report))


def vertex_degree(g: MetricGraph, v: int) -> int:
    """Number of edge-ends incident to `v`; a self-loop contributes 2."""
    return len(g.out_steps(v))


# -- constructions ----------------------------------------------------

def subdivide_edge(g: MetricGraph, eid: int, fractions: Iterable[Fraction]) -> MetricGraph:
    """Replace edge `eid` by a chain of edges through fresh degree-2 vertices.

    `fractions` are the interior cut positions, strictly increasing in (0,1);
    the total length is preserved exactly, so the result is isometric to `g`.
    """
    cuts = [Fraction(f) for f in fractions]
    for a, b in zip(cuts, cuts[1:]):
        if not a < b:
            raise GraphError("subdivision fractions must be strictly increasing")
    if cuts and not (0 < cuts[0] and cuts[-1] < 1):
        raise GraphError("subdivision fractions must lie strictly inside (0,1)")
    rec = g.edge(eid)
    next_v = max(g.vertex_ids, default=-1) + 1
    next_e = max(g.edge_ids, default=-1) + 1
    chain_vertices = [rec.u] + [next_v + i for i in range(len(cuts))] + [rec.v]
    breaks = [Fraction(0)] + cuts + [Fraction(1)]
    rows = [(oe, orc.u, orc.v, orc.length) for oe, orc in g.edges_sorted() if oe != eid]
    for i in range(len(breaks) - 1):
        piece = rec.length * (breaks[i + 1] - breaks[i])
        rows.append((next_e + i, chain_vertices[i], chain_vertices[i + 1], piece))
    verts = set(g.vertex_ids) | set(chain_vertices)
    return MetricGraph(verts, rows, name=g.name)


def subdivision_chain(g: MetricGraph, eid: int, cut_count: int) -> tuple[DirectedEdge, ...]:
    """Directed chain (tail to head of the original edge) that `subdivide_edge`
    with `cut_count` cuts allocates for edge `eid`."""
    next_e = max(g.edge_ids, default=-1) + 1
    return tuple(DirectedEdge(next_e + i, False) for i in range(cut_count + 1))


def attach_tree(g: MetricGraph, v: int, tree: MetricGraph, root: int) -> MetricGraph:
    """Glue `tree` to `g` by identifying `root` with vertex `v` of `g`.

    The tree is validated as connected and acyclic; its ids are relabeled
    to fresh ones, so the result's core coincides with the core of `g`.
    """
    if not g.has_vertex(v):
        raise GraphError(f"unknown vertex id {v}")
    if not tree.has_vertex(root):
        raise GraphError(f"unknown tree root {root}")
    if not tree.is_connected():
        raise GraphError("attached tree is disconnected")
    if len(tree.edge_ids) != max(len(tree.vertex_ids) - 1, 0):
        raise GraphError("tree contains a cycle")
    next_v = max(g.vertex_ids, default=-1) + 1
    next_e = max(g.edge_ids, default=-1) + 1
    vmap = {}
    for w in sorted(tree.vertex_ids):
        if w == root:
            vmap[w] = v
        else:
            vmap[w] = next_v
            next_v += 1
    rows = [(eid, rec.u, rec.v, rec.length) for eid, rec in g.edges_sorted()]
    for i, (eid, rec) in enumerate(tree.edges_sorted()):
        rows.append((next_e + i, vmap[rec.u], vmap[rec.v], rec.length))
    verts = set(g.vertex_ids) | set(vmap.values())
    return MetricGraph(verts, rows, name=g.name)


def random_tree(rng: random.Random, size: int, length_bound: int = 4, den_bound: int = 6) -> MetricGraph:
    """Random tree on `size` vertices with random rational edge lengths."""
    rows = []
    for i in range(1, size):
        parent = rng.randrange(i)
        rows.append((i - 1, parent, i, _random_length(rng, length_bound, den_bound)))
    return MetricGraph(range(size), rows, name="tree")


def _random_length(rng: random.Random, length_bound: int, den_bound: int) -> Fraction:
    den = rng.randint(1, den_bound)
    num = rng.randint(1, length_bound * den)
    return Fraction(num, den)


def random_graph(seed: int, vertices: int, extra_edges: int, length_bound: int,
                 den_bound: int = 6) -> MetricGraph:
    """Deterministic random connected multigraph.

    A random spanning tree plus `extra_edges` uniformly random edges
    (self-loops and parallel edges allowed); lengths are uniform random
    rationals in (0, length_bound] with denominator at most `den_bound`.
    """
    if vertices <= 0 or extra_edges < 0 or length_bound <= 0:
        raise GraphError("random_graph parameters must be positive")
    rng = random.Random(seed)
    rows = []
    eid = 0
    for i in range(1, vertices):
        parent = rng.randrange(i)
        rows.append((eid, parent, i, _random_length(rng, length_bound, den_bound)))
        eid += 1
    for _ in range(extra_edges):
        u = rng.randrange(vertices)
        v = rng.randrange(vertices)
        rows.append((eid, u, v, _random_length(rng, length_bound, den_bound)))
        eid += 1
    return MetricGraph(range(vertices), rows, name=f"rand-{seed}")


# -- text format ------------------------------------------------------

def write_graph(g: MetricGraph, extra_comments: Iterable[str] = ()) -> str:
    """Canonical line-oriented text form of a graph."""
    lines = [f"graph {g.name}"]
    for v in sorted(g.vertex_ids):
        lines.append(f"vertex {v}")
    for eid, rec in g.edges_sorted():
        lines.append(f"edge {eid} {rec.u} {rec.v} {format_length(rec.length)}")
    for comment in extra_comments:
        lines.append(f"# {comment}")
    return "\n".join(lines) + "\n"


def read_graph(text: str) -> MetricGraph:
    """Parse the graph text format; rejects duplicate ids, unknown endpoints
    and non-positive lengths."""
    name = None
    vertices: list[int] = []
    rows: list[tuple[int, int, int, Fraction]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "graph":
                if name is not None:
                    raise GraphError("repeated graph header")
                name = fields[1] if len(fields) > 1 else "g"
            elif kind == "vertex":
                vertices.append(int(fields[1]))
            elif kind == "edge":
                eid, u, v = int(fields[1]), int(fields[2]), int(fields[3])
                length = parse_length(fields[4])
                if length <= 0:
                    raise GraphError(f"non-positive length on edge {eid}")
                rows.append((eid, u, v, length))
            else:
                raise GraphError(f"unknown directive {kind!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, GraphError):
                raise GraphError(f"line {lineno}: {exc}") from None
            raise GraphError(f"line {lineno}: malformed {kind!r} line") from None
    if name is None:
        raise GraphError("missing graph header")
    g = MetricGraph(vertices, rows, name=name)
    for eid, rec in g.edges_sorted():
        if not g.has_vertex(rec.u) or not g.has_vertex(rec.v):
            raise GraphError(f"edge {eid} references an unknown endpoint")
    return g


def read_graph_comments(text: str, prefix: str) -> list[list[str]]:
    """Fields of `# <prefix> ...` comment lines (used for ground-truth sidecars)."""
    found = []
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped.startswith("#"):
            continue
        fields = stripped[1:].split()
        if fields and fields[0] == prefix:
            found.append(fields[1:])
    return found
