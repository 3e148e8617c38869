"""Exact-arithmetic metric multigraphs.

Vertices are non-negative integer ids.  Edges are identified by integer
ids and carry a strictly positive rational length; parallel edges and
self-loops are allowed.  All lengths and distances are `fractions.Fraction`
values, so every comparison in the library is exact.  Graphs are immutable
after construction; every operation returns a new graph.
"""

from __future__ import annotations

import heapq
import math
import random
import re
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple


class GraphError(ValueError):
    """Malformed graph input or an operation precondition violation."""


# Digits a length's numerator and denominator may have: `format_length` prints
# them with `str`, which refuses longer ints at CPython's default limit.
MAX_LENGTH_DIGITS = 4300
_DIGIT_BOUND = 10 ** MAX_LENGTH_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def parse_length(text: str) -> Fraction:
    """Parse an edge length written as `p/q` or a decimal literal, exactly.

    Refuses a numerator or denominator of more than `MAX_LENGTH_DIGITS`
    digits.  A literal `p` or `p/q` of ASCII digits is read by `int` alone.
    Otherwise the exponent is read first: past that many digits plus the
    literal's length, every non-zero mantissa gives too many, so the value
    is never built."""
    num, slash, den = text.partition("/")
    den = den if slash else "1"
    if (num.isascii() and num.isdigit() and den.isascii() and den.isdigit()
            and max(len(num), len(den)) <= MAX_LENGTH_DIGITS and den.strip("0")):
        return Fraction(int(num), int(den))
    try:
        exp = _EXPONENT.search(text)
        if exp and abs(int(exp[1])) > MAX_LENGTH_DIGITS + len(text):
            value = Fraction(text[:exp.start(1)] + "0")
            too_long = value != 0
        else:
            value = Fraction(text)
            too_long = max(abs(value.numerator), value.denominator) >= _DIGIT_BOUND
    except (ValueError, ZeroDivisionError) as exc:
        raise GraphError(f"bad length literal {text!r}") from exc
    if too_long:
        raise GraphError(f"length literal {text!r} has more than "
                         f"{MAX_LENGTH_DIGITS} digits in its numerator or denominator")
    return value


def _exact(value: Fraction | int | str, what: str) -> Fraction:
    """A length or cut position as a `Fraction`; a float is refused as inexact."""
    if isinstance(value, float):
        raise GraphError(f"{what} are not exact; pass a Fraction, an int, or a literal string")
    if isinstance(value, str):
        return parse_length(value)
    return value if isinstance(value, Fraction) else Fraction(value)


def parse_index(text: str) -> int:
    """An id or index written in ASCII digits only.  `int` also reads a sign,
    `_` between digits and the digits of other scripts; this raises
    ValueError on them, as `int` does on other text."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not an index of ASCII digits: {text!r}")
    return int(text)


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
        """The opposite orientation, built by `tuple.__new__` (the named
        tuple's own `__new__` is a slower Python-level function)."""
        return tuple.__new__(DirectedEdge, (self[0], not self[1]))

    def __str__(self) -> str:
        return f"e{self.edge}^-1" if self.rev else f"e{self.edge}"


def _decode(code: int) -> DirectedEdge:
    """The step of a step-table code `2 * edge + rev`, built by `tuple.__new__`."""
    return tuple.__new__(DirectedEdge, (code >> 1, (code & 1) == 1))


class EdgeRecord(NamedTuple):
    u: int
    v: int
    length: Fraction


class MetricGraph:
    """A finite metric multigraph with exact rational edge lengths.

    The constructor is permissive about metric invariants (non-positive
    lengths, dangling endpoints, disconnection) so that `validate` can
    report on them; duplicate ids, ids that are not plain `int`s and `bool`
    endpoints are rejected outright because the representation cannot hold
    them (`write_graph` would write a `bool` as `True`).
    """

    # Built once per graph, on first use, by `is_connected` and by `hull`'s
    # `compute_core` and `CoreDecomposition` (its parts; the decomposition
    # holds the graph), as `_step_table` is; so construction pays nothing.
    _connected: bool | None = None
    _core_parts: tuple | None = None
    _segments: tuple | None = None
    _complement: tuple | None = None

    def __init__(
        self,
        vertices: Iterable[int],
        edges: Iterable[tuple[int, int, int, Fraction | int | str]],
        name: str = "g",
    ) -> None:
        vs: set[int] = set()
        for v in vertices:
            if type(v) is not int or v < 0:
                raise GraphError(f"vertex id must be a non-negative integer, got {v!r}")
            if v in vs:
                raise GraphError(f"duplicate vertex id {v}")
            vs.add(v)
        recs: dict[int, EdgeRecord] = {}
        for eid, u, v, length in edges:
            if type(eid) is not int or eid < 0:
                raise GraphError(f"edge id must be a non-negative integer, got {eid!r}")
            if type(u) is bool or type(v) is bool:
                raise GraphError(
                    f"edge {eid}: endpoints must be integer vertex ids, got {u!r} and {v!r}")
            if eid in recs:
                raise GraphError(f"duplicate edge id {eid}")
            if type(length) is not Fraction:
                length = _exact(length, f"edge {eid}: float lengths")
            recs[eid] = EdgeRecord(u, v, length)
        # Common denominator so path lengths can be summed as plain ints.
        scale = math.lcm(*(rec.length.denominator for rec in recs.values())) if recs else 1
        self._init_from(name, frozenset(vs), recs, scale,
                        {eid: rec.length.numerator * (scale // rec.length.denominator)
                         for eid, rec in recs.items()})

    def _init_from(self, name: str, vertices: frozenset[int], recs: dict[int, EdgeRecord],
                   scale: int, scaled: dict[int, int]) -> None:
        """The one constructor body, on checked parts: `scaled[eid]` is the
        length of `eid` times `scale`, any common multiple of the length
        denominators."""
        self.name = name
        self._vertices = vertices
        self._edges = recs
        adj: dict[int, list[DirectedEdge]] = {v: [] for v in vertices}
        for eid, (u, v, _) in sorted(recs.items()):  # in id order, so each list is sorted
            if u in vertices and v in vertices:
                adj[u].append(tuple.__new__(DirectedEdge, (eid, False)))
                adj[v].append(tuple.__new__(DirectedEdge, (eid, True)))
        self._adj = {v: tuple(out) for v, out in adj.items()}
        self._shortest: dict[int, dict[int, tuple[DirectedEdge, ...]]] = {}
        self._scale = scale
        self._scaled = scaled

    # -- basic access -------------------------------------------------

    @property
    def vertex_ids(self) -> frozenset[int]:
        return self._vertices

    @cached_property
    def edge_ids(self) -> frozenset[int]:
        """Edge ids; the frozenset is built on first use and kept."""
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

    @cached_property
    def _step_table(self) -> tuple[list[int], dict[int, int], dict[int, int], dict[int, tuple]]:
        """Sorted codes `2 * edge + rev` of the adjacency's steps, each code's
        head and tail, and its sorted non-backtracking successors (read-only)."""
        head, tail, succ = {}, {}, {}
        for v, out in self._adj.items():
            codes = tuple([2 * e + r for e, r in out])
            for i, o in enumerate(codes):  # `o ^ 1` enters v, then leaves by another code
                tail[o] = head[o ^ 1] = v
                succ[o ^ 1] = codes[:i] + codes[i + 1:]
        return sorted(tail), head, tail, succ

    def next_steps(self, step: DirectedEdge) -> tuple[DirectedEdge, ...]:
        """Steps that can follow `step` in a reduced path, sorted: decoded from the step table."""
        try:
            return tuple(map(_decode, self._step_table[3][2 * step[0] + step[1]]))
        except KeyError:
            self.step_head(step)  # GraphError on an unknown edge id
            raise GraphError(f"edge {step[0]} has an endpoint that is not a vertex") from None

    def shortest_steps(self, u: int) -> dict[int, tuple[DirectedEdge, ...]]:
        """Steps of a shortest path from `u` to every vertex it reaches, the
        lexicographically least among equal lengths: one Dijkstra over
        `(length, steps)` keys, run to the end and cached per source (do not
        modify the table).  A settled key is final, so each path equals the
        one a search stopped at that vertex returns.  Relaxation reads the
        adjacency, edge records and scaled lengths directly."""
        if u not in self._shortest:
            self.out_steps(u)  # GraphError on an unknown vertex
            adj, edges, scaled = self._adj, self._edges, self._scaled
            best = {u: (0, ())}
            heap = [(0, (), u)]
            settled: dict[int, tuple[DirectedEdge, ...]] = {}
            while heap:
                dist, steps, x = heapq.heappop(heap)
                if x in settled:
                    continue
                settled[x] = steps
                for step in adj[x]:
                    eid, rev = step
                    rec = edges[eid]
                    w = rec.u if rev else rec.v
                    if w in settled:
                        continue
                    cand = (dist + scaled[eid], steps + (step,))
                    if w not in best or cand < best[w]:
                        best[w] = cand
                        heapq.heappush(heap, (cand[0], cand[1], w))
            self._shortest[u] = settled
        return self._shortest[u]

    def step_tail(self, step: DirectedEdge) -> int:
        try:
            rec = self._edges[step[0]]
        except KeyError:
            raise GraphError(f"unknown edge id {step[0]}") from None
        return rec.v if step[1] else rec.u

    def step_head(self, step: DirectedEdge) -> int:
        try:
            rec = self._edges[step[0]]
        except KeyError:
            raise GraphError(f"unknown edge id {step[0]}") from None
        return rec.u if step[1] else rec.v

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
        """One search per graph, kept: the graph is immutable."""
        if self._connected is None:
            stack = [min(self._vertices)] if self._vertices else []
            seen = set(stack)
            while stack:
                v = stack.pop()
                for step in self._adj[v]:
                    w = self.step_head(step)
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            self._connected = len(seen) == len(self._vertices)
        return self._connected

    def is_tree(self) -> bool:
        return self.is_connected() and len(self._edges) == max(len(self._vertices) - 1, 0)

    def subgraph(self, edge_ids: Iterable[int], extra_vertices: Iterable[int] = ()) -> "MetricGraph":
        """Subgraph spanned by the given edges plus any extra isolated vertices.

        Derived from this graph without re-validation: it reuses the edge
        records and the scaled lengths, over this graph's length scale."""
        recs = {eid: self.edge(eid) for eid in sorted(set(edge_ids))}
        verts = set(extra_vertices)
        for rec in recs.values():
            verts.update((rec.u, rec.v))
        for v in verts:
            if v not in self._vertices:
                raise GraphError(f"unknown vertex id {v}")
        sub = MetricGraph.__new__(MetricGraph)
        sub._init_from(f"{self.name}-sub", frozenset(verts), recs, self._scale,
                       {eid: self._scaled[eid] for eid in recs})
        return sub

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
        if rec.length.numerator <= 0:
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
    cuts = [_exact(f, "float cut positions") for f in fractions]
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


# Random lengths are p/q with q at most RANDOM_DEN_BOUND; a random tree's
# lengths are at most RANDOM_TREE_LENGTH_BOUND.
RANDOM_DEN_BOUND = 6
RANDOM_TREE_LENGTH_BOUND = 4


def random_tree(rng: random.Random, size: int) -> MetricGraph:
    """Random tree on `size` vertices with random rational edge lengths."""
    return MetricGraph(range(size), _random_tree_rows(rng, size, RANDOM_TREE_LENGTH_BOUND),
                       name="tree")


def _random_tree_rows(rng: random.Random, size: int,
                      length_bound: int) -> list[tuple[int, int, int, Fraction]]:
    """Edge `i - 1` joins vertex `i` to a uniform earlier vertex, for each
    `i` in 1..size-1; the parent is drawn before the length."""
    return [(i - 1, rng.randrange(i), i, _random_length(rng, length_bound))
            for i in range(1, size)]


def _random_length(rng: random.Random, length_bound: int) -> Fraction:
    den = rng.randint(1, RANDOM_DEN_BOUND)
    num = rng.randint(1, length_bound * den)
    return Fraction(num, den)


def random_graph(seed: int, vertices: int, extra_edges: int, length_bound: int) -> MetricGraph:
    """Deterministic random connected multigraph.

    A random spanning tree plus `extra_edges` uniformly random edges
    (self-loops and parallel edges allowed); lengths are uniform random
    rationals in (0, length_bound] with denominator at most `RANDOM_DEN_BOUND`.
    """
    if vertices <= 0 or extra_edges < 0 or length_bound <= 0:
        raise GraphError("random_graph parameters must be positive")
    rng = random.Random(seed)
    rows = _random_tree_rows(rng, vertices, length_bound)
    for eid in range(vertices - 1, vertices - 1 + extra_edges):
        u = rng.randrange(vertices)
        v = rng.randrange(vertices)
        rows.append((eid, u, v, _random_length(rng, length_bound)))
    return MetricGraph(range(vertices), rows, name=f"rand-{seed}")


# -- text format ------------------------------------------------------

def write_graph(g: MetricGraph, extra_comments: Iterable[str] = ()) -> str:
    """Canonical line-oriented text form of a graph.  The name must be one
    non-empty field without `#`, so that `read_graph` gives it back."""
    if not g.name or any(c.isspace() or c == "#" for c in g.name):
        raise GraphError(f"graph name {g.name!r} is empty or holds whitespace or '#'")
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
                # A bare header names the graph `g`; ValueError on an extra field.
                _, name = fields if len(fields) > 1 else (kind, "g")
            elif kind == "vertex":
                _, v = fields  # ValueError on a missing or extra field
                vertices.append(parse_index(v))
            elif kind == "edge":
                _, eid, u, v, length = fields
                eid, u, v = parse_index(eid), parse_index(u), parse_index(v)
                length = parse_length(length)
                if length.numerator <= 0:
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
