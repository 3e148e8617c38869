"""Reduced and cyclically reduced edge-path calculus.

An edge path is a chained sequence of directed edges with an explicit start
vertex (so the empty, constant path is representable).  A path is reduced
when no step is immediately undone by its reverse; every path reduces to a
unique reduced path in its endpoint-fixed homotopy class, computed here by
a single stack scan.  Cyclic paths represent free homotopy classes and are
stored in a canonical rotation.  `least_rotation_start` finds a least
rotation in linear time; it is the one such search in the package, behind
every canonical form (cyclic paths and the oracle's loops) and the spectrum
sweep's and table's choice of one word per class.

Concatenation helpers take their arguments in traversal order throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .graphs import DirectedEdge, GraphError, MetricGraph, parse_index


class PathError(ValueError):
    """Malformed path input or a path operation precondition violation."""


@dataclass(frozen=True)
class EdgePath:
    """A based path: start vertex plus chained directed edges."""

    graph: MetricGraph
    start: int
    steps: tuple[DirectedEdge, ...] = ()

    def __post_init__(self) -> None:
        g = self.graph
        if not g.has_vertex(self.start):
            raise PathError(f"unknown start vertex {self.start}")
        at = self.start
        edges = g._edges
        for step in self.steps:
            eid, rev = step
            try:
                u, v, _ = edges[eid]
            except KeyError:
                raise GraphError(f"unknown edge id {eid}") from None
            if (v if rev else u) != at:
                raise PathError(f"steps do not chain at vertex {at} ({step})")
            at = u if rev else v

    @property
    def end(self) -> int:
        if not self.steps:
            return self.start
        return self.graph.step_head(self.steps[-1])

    @property
    def length(self) -> Fraction:
        scaled = self.graph._scaled
        return Fraction(sum(scaled[eid] for eid, _ in self.steps), self.graph._scale)

    def is_empty(self) -> bool:
        return not self.steps

    def is_closed(self) -> bool:
        return self.end == self.start

    def reverse(self) -> "EdgePath":
        return EdgePath(self.graph, self.end, _reversed_steps(self.steps))

    def then(self, other: "EdgePath") -> "EdgePath":
        """Concatenation in traversal order: self first, then other."""
        if other.graph is not self.graph:
            raise PathError("paths live on different graphs")
        if other.start != self.end:
            raise PathError("concatenation endpoints do not chain")
        return EdgePath(self.graph, self.start, self.steps + other.steps)

    def support(self) -> frozenset[int]:
        return frozenset(s.edge for s in self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:
        return f"EdgePath({self.start}: {format_path(self)!r})"


def _reversed_steps(steps: Sequence[DirectedEdge]) -> tuple[DirectedEdge, ...]:
    return tuple([s.reverse() for s in reversed(steps)])


@dataclass(frozen=True)
class CyclicPath:
    """A closed edge path read up to rotation: `EdgePath`'s steps, length and
    support, with no start vertex.

    The stored tuple is the canonical representative: the rotation whose
    directed-edge sequence is lexicographically least.
    """

    graph: MetricGraph
    steps: tuple[DirectedEdge, ...]

    @staticmethod
    def from_steps(graph: MetricGraph, steps: Iterable[DirectedEdge]) -> "CyclicPath":
        steps = tuple(steps)
        if not steps:
            raise PathError("a cyclic path needs at least one edge")
        if not EdgePath(graph, graph.step_tail(steps[0]), steps).is_closed():
            raise PathError("cyclic steps do not chain")
        return CyclicPath(graph, least_rotation(steps))

    length = EdgePath.length
    support = EdgePath.support
    __len__ = EdgePath.__len__

    def __repr__(self) -> str:
        return f"CyclicPath({' '.join(map(str, self.steps))})"


def least_rotation_start(seq: Sequence) -> int:
    """The least index at which the lexicographically least rotation of a
    non-empty tuple or list starts, in linear time.

    Two candidate starts i < j are compared k items in.  At the first
    difference the greater start is dropped together with the k starts
    after it, each of whose rotations is greater than the one at the same
    offset from the other candidate.  A comparison either moves k on or
    drops k + 1 starts, so there are O(len(seq)) of them.
    """
    n = len(seq)
    if not n:
        raise ValueError("least_rotation_start() arg is an empty sequence")
    s = seq + seq
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i >= j:  # the candidates are j and i, or j and j + 1 if i met j
            i, j = j, max(i, j + 1)
        k = 0
    return i


def least_rotation(seq: Sequence) -> Sequence:
    """The lexicographically least rotation of a non-empty tuple or list."""
    i = least_rotation_start(seq)
    return seq[i:] + seq[:i]


# -- reduction --------------------------------------------------------

def is_reduced(p: EdgePath) -> bool:
    """True iff no step is immediately followed by its reverse."""
    return not any(a.edge == b.edge and a.rev != b.rev for a, b in zip(p.steps, p.steps[1:]))


def reduce_steps(steps: Iterable[DirectedEdge]) -> list[DirectedEdge]:
    stack: list[DirectedEdge] = []
    for step in steps:
        if stack and stack[-1].edge == step.edge and stack[-1].rev != step.rev:
            stack.pop()
        else:
            stack.append(step)
    return stack


def reduce_path(p: EdgePath) -> EdgePath:
    """The unique reduced path homotopic to `p` rel endpoints.

    Adjacent cancellation is confluent, so a single left-to-right stack scan
    reaches the normal form; the output traverses a subset of `p`'s edges.
    """
    return EdgePath(p.graph, p.start, tuple(reduce_steps(p.steps)))


def cyclic_reduce_based(loop: EdgePath) -> tuple[EdgePath, EdgePath]:
    """Split a based loop as conjugator + cyclically reduced core.

    Returns `(core, conjugator)` where `core` is a based loop at the
    conjugator's endpoint and `reduce_path(loop)` equals
    conjugator + core + reverse(conjugator) in traversal order.  The core
    is empty iff the loop is nullhomotopic.
    """
    if not loop.is_closed():
        raise PathError("not a loop: endpoints differ")
    steps = reduce_steps(loop.steps)
    i, j = 0, len(steps)
    while j - i >= 2 and steps[j - 1].edge == steps[i].edge and steps[j - 1].rev != steps[i].rev:
        i += 1
        j -= 1
    conjugator = EdgePath(loop.graph, loop.start, tuple(steps[:i]))
    core = EdgePath(loop.graph, conjugator.end, tuple(steps[i:j]))
    return core, conjugator


def cyclically_reduce(loop: EdgePath) -> tuple[CyclicPath | None, EdgePath]:
    """Cyclically reduced core of a based loop, as a canonical cyclic path.

    Returns `(core, conjugator)`; the core is None for a nullhomotopic loop.
    """
    based, conjugator = cyclic_reduce_based(loop)
    if based.is_empty():
        return None, conjugator
    return CyclicPath(loop.graph, least_rotation(based.steps)), conjugator


def chain_traversals(steps: Sequence[DirectedEdge], chains, where: dict) -> list[tuple]:
    """Split a step sequence into whole traversals of edge chains.

    `chains[k]` is a chain of distinct directed edges and `where` maps every
    edge id on a chain to (k, position along it).  Returns one (k, backward)
    pair per traversal, in order; raises PathError at a step on no chain or
    at a chain entered or left mid-way.
    """
    out = []
    i = 0
    while i < len(steps):
        step = steps[i]
        if step.edge not in where:
            raise PathError(f"step {step} is on no chain")
        k, pos = where[step.edge]
        backward = chains[k][pos] != step
        chain = _reversed_steps(chains[k]) if backward else chains[k]
        if steps[i:i + len(chain)] != chain:  # a whole chain starts with `step`
            raise PathError(f"step {step} enters a chain mid-way")
        out.append((k, backward))
        i += len(chain)
    return out


def map_chains(steps: Sequence[DirectedEdge], chains, where: dict,
               images) -> tuple[DirectedEdge, ...]:
    """The steps with each whole traversal of a chain (as `chain_traversals`
    splits them) replaced by its image: `images[k]` for `chains[k]` forward,
    their reverse for it backward.  Raises PathError as that split does."""
    out: list[DirectedEdge] = []
    for k, backward in chain_traversals(steps, chains, where):
        out.extend(_reversed_steps(images[k]) if backward else images[k])
    return tuple(out)


@dataclass(frozen=True)
class ConcatDecomposition:
    """Cancellation decomposition of a two-path concatenation.

    With all concatenations read in traversal order: p1 = q1 + r,
    p2 = reverse(r) + q2, and q1 + q2 is the reduced form of p1 + p2.
    """

    q1: EdgePath
    q2: EdgePath
    r: EdgePath


def concat_reduce(p1: EdgePath, p2: EdgePath) -> ConcatDecomposition:
    """Maximal cancellation between a reduced path and a reduced successor."""
    if not is_reduced(p1) or not is_reduced(p2):
        raise PathError("concat_reduce expects reduced inputs")
    if p1.end != p2.start:
        raise PathError("paths are not incident")
    n1, n2 = len(p1.steps), len(p2.steps)
    k = 0
    while k < n1 and k < n2 and p2.steps[k] == p1.steps[n1 - 1 - k].reverse():
        k += 1
    q1 = EdgePath(p1.graph, p1.start, p1.steps[: n1 - k])
    r = EdgePath(p1.graph, q1.end, p1.steps[n1 - k:])
    q2 = EdgePath(p2.graph, q1.end, p2.steps[k:])
    return ConcatDecomposition(q1, q2, r)


# -- shortest paths ---------------------------------------------------

def shortest_path(g: MetricGraph, u: int, v: int) -> EdgePath:
    """A distance minimizer from u to v.

    Among equal-length paths the one with lexicographically least directed
    edge sequence is returned, so the output is deterministic; it is always
    reduced (a minimizer cannot backtrack).  One search per source serves
    every target (`MetricGraph.shortest_steps`).
    """
    for x in (u, v):
        if not g.has_vertex(x):
            raise GraphError(f"unknown vertex id {x}")
    steps = g.shortest_steps(u).get(v)
    if steps is None:
        raise GraphError(f"vertex {v} is unreachable from {u}")
    return EdgePath(g, u, steps)


# -- literals ---------------------------------------------------------

def parse_path(g: MetricGraph, text: str, at: int | None = None) -> EdgePath:
    """Parse the path literal syntax: whitespace-separated `e<id>` / `e<id>^-1`.

    An empty literal needs the explicit base vertex `at`.
    """
    steps = []
    for token in text.split():
        rev = token.endswith("^-1")
        body = token[:-3] if rev else token
        if not body.startswith("e"):
            raise PathError(f"bad path token {token!r}")
        try:
            eid = parse_index(body[1:])
        except ValueError:
            raise PathError(f"bad path token {token!r}") from None
        steps.append(DirectedEdge(eid, rev))
    if not steps:
        if at is None:
            raise PathError("empty path literal needs an explicit base vertex")
        return EdgePath(g, at, ())
    start = g.step_tail(steps[0])
    if at is not None and at != start:
        raise PathError(f"path starts at {start}, not {at}")
    return EdgePath(g, start, tuple(steps))


def format_path(p: EdgePath | CyclicPath) -> str:
    return " ".join(str(s) for s in p.steps)
