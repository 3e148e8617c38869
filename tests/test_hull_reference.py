"""`hull` against its frozen reference in `hull_reference`.

The core's complement and the retraction check share one union-find over
the complement's edges, the leaf peeling reads the graph's own adjacency,
and a circle is traced by the same loop as the arcs between branch points.
The decomposition (core, branch points, segments, complement) and the
retraction verdict must be exactly those of the code they replaced.
"""

import random
from fractions import Fraction

from helpers import disguise_instances
from hull_reference import reference_decompose, reference_retracts_onto
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _connected_multigraphs

from mlsgraph import GraphError, MetricGraph, compute_core, random_graph
from mlsgraph.hull import _retracts_onto

LENGTHS = [1, 2, Fraction(1, 2), Fraction(2, 3), Fraction(7, 4)]
FAMILY = list(_connected_multigraphs(4, 5))


def _decompose(g):
    """The four parts, read through `compute_core` (segments and complement
    are built on first read)."""
    d = compute_core(g)
    return d.core, d.complement, d.branch_points, d.segments


def _shape(decompose, g):
    try:
        core, complement, branch, segments = decompose(g)
    except GraphError as exc:
        return str(exc)
    return (sorted(core.edge_ids), sorted(core.vertex_ids), sorted(branch),
            [(s.path.start, s.path.steps) for s in segments],
            [(sorted(tree.edge_ids), attach) for tree, attach in complement])


def _same_decomposition(g):
    assert _shape(_decompose, g) == _shape(reference_decompose, g)


def _circle(n, rng):
    """A circle of `n` edges with shuffled vertex ids, edge ids and edge
    orientations (one self-loop when n == 1)."""
    vs = rng.sample(range(3 * n), n)
    eids = rng.sample(range(3 * n), n)
    rows = []
    for i in range(n):
        u, v = vs[i], vs[(i + 1) % n]
        if rng.random() < 0.5:
            u, v = v, u
        rows.append((eids[i], u, v, rng.choice(LENGTHS)))
    return MetricGraph(vs, rows)


def test_family_decompositions_match():
    for g in FAMILY:
        _same_decomposition(g)


def test_circle_decompositions_match():
    rng = random.Random(18)
    for n in range(1, 9):
        for _ in range(4):
            _same_decomposition(_circle(n, rng))
    loop = MetricGraph([5], [(3, 5, 5, 2)])
    _same_decomposition(loop)
    assert _shape(_decompose, loop)[3] == [(5, ((3, False),))]


def test_random_and_disguised_decompositions_match():
    for seed in range(200):
        _same_decomposition(random_graph(seed, 2 + seed % 7, seed % 4, 6))
    for _, inst in disguise_instances(100):
        _same_decomposition(inst.graph)


@st.composite
def multigraphs(draw):
    """Up to 6 vertices and 8 edges, self-loops and parallel edges included;
    some draws are disconnected or have isolated vertices."""
    n = draw(st.integers(1, 6))
    ends = st.integers(0, n - 1)
    rows = [(eid, draw(ends), draw(ends), draw(st.sampled_from(LENGTHS)))
            for eid in draw(st.lists(st.integers(0, 11), unique=True, max_size=8))]
    return MetricGraph(range(n), rows)


@settings(max_examples=300, deadline=None)
@given(multigraphs())
def test_multigraph_decompositions_match(g):
    _same_decomposition(g)


def test_retraction_matches_on_every_edge_mask():
    queries = 0
    for g in FAMILY:
        edges = sorted(g.edge_ids)
        for mask in range(1 << len(edges)):
            chosen = {edges[i] for i in range(len(edges)) if mask >> i & 1}
            ends = {w for eid in chosen for w in g.edge(eid)[:2]}
            rest = sorted(g.vertex_ids - ends)
            # Without and with extra isolated subgraph vertices.
            for sub_v in (ends, ends | set(rest[:1]), ends | set(rest[1:]), set(g.vertex_ids)):
                assert _retracts_onto(g, sub_v, chosen) == reference_retracts_onto(g, sub_v, chosen)
                queries += 1
    assert queries > 50_000
