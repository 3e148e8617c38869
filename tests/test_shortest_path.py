"""Shortest paths: one cached search per source.

`shortest_path` reads every target off one search per (graph, source),
cached by `MetricGraph.shortest_steps`.  These tests hold it to the frozen
per-pair search in `shortest_path_reference`, on every ordered vertex pair
and on unknown vertices, and pin the distance ledger's work: a core holds
one cached search per branch point but the last.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from shortest_path_reference import reference_shortest_path

from mlsgraph import (MetricGraph, branch_point_map, compute_core, disguise, random_graph,
                      shortest_path)
from mlsgraph.graphs import DirectedEdge

# Few distinct lengths, so equal-length routes and their tie-break are common.
LENGTHS = st.sampled_from([Fraction(1, 2), 1, Fraction(3, 2), 2, 3])


@st.composite
def multigraphs(draw, vertices=st.integers(1, 6)):
    """Random rows over a few vertices: self-loops, parallel edges, isolated
    vertices and several components all occur."""
    n = draw(vertices)
    ends = st.integers(0, n - 1)
    rows = draw(st.lists(st.tuples(ends, ends, LENGTHS), max_size=10))
    return MetricGraph(range(n), [(eid, u, v, length) for eid, (u, v, length) in enumerate(rows)])


def _outcome(search, g, u, v):
    try:
        p = search(g, u, v)
    except Exception as exc:
        return type(exc), str(exc)
    return p.start, p.steps, p.length


def _assert_matches_reference(g):
    ids = sorted(g.vertex_ids)
    queried = ids + [max(ids, default=-1) + 1]  # the last id is unknown
    for u in queried:
        for v in queried:
            assert _outcome(shortest_path, g, u, v) == \
                _outcome(reference_shortest_path, g, u, v), (u, v)


def _disjoint_union(g, h):
    """`g` and a copy of `h` with its ids shifted past `g`'s."""
    dv, de = max(g.vertex_ids) + 1, max(g.edge_ids, default=-1) + 1
    rows = [(eid, rec.u, rec.v, rec.length) for eid, rec in g.edges_sorted()]
    rows += [(de + eid, dv + rec.u, dv + rec.v, rec.length) for eid, rec in h.edges_sorted()]
    return MetricGraph(set(g.vertex_ids) | {dv + v for v in h.vertex_ids}, rows)


def test_fixed_graphs_match_reference(theta, dumbbell, pendant_theta):
    # Parallel edges of equal length, a self-loop, an isolated vertex 3 and
    # a second component {4, 5}.
    g = MetricGraph(range(6), [(0, 0, 1, 1), (1, 0, 1, 1), (2, 1, 1, 2), (3, 1, 2, 2),
                               (4, 0, 2, 3), (5, 4, 5, 1)])
    for graph in (theta, dumbbell, pendant_theta, g):
        _assert_matches_reference(graph)
    assert shortest_path(g, 0, 2).steps == (DirectedEdge(0), DirectedEdge(3))
    assert _outcome(shortest_path, g, 0, 4)[1] == "vertex 4 is unreachable from 0"
    assert _outcome(shortest_path, g, 3, 9)[1] == "unknown vertex id 9"


@settings(max_examples=150, deadline=None)
@given(multigraphs())
def test_random_multigraphs_match_reference(g):
    _assert_matches_reference(g)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), vertices=st.integers(1, 7), extra=st.integers(0, 5),
       disguised=st.booleans(), apart=st.booleans())
def test_random_and_disguised_graphs_match_reference(seed, vertices, extra, disguised, apart):
    g = random_graph(seed, vertices, extra, 5)
    if disguised and extra:
        g = disguise(g, seed + 1).graph
    if apart:
        g = _disjoint_union(g, random_graph(seed + 2, 3, 1, 5))
    _assert_matches_reference(g)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_graphs_with_equal_ids_never_share_a_search(data):
    g1 = data.draw(multigraphs())
    rows = [(eid, rec.u, rec.v, data.draw(LENGTHS)) for eid, rec in g1.edges_sorted()]
    g2 = MetricGraph(g1.vertex_ids, rows)
    ids = sorted(g1.vertex_ids)
    for u in ids:
        for v in ids:
            for g in (g1, g2):
                assert _outcome(shortest_path, g, u, v) == \
                    _outcome(reference_shortest_path, g, u, v), (u, v)
        assert g1.shortest_steps(u) is not g2.shortest_steps(u)


def test_ledger_searches_once_per_branch_point_but_the_last():
    checked = 0
    for seed in range(1, 6):
        g = random_graph(seed, 8, 8, 10)
        inst = disguise(g, seed + 100)
        core1, core2 = compute_core(g), compute_core(inst.graph)
        match = branch_point_map(core1, inst.hom.source, core2, inst.hom.target, inst.hom)
        b1 = sorted(core1.branch_points)
        assert len(match.distance_ledger) == len(b1) * (len(b1) - 1) // 2
        assert set(core1.core._shortest) == set(b1[:-1])
        assert set(core2.core._shortest) == {match.forward[x] for x in b1[:-1]}
        checked += len(b1) > 2
    assert checked
