import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsgraph import (GraphError, MetricGraph, attach_tree, format_length, graph_distance,
                      parse_length, random_graph, read_graph, subdivide_edge, validate_graph,
                      vertex_degree, write_graph)
from mlsgraph.graphs import DirectedEdge, random_tree


def test_parse_length_forms():
    assert parse_length("3/7") == Fraction(3, 7)
    assert parse_length("1.5") == Fraction(3, 2)
    assert parse_length("10") == 10
    with pytest.raises(GraphError):
        parse_length("abc")


def test_format_length_roundtrip():
    for value in (Fraction(3, 7), Fraction(4), Fraction(22, 11)):
        assert parse_length(format_length(value)) == value


edge_lengths = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4).map(
        lambda x: f"{x.numerator}/{x.denominator}"),
    st.decimals(min_value=-10**4, max_value=10**4, places=3).map(str))


@given(st.lists(edge_lengths, min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_scaled_length_is_exact(lengths):
    g = MetricGraph([0], [(k, 0, 0, x) for k, x in enumerate(lengths)])
    for k, x in enumerate(lengths):
        assert g.length(k) == (parse_length(x) if isinstance(x, str) else Fraction(x))
        assert g.scaled_length(k) == g.length(k) * g.length_scale


def test_directed_edge_reverse_involution():
    e = DirectedEdge(3, False)
    assert e.reverse().reverse() == e
    assert str(e) == "e3"
    assert str(e.reverse()) == "e3^-1"


def test_next_steps_continue_without_backtracking(dumbbell):
    loop, bridge = DirectedEdge(0), DirectedEdge(2)
    # At a self-loop only the loop's own reverse is a backtrack.
    assert dumbbell.next_steps(loop) == (loop, bridge)
    assert dumbbell.next_steps(loop.reverse()) == (loop.reverse(), bridge)
    assert dumbbell.next_steps(bridge) == (DirectedEdge(1), DirectedEdge(1, True))
    assert dumbbell.next_steps(bridge.reverse()) == (loop, loop.reverse())
    for v in dumbbell.vertex_ids:
        for step in dumbbell.out_steps(v):
            assert dumbbell.next_steps(step) is dumbbell.next_steps(step)


def test_validate_well_formed(theta):
    assert validate_graph(theta) == []


def test_validate_zero_length():
    g = MetricGraph([0, 1], [(0, 0, 1, 0)])
    assert any("non-positive length" in line for line in validate_graph(g))


def test_validate_disconnected():
    g = MetricGraph([0, 1, 2, 3, 4, 5],
                    [(0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 0, 1),
                     (3, 3, 4, 1), (4, 4, 5, 1), (5, 5, 3, 1)])
    assert any("disconnected" in line for line in validate_graph(g))


def test_validate_dangling_endpoint():
    g = MetricGraph([0], [(0, 0, 7, 1)])
    assert any("dangling endpoint" in line for line in validate_graph(g))


def test_duplicate_ids_rejected():
    with pytest.raises(GraphError):
        MetricGraph([0, 0], [])
    with pytest.raises(GraphError):
        MetricGraph([0, 1], [(0, 0, 1, 1), (0, 1, 0, 2)])


def test_vertex_degree(theta):
    assert vertex_degree(theta, 0) == 3
    assert vertex_degree(theta, 1) == 3


def test_degree_self_loop_counts_twice():
    g = MetricGraph([0], [(0, 0, 0, 1)])
    assert vertex_degree(g, 0) == 2


def test_degree_isolated_vertex():
    g = MetricGraph([0], [])
    assert vertex_degree(g, 0) == 0
    with pytest.raises(GraphError):
        vertex_degree(g, 5)


def test_subdivide_splits_lengths(theta):
    g = subdivide_edge(theta, 0, [Fraction(1, 2)])
    assert len(g.edge_ids) == 4
    new_edges = sorted(g.edge_ids - theta.edge_ids)
    assert [g.length(e) for e in new_edges] == [Fraction(1, 2), Fraction(1, 2)]
    assert 0 not in g.edge_ids


def test_subdivide_empty_fractions_renames_only(theta):
    g = subdivide_edge(theta, 0, [])
    assert len(g.edge_ids) == 3
    assert g.total_length() == theta.total_length()


def test_subdivide_thirds():
    g = MetricGraph([0, 1], [(0, 0, 1, 3), (1, 0, 1, 1)])
    out = subdivide_edge(g, 0, [Fraction(1, 3), Fraction(2, 3)])
    pieces = sorted(out.length(e) for e in out.edge_ids - {1})
    assert pieces == [1, 1, 1]


def test_subdivide_bad_fractions(theta):
    with pytest.raises(GraphError):
        subdivide_edge(theta, 0, [Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(GraphError):
        subdivide_edge(theta, 0, [Fraction(3, 2)])


def test_subdivide_preserves_distances():
    rng = random.Random(5)
    for seed in range(8):
        g = random_graph(seed, 5, 3, 6)
        eid = rng.choice(sorted(g.edge_ids))
        g2 = subdivide_edge(g, eid, [Fraction(1, 3)])
        for u in g.vertex_ids:
            for v in g.vertex_ids:
                assert graph_distance(g, u, v) == graph_distance(g2, u, v)


def test_attach_tree_changes_degree_only(theta):
    tree = random_tree(random.Random(1), 4)
    g = attach_tree(theta, 0, tree, 0)
    assert vertex_degree(g, 0) == vertex_degree(theta, 0) + vertex_degree(tree, 0)
    for u in theta.vertex_ids:
        for v in theta.vertex_ids:
            assert graph_distance(g, u, v) == graph_distance(theta, u, v)


def test_attach_empty_tree_is_identity(theta):
    g = attach_tree(theta, 1, MetricGraph([0], []), 0)
    assert g.edge_ids == theta.edge_ids
    assert g.vertex_ids == theta.vertex_ids


def test_attach_rejects_cycle(theta):
    cyc = MetricGraph([0, 1], [(0, 0, 1, 1), (1, 1, 0, 1)])
    with pytest.raises(GraphError):
        attach_tree(theta, 0, cyc, 0)


def test_random_graph_shape():
    g = random_graph(1, 5, 3, 10)
    assert len(g.vertex_ids) == 5
    assert len(g.edge_ids) == 7
    assert g.is_connected()
    assert g.rank() == 3
    assert all(0 < g.length(e) <= 10 for e in g.edge_ids)


def test_random_graph_deterministic():
    a = write_graph(random_graph(1, 5, 3, 10))
    b = write_graph(random_graph(1, 5, 3, 10))
    assert a == b
    assert write_graph(random_graph(2, 5, 3, 10)) != a


def test_random_graph_bad_params():
    with pytest.raises(GraphError):
        random_graph(1, 0, 3, 10)


def test_triangle_inequality_exhaustive():
    for seed in range(7):
        g = random_graph(seed, 4 + 2 * seed if seed < 5 else 12, 2, 8)
        vs = sorted(g.vertex_ids)
        dist = {(u, v): graph_distance(g, u, v) for u in vs for v in vs}
        for u in vs:
            for v in vs:
                assert dist[u, v] == dist[v, u]
                assert (dist[u, v] == 0) == (u == v)
                for w in vs:
                    assert dist[u, w] <= dist[u, v] + dist[v, w]


def test_graph_format_roundtrip(theta, dumbbell):
    for g in (theta, dumbbell, random_graph(3, 6, 2, 7)):
        text = write_graph(g)
        back = read_graph(text)
        assert write_graph(back) == text


def test_read_graph_rejects_bad_input():
    with pytest.raises(GraphError):
        read_graph("vertex 0\n")  # no header
    with pytest.raises(GraphError):
        read_graph("graph g\nvertex 0\nedge 0 0 1 1\n")  # unknown endpoint
    with pytest.raises(GraphError):
        read_graph("graph g\nvertex 0\nedge 0 0 0 0\n")  # zero length
    with pytest.raises(GraphError):
        read_graph("graph g\nvertex 0\nvertex 0\n")  # duplicate id


def test_read_graph_ignores_comments(theta):
    text = write_graph(theta, extra_comments=["truth branch 0 1"])
    assert write_graph(read_graph(text)) == write_graph(theta)


def test_float_lengths_rejected():
    with pytest.raises(GraphError, match="float"):
        MetricGraph([0, 1], [(0, 0, 1, 0.1)])
