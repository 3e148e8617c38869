import random
from itertools import combinations

import pytest

from mlsgraph import (GraphError, MetricGraph, attach_tree, compute_core,
                      core_equals_loop_union, core_loop_union_agrees, is_circle,
                      random_graph, retraction_check)
from mlsgraph.graphs import random_tree, vertex_degree


def test_core_of_theta_is_theta(theta):
    d = compute_core(theta)
    assert set(d.core.edge_ids) == {0, 1, 2}
    assert d.branch_points == {0, 1}
    assert not d.complement
    assert sorted(s.length for s in d.segments) == [1, 2, 3]


def test_core_prunes_pendant_path(theta):
    g = attach_tree(theta, 0, random_tree(random.Random(0), 3), 0)
    d = compute_core(g)
    assert set(d.core.edge_ids) == {0, 1, 2}
    assert len(d.complement) == 1
    tree, attach_at = d.complement[0]
    assert attach_at == 0
    assert tree.is_tree()


def test_core_of_tree_is_empty():
    g = MetricGraph([0, 1, 2], [(0, 0, 1, 1), (1, 1, 2, 2)])
    d = compute_core(g)
    assert d.is_empty
    assert not d.segments and not d.branch_points


def test_core_single_vertex():
    d = compute_core(MetricGraph([0], []))
    assert d.is_empty


def test_core_rejects_disconnected():
    with pytest.raises(GraphError):
        compute_core(MetricGraph([0, 1], []))


def test_core_dumbbell_segments(dumbbell):
    d = compute_core(dumbbell)
    loops = [s for s in d.segments if s.is_loop]
    assert len(loops) == 2
    assert {s.length for s in loops} == {2, 3}
    assert d.branch_points == {0, 1}


def test_segments_partition_core_edges():
    for seed in range(25):
        g = random_graph(seed, 2 + seed % 6, 1 + seed % 3, 5)
        d = compute_core(g)
        seen = []
        for s in d.segments:
            seen.extend(step.edge for step in s.path.steps)
        assert sorted(seen) == sorted(d.core.edge_ids)
        assert sum(s.length for s in d.segments) == d.core.total_length()


def test_segment_interiors_have_degree_two():
    for seed in range(25):
        g = random_graph(seed, 3 + seed % 5, 2, 5)
        d = compute_core(g)
        if d.is_empty:
            continue
        for s in d.segments:
            for v in map(s.path.graph.step_head, s.path.steps[:-1]):
                assert vertex_degree(d.core, v) == 2
            if not d.branch_points:
                continue
            assert s.x in d.branch_points and s.y in d.branch_points


def test_branch_points_definition():
    for seed in range(25):
        g = random_graph(seed, 2 + seed % 6, 2, 5)
        d = compute_core(g)
        for v in d.core.vertex_ids:
            assert (vertex_degree(d.core, v) >= 3) == (v in d.branch_points)


def test_core_idempotent():
    for seed in range(25):
        g = random_graph(seed, 2 + seed % 6, 1 + seed % 4, 5)
        d = compute_core(g)
        if d.is_empty:
            continue
        dd = compute_core(d.core)
        assert set(dd.core.edge_ids) == set(d.core.edge_ids)
        assert dd.branch_points == d.branch_points


def test_core_preserves_rank():
    for seed in range(25):
        g = random_graph(seed, 2 + seed % 6, 1 + seed % 4, 5)
        d = compute_core(g)
        if not d.is_empty:
            assert d.core.rank() == g.rank()


def test_complement_components_are_attached_trees():
    for seed in range(40):
        g = random_graph(seed, 3 + seed % 6, 1 + seed % 3, 5)
        d = compute_core(g)
        if d.is_empty:
            continue
        for tree, attach_at in d.complement:
            assert tree.is_tree()
            assert attach_at in d.core.vertex_ids
            assert tree.vertex_ids & d.core.vertex_ids == {attach_at}


def test_strong_convexity_of_core():
    from mlsgraph import shortest_path
    for seed in range(30):
        g = random_graph(seed, 3 + seed % 6, 2, 5)
        d = compute_core(g)
        for x in sorted(d.branch_points):
            for y in sorted(d.branch_points):
                p = shortest_path(g, x, y)
                assert p.support() <= set(d.core.edge_ids)


# -- circle detection ----------------------------------------------------

def test_is_circle_square_cycle():
    g = MetricGraph([0, 1, 2, 3],
                    [(0, 0, 1, 1), (1, 1, 2, 2), (2, 2, 3, 3), (3, 3, 0, 4)])
    assert is_circle(compute_core(g)) == 10


def test_is_circle_theta_is_not(theta):
    assert is_circle(compute_core(theta)) is None


def test_is_circle_single_self_loop():
    g = MetricGraph([0], [(0, 0, 0, 7)])
    d = compute_core(g)
    assert is_circle(d) == 7
    assert len(d.segments) == 1 and d.segments[0].is_loop


def test_is_circle_rejects_empty_core():
    d = compute_core(MetricGraph([0], []))
    with pytest.raises(GraphError):
        is_circle(d)


# -- retraction check -------------------------------------------------------

def test_retraction_pendant_onto_theta(theta):
    g = attach_tree(theta, 0, random_tree(random.Random(2), 4), 0)
    assert retraction_check(g, g.subgraph({0, 1, 2}))


def test_retraction_single_edge_fails(theta):
    assert not retraction_check(theta, theta.subgraph({0}))


def test_retraction_identity(theta):
    assert retraction_check(theta, theta.subgraph(theta.edge_ids))


def test_retraction_of_tree_to_point():
    g = MetricGraph([0, 1, 2], [(0, 0, 1, 1), (1, 1, 2, 2)])
    assert retraction_check(g, g.subgraph((), extra_vertices={1}))


def test_core_minimality_among_retracts():
    """The core is contained in every subgraph the graph retracts onto."""
    for seed in range(12):
        g = random_graph(seed, 2 + seed % 4, 1 + seed % 3, 4)
        d = compute_core(g)
        if d.is_empty:
            continue
        core_edges = set(d.core.edge_ids)
        edges = sorted(g.edge_ids)
        for r in range(len(edges) + 1):
            for chosen in combinations(edges, r):
                sub = g.subgraph(chosen)
                if not sub.vertex_ids or not sub.is_connected():
                    continue
                if retraction_check(g, sub):
                    assert core_edges <= set(chosen)
        assert retraction_check(g, g.subgraph(core_edges))


# -- loop union cross-validation ---------------------------------------------

def test_core_equals_loop_union_theta(theta):
    assert core_equals_loop_union(theta, 4)


def test_core_equals_loop_union_tree():
    g = MetricGraph([0, 1], [(0, 0, 1, 1)])
    assert core_equals_loop_union(g, 4)


def test_core_equals_loop_union_pendant(theta):
    g = attach_tree(theta, 0, random_tree(random.Random(1), 3), 0)
    assert core_equals_loop_union(g, 4)


def test_loop_union_long_circle():
    # One enumeration as deep as the circle is long: deeper than the
    # interpreter's default recursion limit.
    n = 1200
    g = MetricGraph(range(n), [(i, i, (i + 1) % n, 1) for i in range(n)])
    assert core_loop_union_agrees(g)


def test_loop_union_incremental_random():
    for seed in range(30):
        g = random_graph(seed, 2 + seed % 5, 1 + seed % 3, 5)
        assert core_loop_union_agrees(g)
