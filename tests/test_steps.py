"""Directed-edge step primitives against their frozen versions.

Cancellation tests compare the `edge` and `rev` fields of two steps instead
of building `step.reverse()`, and step lookups read the edge table directly
instead of going through `MetricGraph.edge`.  These tests hold `reduce_steps`,
`is_reduced`, `cyclic_reduce_based`, `word_to_loop`, `step_tail`,
`step_head`, the `EdgePath` chain check and `EdgePath.length` to the frozen
versions in `steps_reference`: the same results, and the same exception
types and messages on unknown edge ids and on steps that do not chain.
"""

import random
from fractions import Fraction

from helpers import insert_cancelling_pairs, random_reduced_path
from hypothesis import given, settings
from hypothesis import strategies as st
from steps_reference import (reference_chain_end, reference_cyclic_reduce_based,
                             reference_is_reduced, reference_length, reference_reduce_steps,
                             reference_step_head, reference_step_tail, reference_word_to_loop)

from mlsgraph import (EdgePath, GraphError, MetricGraph, PathError, disguise, random_graph,
                      spanning_tree)
from mlsgraph.fungroup import word_to_loop
from mlsgraph.graphs import DirectedEdge
from mlsgraph.paths import cyclic_reduce_based, is_reduced, reduce_steps


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _steps(max_edge):
    return st.lists(st.builds(DirectedEdge, st.integers(0, max_edge), st.booleans()),
                    max_size=14)


@settings(max_examples=300, deadline=None)
@given(_steps(3))
def test_reduce_steps_matches_reference_on_step_lists(steps):
    # Four edge ids make cancelling neighbours, nested ones included, common.
    assert reduce_steps(steps) == reference_reduce_steps(steps)


@st.composite
def multigraphs(draw):
    """Up to 4 vertices and 6 edges (self-loops, parallel edges); with
    `dangling`, endpoints may name a vertex id the graph does not hold."""
    n = draw(st.integers(1, 4))
    ends = st.integers(0, n if draw(st.booleans()) else n - 1)
    rows = [(eid, draw(ends), draw(ends), draw(st.sampled_from([1, 2, Fraction(1, 2)])))
            for eid in range(draw(st.integers(0, 6)))]
    return MetricGraph(range(n), rows)


@settings(max_examples=300, deadline=None)
@given(multigraphs(), st.data())
def test_step_lookups_match_reference(g, data):
    # Edge ids run one past the graph's, so some are unknown.
    steps = data.draw(_steps(len(g.edge_ids)))
    start = data.draw(st.integers(0, len(g.vertex_ids)))  # the last id is unknown
    for step in steps:
        assert _outcome(g.step_tail, step) == _outcome(reference_step_tail, g, step)
        assert _outcome(g.step_head, step) == _outcome(reference_step_head, g, step)
    # Chained steps, so that most paths get past the chain check.
    walk, at = [], start
    for step in steps:
        if g.has_vertex(at):
            options = [s for s in g.out_steps(at) if s.edge == step.edge] or [step]
            walk.append(options[0])
            at = _outcome(g.step_head, walk[-1])
    for path_steps in (tuple(steps), tuple(walk)):
        got = _outcome(lambda: EdgePath(g, start, path_steps))
        assert _outcome(lambda: got.end if isinstance(got, EdgePath) else got) == \
            _outcome(reference_chain_end, g, start, path_steps)
        if isinstance(got, EdgePath):
            assert got.length == reference_length(g, path_steps)
            assert is_reduced(got) == reference_is_reduced(got)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), vertices=st.integers(1, 6), extra=st.integers(1, 5),
       disguised=st.booleans(), data=st.data())
def test_reduction_matches_reference_on_random_graphs(seed, vertices, extra, disguised, data):
    # One vertex gives only self-loops, few vertices and several extra
    # edges give parallel edges.
    g = random_graph(seed, vertices, extra, 5)
    if disguised:
        g = disguise(g, seed + 1).graph
    basis = spanning_tree(g)
    letters = [k for i in range(1, basis.rank + 1) for k in (i, -i)]
    rng = random.Random(seed)
    for _ in range(4):
        w = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=6)))
        loop = word_to_loop(basis, w)
        ref = reference_word_to_loop(basis, w)
        assert (loop.start, loop.steps) == (ref.start, ref.steps)
        # Conjugate by a random path and insert cancelling pairs, so that the
        # loop has both cancellations and a conjugator to peel.
        q = random_reduced_path(rng, g, 5, start=basis.basepoint)
        loop = insert_cancelling_pairs(rng, q.reverse().then(loop).then(q), rng.randint(0, 3))
        assert reduce_steps(loop.steps) == reference_reduce_steps(loop.steps)
        assert is_reduced(loop) == reference_is_reduced(loop)
        got, want = cyclic_reduce_based(loop), reference_cyclic_reduce_based(loop)
        assert [(p.start, p.steps) for p in got] == [(p.start, p.steps) for p in want]


def test_step_lookup_errors_and_dangling_edges(theta):
    e0, e1, e9 = DirectedEdge(0), DirectedEdge(1), DirectedEdge(9)
    unknown = (GraphError, "unknown edge id 9")
    assert _outcome(theta.step_tail, e9) == unknown
    assert _outcome(theta.step_head, e9.reverse()) == unknown
    assert _outcome(EdgePath, theta, 0, (e0, e9)) == unknown
    assert _outcome(EdgePath, theta, 0, (e0, e1)) == \
        (PathError, "steps do not chain at vertex 1 (e1)")
    assert _outcome(EdgePath, theta, 5, ()) == (PathError, "unknown start vertex 5")
    # A dangling edge still resolves to the endpoint it names.
    g = MetricGraph([0], [(0, 0, 7, 2)])
    assert g.step_head(e0) == 7 and g.step_tail(e0.reverse()) == 7
    p = EdgePath(g, 0, (e0,))
    assert (p.end, p.length) == (7, 2)
    assert _outcome(EdgePath, g, 0, (e0, e0)) == \
        (PathError, "steps do not chain at vertex 7 (e0)")


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), depth=st.just(2000) | st.integers(0, 2000),
       data=st.data())
def test_peel_matches_reference_on_long_pendant_conjugators(seed, depth, data):
    # A path of `depth` edges hangs from a rank-3 graph; the loop runs from
    # its far end up the path, round a word's loop and back down, so the
    # conjugator to peel is at least `depth` steps long.
    g = random_graph(seed, 3, 3, 5)
    far = max(g.vertex_ids) + depth
    rows = [(eid, rec.u, rec.v, rec.length) for eid, rec in g.edges_sorted()]
    rows += [(len(rows) + i, far - i + 1 if i else 0, far - i, 1) for i in range(depth)]
    h = MetricGraph(range(far + 1), rows)
    down = EdgePath(h, 0, tuple(DirectedEdge(len(g.edge_ids) + i) for i in range(depth)))
    basis = spanning_tree(g)
    letters = [k for i in range(1, basis.rank + 1) for k in (i, -i)]
    w = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=6)))
    core_loop = EdgePath(h, basis.basepoint, word_to_loop(basis, w).steps)
    loop = down.reverse().then(core_loop).then(down) if depth else core_loop
    got, want = cyclic_reduce_based(loop), reference_cyclic_reduce_based(loop)
    assert [(p.start, p.steps) for p in got] == [(p.start, p.steps) for p in want]
