import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mlsgraph import (CyclicPath, EdgePath, MetricGraph, PathError, concat_reduce, cyclic_equal,
                      cyclic_equal_unoriented, cyclically_reduce, format_path, is_reduced,
                      parse_path, path_length, path_loop_path_normal_form, random_graph,
                      reduce_path, shortest_path, spanning_tree)
from mlsgraph.fungroup import word_cyclic_core
from mlsgraph.graphs import DirectedEdge, GraphError
from mlsgraph.paths import (chain_traversals, cyclic_reduce_based, least_rotation,
                            least_rotation_start, map_chains)


def P(g, text, at=None):
    return parse_path(g, text, at=at)


# -- construction and literals -----------------------------------------

def test_path_chaining_validated(theta):
    with pytest.raises(PathError):
        EdgePath(theta, 0, (DirectedEdge(0, False), DirectedEdge(1, False)))


def test_path_literal_roundtrip(theta):
    p = P(theta, "e0 e1^-1 e2")
    assert format_path(p) == "e0 e1^-1 e2"
    assert p.start == 0 and p.end == 1


def test_empty_literal_needs_base(theta):
    with pytest.raises(PathError):
        parse_path(theta, "")
    p = parse_path(theta, "", at=1)
    assert p.is_empty() and p.start == 1


# -- least rotation -----------------------------------------------------

def _least_rotation_by_definition(seq):
    """Every rotation built, the least taken: that rotation and the least
    index at which it starts."""
    rotations = [seq[i:] + seq[:i] for i in range(len(seq))]
    least = min(rotations)
    return least, rotations.index(least)


def test_least_rotation_on_every_short_ternary_tuple():
    for n in range(1, 8):
        for seq in itertools.product(range(3), repeat=n):
            least, start = _least_rotation_by_definition(seq)
            assert (least_rotation_start(seq), least_rotation(seq)) == (start, least)


@pytest.mark.parametrize("seq, start", [
    ((0,), 0), ((1, 0), 1), ((1, 0, 1, 0), 1), ((0, 0, 0), 0), ((2, 1, 2, 1, 2, 1), 1),
    ((1, 0, 0, 1, 0, 0), 1), ((0, 1, 0, 0, 1, 0), 2), ((0, 1, 0, 1, 0, 0), 4)])
def test_least_rotation_start_is_the_least_index(seq, start):
    assert least_rotation_start(seq) == start


_small_alphabet = st.lists(st.integers(0, 2), min_size=1, max_size=40).map(tuple)
_periodic = st.builds(lambda block, times: tuple(block) * times,
                      st.lists(st.integers(0, 2), min_size=1, max_size=6), st.integers(1, 8))
_steps = st.lists(st.builds(DirectedEdge, st.integers(0, 3), st.booleans()),
                  min_size=1, max_size=30).map(tuple)
# The letter codes `rigidity._first_of_class` compares, in a list.
_codes = st.lists(st.integers(1, 6), min_size=1, max_size=30)


@given(st.one_of(_small_alphabet, _periodic, _steps, _codes))
@settings(max_examples=400, deadline=None)
def test_least_rotation_matches_its_definition(seq):
    least, start = _least_rotation_by_definition(seq)
    assert least_rotation_start(seq) == start
    assert least_rotation(seq) == least


@pytest.mark.parametrize("empty", [(), []])
def test_least_rotation_of_empty_sequence_raises(empty):
    with pytest.raises(ValueError):
        least_rotation_start(empty)
    with pytest.raises(ValueError):
        least_rotation(empty)


# -- reduction ----------------------------------------------------------

def test_is_reduced_immediate_backtrack(theta):
    assert not is_reduced(P(theta, "e0 e0^-1"))


def test_is_reduced_distinct_edges(theta):
    assert is_reduced(P(theta, "e0 e1^-1"))


def test_empty_path_is_reduced(theta):
    assert is_reduced(EdgePath(theta, 0))


def test_reduce_single_cancellation(theta):
    assert format_path(reduce_path(P(theta, "e0 e0^-1 e1"))) == "e1"


def test_reduce_nested_cancellations(theta):
    assert format_path(reduce_path(P(theta, "e0 e1^-1 e1 e0^-1 e2"))) == "e2"


def test_reduce_fixed_point(theta):
    p = P(theta, "e0 e1^-1 e2")
    assert reduce_path(p) == p
    assert reduce_path(reduce_path(p)) == reduce_path(p)


def test_reduce_length_non_increasing(theta):
    p = P(theta, "e0 e1^-1 e1 e0^-1 e2")
    assert path_length(reduce_path(p)) <= path_length(p)
    assert reduce_path(p).support() <= p.support()


from helpers import insert_cancelling_pairs, random_reduced_path


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_reduction_uniqueness_under_reexpansion(seed):
    rng = random.Random(seed)
    g = random_graph(seed % 17, 2 + seed % 5, 1 + seed % 3, 5)
    p = random_reduced_path(rng, g, 12)
    blown = insert_cancelling_pairs(rng, p, rng.randint(0, 6))
    assert reduce_path(blown) == p


# -- cyclic reduction -----------------------------------------------------

def test_cyclically_reduce_theta_example(theta):
    loop = P(theta, "e0^-1 e2 e1^-1 e0", at=1)
    core, conjugator = cyclically_reduce(loop)
    assert format_path(conjugator) == "e0^-1"
    assert core is not None and path_length(core) == 5
    assert cyclic_equal(core, CyclicPath.from_steps(
        theta, P(theta, "e2 e1^-1").steps))


def test_cyclically_reduce_nullhomotopic(theta):
    core, conjugator = cyclically_reduce(P(theta, "e0 e0^-1"))
    assert core is None and conjugator.is_empty()


def test_cyclically_reduce_fixed_point(theta):
    loop = P(theta, "e0 e1^-1")
    core, conjugator = cyclically_reduce(loop)
    assert conjugator.is_empty()
    assert core is not None and core.steps == loop.steps


def test_cyclic_reduce_roundtrip(theta, dumbbell):
    rng = random.Random(3)
    for g in (theta, dumbbell):
        for _ in range(50):
            p = random_reduced_path(rng, g, 10)
            walk_back = shortest_path(g, p.end, p.start)
            loop = p.then(walk_back) if p.end != p.start else p
            based, conjugator = cyclic_reduce_based(loop)
            rebuilt = conjugator.then(based).then(conjugator.reverse())
            assert reduce_path(rebuilt) == reduce_path(loop)
            assert path_length(based) <= path_length(reduce_path(loop))


def test_cyclically_reduce_rejects_open_path(theta):
    with pytest.raises(PathError):
        cyclically_reduce(P(theta, "e0"))


# -- cyclic paths ------------------------------------------------------------

@pytest.mark.parametrize("steps, error", [
    ((), PathError),
    ((DirectedEdge(0), DirectedEdge(0)), PathError),  # e0 ends at 1, e0 starts at 0
    ((DirectedEdge(0), DirectedEdge(1, True), DirectedEdge(0)), PathError),  # open
    ((DirectedEdge(0), DirectedEdge(9, True)), GraphError),
    ((DirectedEdge(9),), GraphError),
])
def test_cyclic_path_from_steps_refuses(theta, steps, error):
    with pytest.raises(error):
        CyclicPath.from_steps(theta, steps)


def test_cyclic_path_reads_length_and_support_as_edge_path(theta):
    loop = P(theta, "e2 e1^-1 e0 e1^-1")
    cyc = CyclicPath.from_steps(theta, loop.steps)
    assert (CyclicPath.length, CyclicPath.support) == (EdgePath.length, EdgePath.support)
    assert (cyc.length, cyc.support(), len(cyc)) == (loop.length, loop.support(), 4)
    assert cyc.steps == P(theta, "e0 e1^-1 e2 e1^-1").steps
    assert cyc.reverse() == CyclicPath.from_steps(theta, loop.reverse().steps)


def _based_at_by_definition(loop, vertex):
    """The least rotation of the loop's steps from `vertex`, every rotation
    built; None when the loop does not pass through `vertex`."""
    steps = loop.steps
    starts = [i for i, s in enumerate(steps) if loop.graph.step_tail(s) == vertex]
    return min((steps[i:] + steps[:i] for i in starts), default=None)


@given(st.integers(0, 10_000), st.lists(st.sampled_from((1, -1, 2, -2, 3, -3)),
                                        min_size=1, max_size=8), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_based_at_matches_its_definition(seed, letters, power):
    """Cores of random words, and their powers (periodic loops), based at
    every vertex: small graphs make the loops pass some vertices several
    times, and a pendant vertex is on no loop."""
    g = random_graph(seed, 1 + seed % 4, 3 + seed % 3, 5)
    rows = [(eid, rec.u, rec.v, rec.length) for eid, rec in g.edges_sorted()]
    pendant = len(g.vertex_ids)
    g = MetricGraph(range(pendant + 1), rows + [(len(rows), 0, pendant, 1)])
    core = word_cyclic_core(spanning_tree(g), tuple(letters))
    assume(core is not None)
    loop = CyclicPath.from_steps(g, core.steps * power)
    for v in sorted(g.vertex_ids):
        want = _based_at_by_definition(loop, v)
        if want is None:
            with pytest.raises(PathError, match=f"does not pass through vertex {v}"):
                loop.based_at(v)
        else:
            based = loop.based_at(v)
            assert (based.start, based.steps) == (v, want)


# -- concatenation decomposition -----------------------------------------

def test_concat_reduce_full_cancellation(theta):
    d = concat_reduce(P(theta, "e0"), P(theta, "e0^-1 e1"))
    assert d.q1.is_empty()
    assert format_path(d.q2) == "e1"
    assert format_path(d.r) == "e0"


def test_concat_reduce_no_cancellation(theta):
    d = concat_reduce(P(theta, "e0"), P(theta, "e1^-1"))
    assert format_path(d.q1) == "e0" and format_path(d.q2) == "e1^-1"
    assert d.r.is_empty()


def test_concat_reduce_single_step(theta):
    p1 = P(theta, "e2 e0^-1")  # 0 -> 1 -> 0
    p2 = P(theta, "e0 e1^-1")  # 0 -> 1 -> 0
    d = concat_reduce(p1, p2)
    assert format_path(d.r) == "e0^-1"
    assert format_path(d.q1) == "e2" and format_path(d.q2) == "e1^-1"
    assert is_reduced(d.q1.then(d.q2))


def test_concat_reduce_roundtrip_random():
    rng = random.Random(11)
    for seed in range(40):
        g = random_graph(seed, 2 + seed % 5, 2, 4)
        p1 = random_reduced_path(rng, g, 8)
        p2 = random_reduced_path(rng, g, 8)
        if p1.end != p2.start:
            bridge = shortest_path(g, p1.end, p2.start)
            p1 = reduce_path(p1.then(bridge))
        d = concat_reduce(p1, p2)
        assert d.q1.then(d.r) == p1
        assert d.r.reverse().then(d.q2) == p2
        assert is_reduced(d.q1.then(d.q2))


def test_multiple_concat_stays_reduced():
    # Pairwise-reduced chains concatenate to a reduced path.
    rng = random.Random(7)
    for seed in range(30):
        g = random_graph(seed, 3 + seed % 4, 2, 4)
        chain = random_reduced_path(rng, g, 4)
        pieces = [chain]
        for _ in range(3):
            nxt = random_reduced_path(rng, g, 4)
            if nxt.start != pieces[-1].end or nxt.is_empty():
                continue
            if not is_reduced(pieces[-1].then(nxt)):
                continue
            pieces.append(nxt)
        total = pieces[0]
        for piece in pieces[1:]:
            total = total.then(piece)
        if all(is_reduced(a.then(b)) for a, b in zip(pieces, pieces[1:])):
            assert is_reduced(total)


# -- path-loop-path -------------------------------------------------------

def test_plp_empty_conjugator(theta):
    loop = CyclicPath.from_steps(theta, P(theta, "e0 e1^-1").steps)
    out = path_loop_path_normal_form(EdgePath(theta, 0), loop)
    assert out.start == 0 and not out.is_empty()


def test_plp_theta(theta):
    loop = CyclicPath.from_steps(theta, P(theta, "e0^-1 e1", at=1).steps)
    out = path_loop_path_normal_form(P(theta, "e0"), loop)
    assert 1 in out.vertices()
    assert out.start == 0 and out.is_closed()


def test_plp_dumbbell_begins_with_path(dumbbell):
    loop = CyclicPath.from_steps(dumbbell, P(dumbbell, "e1", at=1).steps)
    p = P(dumbbell, "e2")
    out = path_loop_path_normal_form(p, loop)
    assert format_path(out) == "e2 e1 e2^-1"
    assert out.steps[: len(p.steps)] == p.steps or \
        out.steps[-len(p.steps):] == p.reverse().steps


def test_plp_requires_content(theta):
    with pytest.raises(PathError):
        path_loop_path_normal_form(P(theta, "e0"),
                                   CyclicPath(theta, ()))


# -- cyclic equality -------------------------------------------------------

def test_cyclic_equal_rotation(theta):
    a = CyclicPath.from_steps(theta, P(theta, "e2 e1^-1").steps)
    b = CyclicPath.from_steps(theta, P(theta, "e1^-1 e2", at=1).steps)
    assert cyclic_equal(a, b)


def test_cyclic_equal_orientation(theta):
    a = CyclicPath.from_steps(theta, P(theta, "e2 e1^-1").steps)
    b = CyclicPath.from_steps(theta, P(theta, "e1 e2^-1").steps)
    assert not cyclic_equal(a, b)
    assert cyclic_equal_unoriented(a, b)


def test_cyclic_equal_different_support(theta):
    a = CyclicPath.from_steps(theta, P(theta, "e2 e1^-1").steps)
    b = CyclicPath.from_steps(theta, P(theta, "e2 e0^-1").steps)
    assert not cyclic_equal(a, b)
    assert not cyclic_equal_unoriented(a, b)


# -- shortest paths ---------------------------------------------------------

def test_shortest_path_theta(theta):
    p = shortest_path(theta, 0, 1)
    assert format_path(p) == "e0"
    assert path_length(p) == 1


def test_shortest_path_identity(theta):
    p = shortest_path(theta, 1, 1)
    assert p.is_empty() and path_length(p) == 0


def test_shortest_path_dumbbell(dumbbell):
    assert format_path(shortest_path(dumbbell, 0, 1)) == "e2"


def test_shortest_path_is_reduced_and_lex_least():
    g = random_graph(9, 6, 3, 3)
    for u in g.vertex_ids:
        for v in g.vertex_ids:
            p = shortest_path(g, u, v)
            assert is_reduced(p)


def test_shortest_path_deterministic_on_ties():
    # Two parallel edges of equal length: the least edge id wins.
    g = random_graph(1, 2, 0, 5)
    eid = next(iter(g.edge_ids))
    from mlsgraph import MetricGraph
    g2 = MetricGraph([0, 1], [(0, 0, 1, 2), (1, 0, 1, 2)])
    assert format_path(shortest_path(g2, 0, 1)) == "e0"


# -- chain traversals ----------------------------------------------------

def test_chain_traversals_splits_whole_chains():
    f, b = (lambda e: DirectedEdge(e, False)), (lambda e: DirectedEdge(e, True))
    chains = {"x": (f(0), f(1)), "y": (f(2),)}
    where = {s.edge: (k, pos) for k, chain in chains.items() for pos, s in enumerate(chain)}
    assert chain_traversals((), chains, where) == []
    assert chain_traversals((f(0), f(1), b(2), f(2), b(1), b(0)), chains, where) == [
        ("x", False), ("y", True), ("y", False), ("x", True)]
    for bad in ((f(1),), (b(0),), (f(0),), (f(0), f(2)), (f(3),)):
        with pytest.raises(PathError):
            chain_traversals(bad, chains, where)


def test_map_chains_replaces_each_traversal_by_its_image():
    f, b = (lambda e: DirectedEdge(e, False)), (lambda e: DirectedEdge(e, True))
    chains = {"x": (f(0), f(1)), "y": (f(2),)}
    where = {s.edge: (k, pos) for k, chain in chains.items() for pos, s in enumerate(chain)}
    images = {"x": (f(7),), "y": (f(8), b(9))}
    assert map_chains((), chains, where, images) == ()
    assert map_chains((f(0), f(1), b(2), f(2), b(1), b(0)), chains, where, images) == (
        f(7), f(9), b(8), f(8), b(9), b(7))
    with pytest.raises(PathError):
        map_chains((f(1),), chains, where, images)
