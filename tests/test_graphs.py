import hashlib
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from length_reference import reference_parse_length

from mlsgraph import (GraphError, MetricGraph, attach_tree, disguise, format_length,
                      parse_length, random_graph, read_graph, shortest_path, subdivide_edge,
                      validate_graph, vertex_degree, write_graph)
from mlsgraph.graphs import MAX_LENGTH_DIGITS, DirectedEdge, random_tree


def test_parse_length_forms():
    assert parse_length("3/7") == Fraction(3, 7)
    assert parse_length("1.5") == Fraction(3, 2)
    assert parse_length("10") == 10
    with pytest.raises(GraphError):
        parse_length("abc")


def _parsed(parse, text):
    try:
        return parse(text)
    except GraphError as exc:
        return type(exc), str(exc)


# Digit fields at the `MAX_LENGTH_DIGITS` edge, one character either side of
# it, some all zeros or with leading zeros.
EDGE_FIELDS = st.builds(lambda k, lead, fill: (lead + fill * k)[:k],
                        st.integers(MAX_LENGTH_DIGITS - 1, MAX_LENGTH_DIGITS + 1),
                        st.sampled_from(["", "0", "00", "1"]), st.sampled_from("019"))


LENGTH_TEXTS = st.one_of(
    st.from_regex(r"\A[-+]?[0-9_]{0,8}(/[-+]?[0-9_]{0,8})?\Z"),
    st.from_regex(r"\A[-+]?[0-9]{0,4}(\.[0-9]{0,3})?([eE][-+]?[0-9]{1,4})?(/[0-9]{1,3})?\Z"),
    st.text(alphabet="0123456789/²٣０₃-+_eE. ", max_size=8),
    st.tuples(EDGE_FIELDS, st.sampled_from(["", "/"]),
              EDGE_FIELDS | st.sampled_from(["0", "00", "7", ""]))
    .map("".join),
    st.sampled_from(["0", "00", "0/0", "1/00", "007/010", "3/-4", " 3/4", "3 ", "²", "1/²",
                     "٣/4", "1_0/2", "1e5", "3/7e5", "+5/6", "-5/6", "5/+6"]))


@settings(max_examples=400, deadline=None)
@given(LENGTH_TEXTS)
def test_parse_length_matches_the_frozen_parser(text):
    """The same value, or the same exception type and message, as the
    parser that sent every literal through `Fraction(text)`."""
    assert _parsed(parse_length, text) == _parsed(reference_parse_length, text)


def _digits(n: int) -> int:
    """Decimal digits of `n`, counted without `str` (which refuses long ints)."""
    return Decimal(abs(n)).adjusted() + 1


@settings(max_examples=300, deadline=None)
@given(st.from_regex(r"\A[-+]?([0-9]{1,6}(\.[0-9]{0,4})?|\.[0-9]{1,4})\Z"),
       st.sampled_from("eE"),
       st.integers(4280, 4320) | st.integers(-4320, -4280) | st.integers(-50, 50))
def test_exponent_literal_keeps_its_value_or_is_refused(mantissa, marker, exp):
    text = f"{mantissa}{marker}{exp}"
    value = Fraction(text)
    if max(_digits(value.numerator), _digits(value.denominator)) > MAX_LENGTH_DIGITS:
        with pytest.raises(GraphError, match="more than 4300 digits"):
            parse_length(text)
    else:
        assert parse_length(text) == value
        assert parse_length(format_length(value)) == value


@pytest.mark.parametrize("text, digits", [
    ("1e4299", 4300), ("1E-4299", 4300), ("2.5e-4300", 4300), pytest.param("5" + "0" * 4299, 4300, id="4300-digit-int"),
    ("0.0001e4303", 4300), ("1000e-4302", 4300), ("0e10000000", 1), ("-0.00E-99999999", 1),
    ("3/7e5", None)])
def test_long_literals_at_the_limit(text, digits):
    if digits is None:
        with pytest.raises(GraphError, match="bad length literal"):
            parse_length(text)
        return
    value = parse_length(text)
    assert max(_digits(value.numerator), _digits(value.denominator)) == digits
    assert parse_length(format_length(value)) == value


@pytest.mark.parametrize("text", [
    "1e4300", "1e-4300", "1e5000", "1e10000000", "-2.5E-10000000", "7_0e+1_000_000_0",
    pytest.param("0." + "0" * 4299 + "1", id="4300-decimals")])
def test_too_long_literals_are_refused_at_once(text):
    t0 = time.perf_counter()
    with pytest.raises(GraphError) as err:
        parse_length(text)
    assert time.perf_counter() - t0 < 1.0
    assert "more than 4300 digits" in str(err.value)
    with pytest.raises(GraphError) as err:
        read_graph(f"graph g\nvertex 0\nedge 0 0 0 {text}\n")
    assert str(err.value).startswith(f"line 3: length literal {text!r} has more than")


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


@given(edge=st.integers(0, 2**70), rev=st.booleans())
def test_directed_edge_reverse_is_a_directed_edge(edge, rev):
    e = DirectedEdge(edge, rev)
    back = e.reverse()
    assert type(back) is DirectedEdge
    assert back == DirectedEdge(edge, not rev) and hash(back) == hash(DirectedEdge(edge, not rev))
    assert (back.edge, back.rev) == (edge, not rev)
    assert back.reverse() == e and hash(back.reverse()) == hash(e)
    assert sorted([back, e]) == [DirectedEdge(edge, False), DirectedEdge(edge, True)]


def test_next_steps_continue_without_backtracking(dumbbell):
    loop, bridge = DirectedEdge(0), DirectedEdge(2)
    # At a self-loop only the loop's own reverse is a backtrack.
    assert dumbbell.next_steps(loop) == (loop, bridge)
    assert dumbbell.next_steps(loop.reverse()) == (loop.reverse(), bridge)
    assert dumbbell.next_steps(bridge) == (DirectedEdge(1), DirectedEdge(1, True))
    assert dumbbell.next_steps(bridge.reverse()) == (loop, loop.reverse())


@st.composite
def shuffled_multigraphs(draw):
    """Multigraphs with self-loops, parallel edges, isolated vertices,
    dangling endpoints (an endpoint that is not a vertex) and small or large
    edge ids, their vertices and rows given in any order."""
    vertices = draw(st.lists(st.integers(0, 4), unique=True, max_size=4))
    ends = st.integers(0, 4)
    ids = draw(st.lists(st.one_of(st.integers(0, 9), st.integers(10**9 - 2, 10**9 + 2)),
                        unique=True, max_size=8))
    rows = [(eid, draw(ends), draw(ends), draw(st.integers(1, 3))) for eid in ids]
    return MetricGraph(draw(st.permutations(vertices)), draw(st.permutations(rows)))


def _old_next_steps(g, step):
    """`next_steps` as it was defined before the step table: the out-steps at
    the step's head, less the step straight back."""
    return tuple(t for t in g.out_steps(g.step_head(step)) if t != step.reverse())


def _assert_next_steps_match_the_old_definition(g):
    for v in g.vertex_ids:
        for step in g.out_steps(v):
            assert g.next_steps(step) == _old_next_steps(g, step), step
            assert all(type(t) is DirectedEdge and type(t.rev) is bool
                       for t in g.next_steps(step))


@given(shuffled_multigraphs())
@settings(max_examples=300, deadline=None)
def test_next_steps_match_the_old_definition_on_shuffled_multigraphs(g):
    _assert_next_steps_match_the_old_definition(g)
    for eid, rec in g._edges.items():
        if rec.u not in g.vertex_ids or rec.v not in g.vertex_ids:
            for rev in (False, True):  # the old definition answered one of these
                with pytest.raises(GraphError, match=f"edge {eid} has an endpoint that"):
                    g.next_steps(DirectedEdge(eid, rev))
    unknown = max(g.edge_ids, default=0) + 1
    with pytest.raises(GraphError, match=f"unknown edge id {unknown}"):
        g.next_steps(DirectedEdge(unknown))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), vertices=st.integers(1, 6), extra=st.integers(1, 4))
def test_next_steps_match_the_old_definition_on_disguises(seed, vertices, extra):
    # A disguise adds pendant trees and subdivided edges.
    g = random_graph(seed, vertices, extra, 5)
    for graph in (g, disguise(g, seed).graph):
        _assert_next_steps_match_the_old_definition(graph)


def test_next_steps_refuse_unknown_and_dangling_edges():
    g = MetricGraph([0, 1], [(0, 0, 1, 1), (1, 1, 5, 2), (2, 7, 0, 1)])
    for step in (DirectedEdge(3), DirectedEdge(3, True), DirectedEdge(10**9)):
        with pytest.raises(GraphError, match=f"unknown edge id {step.edge}$"):
            g.next_steps(step)
    for step in (DirectedEdge(1), DirectedEdge(1, True), DirectedEdge(2), DirectedEdge(2, True)):
        with pytest.raises(GraphError, match=f"edge {step.edge} has an endpoint that is not"):
            g.next_steps(step)
    assert g.next_steps(DirectedEdge(0)) == ()


def _sorted_adjacency(g):
    """The reference adjacency: steps appended in record order, then each
    vertex's steps sorted."""
    adj = {v: [] for v in g.vertex_ids}
    for eid, rec in g._edges.items():
        if rec.u in g.vertex_ids and rec.v in g.vertex_ids:
            adj[rec.u].append(DirectedEdge(eid, False))
            adj[rec.v].append(DirectedEdge(eid, True))
    return {v: tuple(sorted(out)) for v, out in adj.items()}


@given(shuffled_multigraphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_adjacency_is_built_sorted(g, data):
    """Each vertex's steps come out sorted, as `DirectedEdge`s, on a graph
    and on a subgraph of its edges that have both endpoints."""
    inner = sorted(eid for eid, rec in g._edges.items()
                   if rec.u in g.vertex_ids and rec.v in g.vertex_ids)
    keep = data.draw(st.lists(st.booleans(), min_size=len(inner), max_size=len(inner)))
    extra = data.draw(st.sets(st.sampled_from(sorted(g.vertex_ids)))) if g.vertex_ids else ()
    sub = g.subgraph([eid for eid, k in zip(inner, keep) if k], extra)
    for h in (g, sub):
        assert h._adj == _sorted_adjacency(h)
        assert all(type(out) is tuple for out in h._adj.values())
        assert all(type(s) is DirectedEdge for out in h._adj.values() for s in out)


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


@pytest.mark.parametrize("vertices, edges, message", [
    ([True, 2], [], "vertex id must be a non-negative integer, got True"),
    ([0, 1, 2], [(False, 1, 2, 1)], "edge id must be a non-negative integer, got False"),
    ([0, 1, 2], [(0, 1, True, 1)], "edge 0: endpoints must be integer vertex ids, got 1 and True"),
    ([0, 1, 2], [(0, False, 2, 1)], "edge 0: endpoints must be integer vertex ids, got False and 2"),
])
def test_bool_ids_and_endpoints_rejected(vertices, edges, message):
    """`bool` is an `int`, but `write_graph` would write it as `True`, which
    `read_graph` refuses."""
    with pytest.raises(GraphError, match=message):
        MetricGraph(vertices, edges)


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


def test_subdivide_refuses_float_cuts(theta):
    # A float is a binary value: a cut at 0.1 would give edge 0's pieces
    # denominator 2**55, and the graph that length scale.
    for cuts in ([0.1], [Fraction(1, 3), 0.5], (c for c in [0.25])):
        with pytest.raises(GraphError, match="^float cut positions are not exact; pass a "
                                             "Fraction, an int, or a literal string$"):
            subdivide_edge(theta, 0, cuts)
    exact = subdivide_edge(theta, 0, [Fraction(1, 10)])
    assert exact.length_scale == 10
    for cuts in (["1/10"], ["0.1"], [Fraction(1, 10)]):
        assert write_graph(subdivide_edge(theta, 0, cuts)) == write_graph(exact)
    with pytest.raises(GraphError, match="subdivision fractions must lie strictly inside"):
        subdivide_edge(theta, 0, [1])


def test_subdivide_preserves_distances():
    rng = random.Random(5)
    for seed in range(8):
        g = random_graph(seed, 5, 3, 6)
        eid = rng.choice(sorted(g.edge_ids))
        g2 = subdivide_edge(g, eid, [Fraction(1, 3)])
        for u in g.vertex_ids:
            for v in g.vertex_ids:
                assert shortest_path(g, u, v).length == shortest_path(g2, u, v).length


def test_attach_tree_changes_degree_only(theta):
    tree = random_tree(random.Random(1), 4)
    g = attach_tree(theta, 0, tree, 0)
    assert vertex_degree(g, 0) == vertex_degree(theta, 0) + vertex_degree(tree, 0)
    for u in theta.vertex_ids:
        for v in theta.vertex_ids:
            assert shortest_path(g, u, v).length == shortest_path(theta, u, v).length


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


def test_random_generators_keep_their_draws():
    """`random_graph` and `random_tree` draw their trees through one loop;
    the digests are those of the graphs before it was shared, and the tree's
    digest also covers the generator's next draw."""
    graphs = hashlib.sha256()
    for seed in range(6):
        for vertices in (1, 2, 5, 9):
            for extra in (0, 1, 4):
                graphs.update(write_graph(random_graph(seed, vertices, extra, 10)).encode())
    assert graphs.hexdigest() == \
        "8a1a9db859d54baf34f0b1fbe036ccf779715ef4e3b581fce1c04ea04d837f35"
    trees = hashlib.sha256()
    for seed in range(6):
        for size in (1, 2, 4, 7):
            rng = random.Random(seed)
            trees.update(write_graph(random_tree(rng, size)).encode())
            trees.update(repr(rng.random()).encode())
    assert trees.hexdigest() == \
        "9464ce35e7560604203611d9de701115fa5a65a0082d2edf64a868a430b1362b"


def test_random_graph_bad_params():
    with pytest.raises(GraphError):
        random_graph(1, 0, 3, 10)


def test_triangle_inequality_exhaustive():
    for seed in range(7):
        g = random_graph(seed, 4 + 2 * seed if seed < 5 else 12, 2, 8)
        vs = sorted(g.vertex_ids)
        dist = {(u, v): shortest_path(g, u, v).length for u in vs for v in vs}
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


@pytest.mark.parametrize("line, kind", [
    ("edge 0 0 1 1 /2", "edge"),     # a length split by a space
    ("edge 0 0 1 1 2", "edge"),
    ("edge 0 0 1", "edge"),
    ("vertex 1 7", "vertex"),
    ("vertex", "vertex"),
])
def test_read_graph_rejects_wrong_field_count(line, kind):
    text = f"graph g\nvertex 0\nvertex 1\n{line}\n"
    with pytest.raises(GraphError) as err:
        read_graph(text)
    assert str(err.value) == f"line 4: malformed {kind!r} line"


@pytest.mark.parametrize("name", ["g", "rand-3", "theta-d7-core", "a.b_c", "\u00e9t\u00e9"])
def test_graph_name_round_trips(name):
    g = MetricGraph([0, 1], [(0, 0, 1, 1)], name=name)
    assert read_graph(write_graph(g)).name == name


@pytest.mark.parametrize("name", ["two words", "a#b", "", "tab\there", "line\nbreak", "#"])
def test_write_graph_rejects_names_the_format_cannot_hold(name):
    with pytest.raises(GraphError) as err:
        write_graph(MetricGraph([0], [], name=name))
    assert str(err.value) == f"graph name {name!r} is empty or holds whitespace or '#'"


def test_read_graph_header_takes_one_name():
    with pytest.raises(GraphError) as err:
        read_graph("graph two words\nvertex 0\n")
    assert str(err.value) == "line 1: malformed 'graph' line"
    assert read_graph("graph\nvertex 0\n").name == "g"  # a bare header
    assert read_graph("graph a#b\nvertex 0\n").name == "a"  # `#` starts a comment


def test_read_graph_ignores_comments(theta):
    text = write_graph(theta, extra_comments=["truth branch 0 1"])
    assert write_graph(read_graph(text)) == write_graph(theta)


def test_float_lengths_rejected():
    with pytest.raises(GraphError, match="float"):
        MetricGraph([0, 1], [(0, 0, 1, 0.1)])
