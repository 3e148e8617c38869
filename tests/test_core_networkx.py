"""`compute_core` against networkx's 2-core.

Every edge is subdivided twice, so that self-loops and parallel edges become
simple paths; networkx's `k_core(G, 2)` then holds exactly the subdivided
core.  An edge is in the core iff its middle piece is, the core's vertices
are the original vertices in the 2-core, and the branch points are those of
them with at least three core edge-ends (a self-loop gives two).
"""

import pytest
from helpers import disguise_instances
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import _connected_multigraphs, _random_corpus

from mlsgraph import GraphError, MetricGraph, compute_core

nx = pytest.importorskip("networkx")


def _two_core(g):
    """(core edges, core vertices, branch points) read off networkx."""
    sub = nx.Graph()
    sub.add_nodes_from(("v", v) for v in g.vertex_ids)
    for eid, rec in g.edges_sorted():
        sub.add_edges_from([(("v", rec.u), ("e", eid, 0)), (("e", eid, 0), ("e", eid, 1)),
                            (("e", eid, 1), ("v", rec.v))])
    if not nx.is_connected(sub):
        return "disconnected"
    core = nx.k_core(sub, 2)
    return (sorted(eid for eid in g.edge_ids if core.has_edge(("e", eid, 0), ("e", eid, 1))),
            sorted(v for v in g.vertex_ids if ("v", v) in core),
            sorted(v for v in g.vertex_ids if ("v", v) in core and core.degree(("v", v)) >= 3))


def _ours(g):
    try:
        d = compute_core(g)
    except GraphError as exc:
        return str(exc)
    return sorted(d.core.edge_ids), sorted(d.core.vertex_ids), sorted(d.branch_points)


def test_family_random_and_disguises_match_networkx():
    graphs = [*_connected_multigraphs(4, 5), *_random_corpus(200, seed0=400),
              *(inst.graph for _, inst in disguise_instances(100))]
    branched = 0
    for g in graphs:
        assert _ours(g) == _two_core(g), g
        branched += bool(compute_core(g).branch_points)
    assert branched > 500


@st.composite
def multigraphs(draw):
    """Up to 7 vertices and 10 edges with sparse ids, self-loops and parallel
    edges included; some draws are disconnected or have isolated vertices."""
    vs = draw(st.lists(st.integers(0, 30), min_size=1, max_size=7, unique=True))
    ends = st.sampled_from(vs)
    rows = [(eid, draw(ends), draw(ends), 1)
            for eid in draw(st.lists(st.integers(0, 40), unique=True, max_size=10))]
    return MetricGraph(vs, rows)


@settings(max_examples=300, deadline=None)
@given(multigraphs())
def test_multigraphs_match_networkx(g):
    assert _ours(g) == _two_core(g)
