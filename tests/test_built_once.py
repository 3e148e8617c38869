"""What each verdict builds once, or not at all, against what it built before.

- `MetricGraph.subgraph` derives its graph from the parent without
  re-validating it: it must equal the graph the validating constructor
  builds from the same rows, and raise the same errors.
- `hull._segments` traces each arc once and builds one `EdgePath` per
  segment: it must equal the frozen tracer in `segments_reference`.
- `Basis` builds its generator blocks from root steps, each on first use:
  they must equal the blocks built through `tree_path`.
- Connectivity is searched once per graph, across `spanning_tree`,
  `require_valid` and `compute_core`.
- `cli.main` builds its parser once and reuses it: repeated calls, with a
  usage error between them, print the same bytes and exit codes.
- `disguise` builds its graph in one construction and relabels it in one
  more, whatever the number of edges it cuts.
- `spanning_tree` searches its tree once and hands the links to `Basis`:
  they must equal the links a directly built `Basis` finds.
- A rank-16 verdict walks few paths' chains, as paths derived from checked
  ones skip the walk, and `transport_path` builds no `Fraction` on an ACCEPT.
"""

import contextlib
import io
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import c08_negative, disguise_instances
from hypothesis import given, settings
from hypothesis import strategies as st
from segments_reference import reference_segments

from mlsgraph import (Basis, GraphError, MetricGraph, compute_core, disguise,
                      distinguishing_pair, random_graph, spanning_tree, transport_path)
from mlsgraph import cli, fungroup
from mlsgraph.fungroup import write_hom
from mlsgraph.graphs import DirectedEdge, require_valid, write_graph
from mlsgraph.hull import _segments
from mlsgraph.paths import EdgePath, reduce_steps
from mlsgraph.rigidity import reconstruct

SRC = Path(__file__).resolve().parents[1] / "src"
LENGTHS = [1, 2, Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), Fraction(7, 4)]


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def multigraphs(draw):
    """Up to 5 vertices (some isolated) and 7 edges, self-loops and parallel
    edges included; endpoints may name a vertex id the graph does not hold."""
    n = draw(st.integers(1, 5))
    ends = st.integers(0, n)
    rows = [(eid, draw(ends), draw(ends), draw(st.sampled_from(LENGTHS)))
            for eid in draw(st.lists(st.integers(0, 9), unique=True, max_size=7))]
    return MetricGraph(range(n), rows, name="parent")


def _validated_subgraph(g, edge_ids, extra_vertices):
    """The subgraph as the validating constructor builds it from rows."""
    verts = set(extra_vertices)
    rows = []
    for eid in sorted(set(edge_ids)):
        rec = g.edge(eid)
        verts.update((rec.u, rec.v))
        rows.append((eid, rec.u, rec.v, rec.length))
    for v in verts:
        if v not in g.vertex_ids:
            raise GraphError(f"unknown vertex id {v}")
    return MetricGraph(verts, rows, name=f"{g.name}-sub")


def _shape(g):
    if isinstance(g, tuple):
        return g  # the error
    return (g.name, g.vertex_ids, g.edge_ids, list(g.edges_sorted()),
            {v: g.out_steps(v) for v in g.vertex_ids},
            {eid: g.length(eid) for eid in g.edge_ids},
            g.total_length(), g.is_connected(), g.rank(),
            all(g.scaled_length(eid) == g.length(eid) * g.length_scale for eid in g.edge_ids))


@settings(max_examples=300, deadline=None)
@given(multigraphs(), st.lists(st.integers(0, 10), max_size=8),
       st.lists(st.integers(0, 6), max_size=3))
def test_derived_subgraph_equals_validated(g, edge_ids, extra_vertices):
    derived = _outcome(g.subgraph, edge_ids, extra_vertices)
    assert _shape(derived) == _shape(_outcome(_validated_subgraph, g, edge_ids, extra_vertices))
    if not isinstance(derived, tuple):
        assert all(derived.edge(eid) is g.edge(eid) for eid in derived.edge_ids)


def test_derived_subgraph_keeps_the_parent_scale():
    g = MetricGraph([0, 1], [(0, 0, 1, Fraction(1, 3)), (1, 0, 0, Fraction(1, 2))])
    sub = g.subgraph([0])
    assert sub.length_scale == g.length_scale == 6
    assert sub.total_length() == Fraction(1, 3) and sub.scaled_length(0) == 2


def _cores():
    """Cores with circles, loop segments, self-loops and parallel arcs, and
    the cores of disguises."""
    graphs = [
        MetricGraph([0], [(0, 0, 0, 3)]),
        MetricGraph([3, 5, 8], [(4, 5, 3, 1), (2, 8, 5, 2), (7, 8, 3, Fraction(1, 2))]),
        MetricGraph([0, 1], [(0, 0, 0, 2), (1, 1, 1, 3), (2, 0, 1, 1)]),
        MetricGraph([0, 1, 2], [(0, 1, 2, 1), (1, 2, 1, 2), (2, 1, 1, 3), (3, 0, 1, 5)]),
        MetricGraph([0, 1, 2, 3], [(0, 0, 1, 1), (1, 1, 0, 1), (2, 1, 2, 1), (3, 2, 3, 1),
                                   (4, 3, 1, 1), (5, 0, 0, 1)]),
    ]
    graphs += [random_graph(seed, 2 + seed % 7, 1 + seed % 4, 5) for seed in range(60)]
    graphs += [inst.graph for _, inst in disguise_instances(40)]
    return graphs


def test_segments_equal_the_frozen_tracer():
    checked = 0
    for g in _cores():
        decomp = compute_core(g)
        assert _segments(decomp.core, decomp.branch_points) == \
            reference_segments(decomp.core, decomp.branch_points)
        checked += bool(decomp.segments)
    assert checked >= 90


def test_basis_blocks_equal_tree_path_blocks():
    for g in _cores():
        basis = spanning_tree(g)
        for idx, eid in enumerate(basis.generators, start=1):
            rec = g.edge(eid)
            block = tuple(reduce_steps(basis.tree_path(basis.basepoint, rec.u).steps
                                       + (DirectedEdge(eid, False),)
                                       + basis.tree_path(rec.v, basis.basepoint).steps))
            assert basis._gen_block(idx) == block
            assert basis._gen_block(-idx) == tuple(s.reverse() for s in reversed(block))


def test_one_connectivity_search_per_graph(monkeypatch):
    searched = []
    is_connected = MetricGraph.is_connected

    def counting(self):
        if self._connected is None:
            searched.append(self)
        return is_connected(self)

    monkeypatch.setattr(MetricGraph, "is_connected", counting)
    for g, inst in disguise_instances(5):
        g2p, hom = c08_negative(g, inst, 0)
        for graph in (g, g2p):
            spanning_tree(graph)
            require_valid(graph)
            compute_core(graph)
        reconstruct(g, g2p, hom)
        assert [x for x in searched if x is g] == [g]
        assert [x for x in searched if x is g2p] == [g2p]
    disconnected = MetricGraph([0, 1], [])
    for check in (spanning_tree, require_valid, compute_core):
        with pytest.raises(GraphError):
            check(disconnected)
    assert [x for x in searched if x is disconnected] == [disconnected]


@pytest.mark.parametrize("vertices, extra", [(40, 170), (150, 400)])
def test_disguise_builds_few_graphs(monkeypatch, vertices, extra):
    g = random_graph(3, vertices, extra, 10)
    assert len(g.edge_ids) >= 200
    built = []
    init = MetricGraph.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MetricGraph, "__init__", counting)
    disguise(g, 103)
    assert len(built) <= 3


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_repeated_main_calls_give_identical_results(tmp_path):
    (g, inst), = disguise_instances(1)
    g2p, _ = c08_negative(g, inst, 0)
    files = {"g1": write_graph(g), "g2": write_graph(inst.graph),
             "g2p": write_graph(g2p), "hom": write_hom(inst.hom)}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    p = {name: str(tmp_path / name) for name in files}
    calls = [["reconstruct", p["g1"], p["g2"], p["hom"]],
             ["reconstruct", p["g1"], p["g2p"], p["hom"]],
             ["core", p["g2"]],
             ["reconstruct", p["g1"], p["g2"], p["hom"], "--sweep", "-1"],
             ["core"],
             ["no-such-command"]]
    first = [_main(argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 1, 0, 2, 2, 2]
    assert [_main(argv) for argv in reversed(calls)] == first[::-1]
    assert cli._parser() is cli._parser()


def test_parser_is_not_built_at_import():
    code = ("import mlsgraph.cli as c, sys; "
            "sys.exit(c._parser.cache_info().currsize)")
    done = subprocess.run([sys.executable, "-B", "-c", code], env={"PYTHONPATH": str(SRC)},
                          timeout=60)
    assert done.returncode == 0


def test_spanning_tree_searches_once(monkeypatch):
    searches = []
    tree_parents = fungroup._tree_parents

    def counting(*args):
        searches.append(args[0])
        return tree_parents(*args)

    graphs = _cores()
    monkeypatch.setattr(fungroup, "_tree_parents", counting)
    for g in graphs:
        basis = spanning_tree(g)
        assert searches == [g]
        searches.clear()
        assert Basis(g, basis.tree_edges, basis.generators, basis.basepoint) == basis
        assert searches == [g]
        searches.clear()
    g = MetricGraph([0, 1, 2], [(0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 0, 1)])
    with pytest.raises(GraphError, match="tree edges do not span the graph"):
        Basis(g, frozenset({0}), (1, 2), 0)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), vertices=st.integers(1, 8),
       extra=st.integers(0, 5), pendant=st.booleans())
def test_handed_links_equal_the_tree_search(seed, vertices, extra, pendant):
    # Self-loops and parallel edges come from `random_graph`; a disguise
    # adds pendant trees and subdivisions.
    g = random_graph(seed, vertices, extra, 5)
    if pendant and extra:
        g = disguise(g, seed).graph
    basis = spanning_tree(g)
    direct = Basis(g, basis.tree_edges, basis.generators, basis.basepoint)
    assert basis._parent == direct._parent


def _rank16_pair(seed):
    g = random_graph(seed, 14, 16, 10)
    return g, disguise(g, seed + 100)


@pytest.mark.parametrize("sweep_len", [0, 4])
def test_a_rank16_verdict_walks_few_chains(monkeypatch, sweep_len):
    walks = []
    post_init = EdgePath.__post_init__

    def counting(self):
        walks.append(self)
        post_init(self)

    for seed in (1, 2):
        g, inst = _rank16_pair(seed)
        with monkeypatch.context() as mp:
            mp.setattr(EdgePath, "__post_init__", counting)
            result = reconstruct(g, inst.graph, inst.hom, sweep_len=sweep_len)
        assert result.report().endswith("verdict ACCEPT\n")
        assert 0 < len(walks) <= 20
        walks.clear()


def test_transport_builds_no_fraction_on_accept(monkeypatch):
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    for seed in (1, 2):
        g, inst = _rank16_pair(seed)
        core1, core2 = compute_core(g), compute_core(inst.graph)
        pairs = [distinguishing_pair(core1, seg.path, inst.hom.source) for seg in core1.segments]
        with monkeypatch.context() as mp:
            mp.setattr(Fraction, "__new__", counting)
            images = [transport_path(core2, inst.hom.target, inst.hom, pair) for pair in pairs]
            assert built == []
            assert [nu.length for nu in images] == [pair.path_length for pair in pairs]
            assert len(built) >= len(pairs)  # the counter counts
        built.clear()
