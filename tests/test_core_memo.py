"""Each graph builds its core and its step table once.

`compute_core` keeps the parts of its decomposition on the graph and wraps
them anew on each call; `MetricGraph._step_table`, the successor codes that
the oracle, the route trees and the segment tracer read, is built on first
use and kept.  No construction builds a table.  A core's segments and
complement, and a basis's generator blocks, are built on first read and
kept, so a verdict builds only what it reads.  A failure is not kept, and no
memo holds the graph, so a graph is freed by reference counting alone.
"""

import contextlib
import gc
import io
import weakref

import pytest
from helpers import disguise_instances
from test_sweep_order import _rank12_negatives

from mlsgraph import (GraphError, IsometryCertificate, MetricGraph, compute_core, disguise,
                      random_graph, read_graph, reconstruct, spanning_tree, subdivide_edge,
                      word_to_loop, write_graph)
from mlsgraph import cli, fungroup, hull, rigidity
from mlsgraph.hull import core_loop_union_agrees


def _counted(monkeypatch, module, name):
    """Replace `module.name` by a wrapper that counts its calls."""
    calls = []
    fn = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def _counted_tables(monkeypatch):
    """Record the graph of every step table built."""
    built = []
    table = MetricGraph.__dict__["_step_table"]
    build = table.func

    def counting(g):
        built.append(g)
        return build(g)

    monkeypatch.setattr(table, "func", counting)
    return built


def _has_table(g):
    return "_step_table" in vars(g)


def _pendant_theta(lengths=(1, 2, 3, 5)):
    a, b, c, d = lengths
    return MetricGraph([0, 1, 2], [(0, 1, 2, a), (1, 1, 2, b), (2, 1, 2, c), (3, 0, 1, d)])


def test_second_call_wraps_the_same_parts():
    g = _pendant_theta()
    first, second = compute_core(g), compute_core(g)
    assert first == second and first is not second
    assert second.graph is g
    assert second.core is first.core
    assert second.segments is first.segments and second.complement is first.complement


def test_union_check_builds_one_core_and_one_table(monkeypatch):
    decompositions = _counted(monkeypatch, hull, "_decompose")
    tables = _counted_tables(monkeypatch)
    for g in (_pendant_theta(), random_graph(7, 5, 3, 6), MetricGraph([0, 1], [(0, 0, 1, 1)])):
        decompositions.clear()
        tables.clear()
        compute_core(g)
        assert core_loop_union_agrees(g)
        assert core_loop_union_agrees(g)
        assert [args[0] for args in decompositions] == [g]
        assert tables == [g]


def test_equal_ids_never_share_a_memo():
    base = _pendant_theta()
    longer = _pendant_theta((1, 2, 4, 5))
    # Same vertex and edge ids, the pendant edge 3 hung from vertex 2.
    moved = MetricGraph([0, 1, 2], [(0, 1, 2, 1), (1, 1, 2, 2), (2, 1, 2, 3), (3, 0, 2, 5)])
    cores = [compute_core(g) for g in (base, longer, moved)]
    assert [d.core.total_length() for d in cores] == [6, 7, 6]
    assert [d.complement[0][1] for d in cores] == [1, 1, 2]
    tables = [g._step_table for g in (base, longer, moved)]
    assert tables[0] == tables[1] and tables[0] is not tables[1]
    assert [t[1][6] for t in tables] == [1, 1, 2]  # head of edge 3
    for g in (base, longer, moved):
        assert core_loop_union_agrees(g)


def test_disconnected_graph_raises_on_every_call(monkeypatch):
    decompositions = _counted(monkeypatch, hull, "_decompose")
    g = MetricGraph([0, 1, 2], [(0, 0, 1, 1), (1, 0, 1, 2)])
    for _ in range(3):
        with pytest.raises(GraphError, match="disconnected"):
            compute_core(g)
        with pytest.raises(GraphError, match="disconnected"):
            core_loop_union_agrees(g)
    assert len(decompositions) == 6


def test_memos_make_no_reference_cycle():
    gc.disable()
    try:
        g = _pendant_theta()
        compute_core(g)
        assert core_loop_union_agrees(g)
        ref = weakref.ref(g)
        del g
        assert ref() is None
        # Again with every lazy part read: segments, complement, all blocks.
        g = random_graph(0, 7, 3, 5)
        d = compute_core(g)
        assert d.segments and d.complement
        basis = spanning_tree(g)
        for k in range(1, basis.rank + 1):
            word_to_loop(basis, (k, -k, -k))
        assert len(basis._gen_blocks) == 2 * basis.rank
        ref = weakref.ref(g)
        del g, d, basis
        assert ref() is None
    finally:
        gc.enable()


def _counted_parts(monkeypatch):
    """Counters on the builders of segments, complements and blocks."""
    blocks = []
    build = fungroup.Basis._loop_steps

    def counting_block(basis, k, at):
        blocks.append((basis, k))
        return build(basis, k, at)

    monkeypatch.setattr(fungroup.Basis, "_loop_steps", counting_block)
    return (_counted(monkeypatch, hull, "_segments"),
            _counted(monkeypatch, hull, "_complement_components"), blocks)


def test_cli_reject_builds_only_the_blocks_it_reads(monkeypatch, tmp_path):
    segments, complements, blocks = _counted_parts(monkeypatch)
    queried = []
    real = rigidity.marked_length

    def recording(basis, w):
        queried.append((basis, w))
        return real(basis, w)

    monkeypatch.setattr(rigidity, "marked_length", recording)
    for argv in _rank12_negatives(3, 8, tmp_path):
        blocks.clear()
        queried.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 1
        assert not segments and not complements
        letters = {(id(b), x) for b, w in queried for x in w}
        assert sorted((id(b), k) for b, k in blocks) == sorted(letters)
        assert len(letters) < 48  # 2 * rank blocks on each of the two sides


def test_union_check_and_disguise_build_no_segments(monkeypatch):
    segments, complements, _ = _counted_parts(monkeypatch)
    for g in (_pendant_theta(), random_graph(7, 5, 3, 6), MetricGraph([0, 1], [(0, 0, 1, 1)])):
        assert core_loop_union_agrees(g)
    for seed in range(10):
        disguise(random_graph(seed, 6, 3, 5), seed)
    assert not segments and not complements


def test_accept_builds_segments_once_per_core(monkeypatch):
    segments, complements, _ = _counted_parts(monkeypatch)
    kinds = set()
    for g, inst in disguise_instances(30):
        segments.clear()
        cert = reconstruct(g, inst.graph, inst.hom, 4)
        assert isinstance(cert, IsometryCertificate)
        # A circle's certificate is read off its circumference alone.
        built = [cert.core1.core, cert.core2.core] if cert.kind == "branched" else []
        assert [args[0] for args in segments] == built
        kinds.add(cert.kind)
    assert kinds == {"branched", "circle"} and not complements


def test_each_part_is_built_once(monkeypatch):
    segments, complements, blocks = _counted_parts(monkeypatch)
    g = _pendant_theta()
    first = compute_core(g)
    assert not segments and not complements
    assert first.segments is compute_core(g).segments is first.segments
    assert first.complement is compute_core(g).complement is first.complement
    assert len(segments) == len(complements) == 1
    basis = spanning_tree(g)
    assert not blocks
    word_to_loop(basis, (1, 1, -2))
    word_to_loop(basis, (-2, 1))
    assert basis._gen_block(1) is basis._gen_block(1)
    assert [k for _, k in blocks] == [1, -2]


def test_no_construction_builds_a_step_table(monkeypatch):
    built = _counted_tables(monkeypatch)
    g = random_graph(5, 6, 4, 7)
    inst = disguise(g, 5)
    graphs = [g, inst.graph, compute_core(g).core, compute_core(inst.graph).core,
              MetricGraph([0, 1], [(0, 0, 0, 1), (1, 0, 1, "3/2")]),
              read_graph(write_graph(inst.graph)), g.subgraph(sorted(g.edge_ids)[:3], [0]),
              g.relabeled({v: 2 * v for v in g.vertex_ids}, {e: e + 9 for e in g.edge_ids}),
              subdivide_edge(g, 0, ["1/3"])]
    assert not built and not any(map(_has_table, graphs))


def test_sweep_prefix_reject_builds_no_step_table(monkeypatch, tmp_path):
    built = _counted_tables(monkeypatch)
    segments, _, _ = _counted_parts(monkeypatch)
    for argv in _rank12_negatives(3, 8, tmp_path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 1
        assert out.getvalue().startswith("verdict REJECT spectrum-mismatch")
    assert not segments and not built  # each failed before the pipeline


def test_accept_builds_a_step_table_on_each_core(monkeypatch):
    built = _counted_tables(monkeypatch)
    pairs = [(g, inst, 4) for g, inst in disguise_instances(30)]
    for sweep in (0, 4):  # fresh graphs: a second verdict on a core builds nothing
        rank16 = random_graph(3, 14, 16, 10)
        pairs.append((rank16, disguise(rank16, 103), sweep))
    kinds = set()
    for g, inst, sweep in pairs:
        built.clear()
        cert = reconstruct(g, inst.graph, inst.hom, sweep)
        assert isinstance(cert, IsometryCertificate)
        # A circle's certificate is read off its circumference alone.
        assert built == ([cert.core1.core, cert.core2.core] if cert.kind == "branched" else [])
        kinds.add(cert.kind)
    assert kinds == {"branched", "circle"}
