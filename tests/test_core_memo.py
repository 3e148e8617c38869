"""Each graph builds its core and its transition table once.

`compute_core` keeps the parts of its decomposition on the graph and wraps
them anew on each call; `oracle._transition_tables` keeps the table.  A
failure is not kept, and neither memo holds the graph, so a graph is freed
by reference counting alone.
"""

import gc
import weakref

import pytest

from mlsgraph import GraphError, MetricGraph, compute_core, random_graph
from mlsgraph import hull, oracle
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
    tables = _counted(monkeypatch, oracle, "_build_transition_tables")
    for g in (_pendant_theta(), random_graph(7, 5, 3, 6), MetricGraph([0, 1], [(0, 0, 1, 1)])):
        decompositions.clear()
        tables.clear()
        compute_core(g)
        assert core_loop_union_agrees(g)
        assert core_loop_union_agrees(g)
        assert [args[0] for args in decompositions] == [g]
        assert [args[0] for args in tables] == [g]


def test_equal_ids_never_share_a_memo():
    base = _pendant_theta()
    longer = _pendant_theta((1, 2, 4, 5))
    # Same vertex and edge ids, the pendant edge 3 hung from vertex 2.
    moved = MetricGraph([0, 1, 2], [(0, 1, 2, 1), (1, 1, 2, 2), (2, 1, 2, 3), (3, 0, 2, 5)])
    cores = [compute_core(g) for g in (base, longer, moved)]
    assert [d.core.total_length() for d in cores] == [6, 7, 6]
    assert [d.complement[0][1] for d in cores] == [1, 1, 2]
    tables = [oracle._transition_tables(g) for g in (base, longer, moved)]
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
    finally:
        gc.enable()
