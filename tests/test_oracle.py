import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from loop_enum_reference import reference_transition_tables
from test_graphs import shuffled_multigraphs

from mlsgraph import (BudgetExceededError, Hom, MetricGraph, brute_force_isometry,
                      compute_core, disguise, enumerate_cyclic_loops, format_path,
                      random_graph, spanning_tree, spectra_agree_up_to)
from mlsgraph.fungroup import identity_hom, marked_length
from mlsgraph.graphs import DirectedEdge, GraphError
from mlsgraph.hull import core_equals_loop_union
from mlsgraph.oracle import _enumerate_loop_codes, covering_loop_depth


def test_enumerate_theta_two_edges(theta):
    loops = enumerate_cyclic_loops(theta, 2)
    assert len(loops) == 6
    supports = sorted(tuple(sorted(c.support())) for c in loops)
    assert supports == [(0, 1), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2)]


def test_enumerate_tree_is_empty():
    g = MetricGraph([0, 1], [(0, 0, 1, 1)])
    assert enumerate_cyclic_loops(g, 6) == []


def test_enumerate_self_loop_orientations():
    g = MetricGraph([0], [(0, 0, 0, 1)])
    loops = enumerate_cyclic_loops(g, 1)
    assert sorted(format_path(c) for c in loops) == ["e0", "e0^-1"]


def test_enumerate_deduplicates_rotations(dumbbell):
    loops = enumerate_cyclic_loops(dumbbell, 4)
    keys = [c.steps for c in loops]
    assert len(keys) == len(set(keys))


def test_enumerate_matches_spectrum_values(dumbbell):
    """Loop enumeration and the spectrum table describe the same classes:
    within the edge budget, the value multisets coincide."""
    basis = spanning_tree(dumbbell)
    from mlsgraph.fungroup import enumerate_reduced_words, word_cyclic_core
    spectrum_cores = {}
    for w in enumerate_reduced_words(basis.rank, 4):
        core = word_cyclic_core(basis, w)
        if core is not None and len(core.steps) <= 4:
            spectrum_cores[core.steps] = core.length
    oracle_cores = {c.steps: c.length for c in enumerate_cyclic_loops(dumbbell, 4)}
    assert spectrum_cores == oracle_cores
    assert sorted(spectrum_cores.values()) == sorted(oracle_cores.values())


def test_enumerate_budget_guard():
    g = random_graph(0, 2, 6, 3)
    with pytest.raises(BudgetExceededError):
        enumerate_cyclic_loops(g, 14, budget=50)


def test_budget_env_override(monkeypatch, theta):
    monkeypatch.setenv("MLS_BUDGET", "10")
    with pytest.raises(BudgetExceededError):
        enumerate_cyclic_loops(theta, 6)
    monkeypatch.setenv("MLS_BUDGET", "1000000")
    assert enumerate_cyclic_loops(theta, 4)
    monkeypatch.setenv("MLS_BUDGET", "0")
    with pytest.raises(BudgetExceededError, match="budget of 0 steps"):
        enumerate_cyclic_loops(theta, 1)
    monkeypatch.setenv("MLS_BUDGET", "1e3")
    with pytest.raises(BudgetExceededError, match="must be a count in ASCII digits, not '1e3'"):
        enumerate_cyclic_loops(theta, 4)


def test_no_walk_has_zero_steps(theta):
    """A depth of 0 or less gives no walk and uses no budget: at budget 0 any
    step would raise."""
    tree = MetricGraph(range(4), [(0, 0, 1, 1), (1, 1, 2, 2), (2, 1, 3, 1)])
    for depth in (0, -1, -40):
        for g in (theta, tree):
            assert _enumerate_loop_codes(g, depth, budget=0) == []
            assert _enumerate_loop_codes(g, depth) == []
            assert enumerate_cyclic_loops(g, depth) == []
        assert core_equals_loop_union(theta, depth) is False
        assert core_equals_loop_union(tree, depth) is True


def _table_graphs():
    return {
        "dangling": MetricGraph([0, 1], [(0, 0, 1, 1), (1, 1, 0, 2), (2, 1, 5, 1),
                                         (3, 7, 8, 1), (4, 6, 6, 1)]),
        "sparse ids": MetricGraph([0, 1, 2], [(10**9, 0, 1, 1), (7, 1, 2, 2),
                                              (10**9 + 3, 2, 0, 3), (123_456, 2, 2, 1)]),
        "self-loops and parallel": MetricGraph([0, 1], [(4, 0, 0, 1), (3, 0, 0, 2), (2, 0, 1, 1),
                                                        (1, 1, 0, 1), (0, 0, 1, 3), (5, 1, 1, 1)]),
        "isolated": MetricGraph([3, 0, 9, 1], [(0, 0, 1, 1), (1, 0, 1, 2)]),
        "point": MetricGraph([0], []),
        "empty": MetricGraph([], []),
    }


def test_transition_tables_match_the_frozen_reference():
    for name, g in _table_graphs().items():
        assert g._step_table == reference_transition_tables(g), name


@given(shuffled_multigraphs())
@settings(max_examples=300, deadline=None)
def test_transition_tables_match_on_shuffled_multigraphs(g):
    assert g._step_table == reference_transition_tables(g)


def test_transition_tables_read_no_step_accessor(monkeypatch):
    graphs = _table_graphs()
    calls = []
    for name in ("next_steps", "step_head", "step_tail", "out_steps"):
        def counting(self, arg, _name=name, _real=getattr(MetricGraph, name)):
            calls.append(_name)
            return _real(self, arg)
        monkeypatch.setattr(MetricGraph, name, counting)
    for g in graphs.values():
        g._step_table  # built here
    assert calls == []
    reference_transition_tables(graphs["self-loops and parallel"])  # the counters count
    assert {"out_steps", "step_head", "step_tail"} <= set(calls)


def test_brute_force_relabeled(theta):
    relabeled = theta.relabeled({0: 5, 1: 3}, {0: 9, 1: 4, 2: 0}, flip_edges={1})
    witness = brute_force_isometry(theta, relabeled)
    assert witness is not None
    vmap, pairs = witness
    assert vmap in ({0: 5, 1: 3}, {0: 3, 1: 5})
    assert len(pairs) == 3


def test_brute_force_theta_vs_dumbbell(theta, dumbbell):
    assert brute_force_isometry(theta, dumbbell) is None


def test_brute_force_requires_cores(theta):
    from mlsgraph import attach_tree
    from mlsgraph.graphs import random_tree
    import random
    g = attach_tree(theta, 0, random_tree(random.Random(0), 3), 0)
    with pytest.raises(GraphError):
        brute_force_isometry(g, theta)


def test_brute_force_two_disguises(theta):
    a = disguise(theta, 4)
    b = disguise(theta, 9)
    ca = compute_core(a.graph).core
    cb = compute_core(b.graph).core
    assert brute_force_isometry(ca, cb) is not None


def test_brute_force_circles():
    a = MetricGraph([0], [(0, 0, 0, 6)])
    b = MetricGraph([0, 1], [(0, 0, 1, 2), (1, 1, 0, 4)])
    c = MetricGraph([0], [(0, 0, 0, 7)])
    assert brute_force_isometry(a, b) is not None
    assert brute_force_isometry(a, c) is None


def test_spectra_agree_identity(theta):
    basis = spanning_tree(theta)
    assert spectra_agree_up_to(basis, basis, identity_hom(basis), 3) is None


def test_spectra_mismatch_found(theta):
    perturbed = MetricGraph([0, 1],
                            [(0, 0, 1, 1), (1, 0, 1, "15/7"), (2, 0, 1, 3)])
    b1, b2 = spanning_tree(theta), spanning_tree(perturbed)
    h = Hom(b1, b2, ((1,), (2,)), ((1,), (2,)))
    w = spectra_agree_up_to(b1, b2, h, 1)
    assert w == (1,)
    assert marked_length(b1, w) != marked_length(b2, w)


def test_spectra_agree_on_disguise(theta):
    inst = disguise(theta, 2)
    assert spectra_agree_up_to(inst.hom.source, inst.hom.target, inst.hom, 4) is None


def test_spectra_guard():
    g = random_graph(0, 4, 5, 3)
    basis = spanning_tree(g)
    with pytest.raises(BudgetExceededError):
        spectra_agree_up_to(basis, basis, identity_hom(basis), 9)


def test_oracle_pipeline_agreement():
    """reconstruct accepts exactly when the brute-force witness exists and
    the bounded spectrum sweep finds no counterexample."""
    from fractions import Fraction
    from mlsgraph import IsometryCertificate, reconstruct

    cases = []
    for seed in (3, 11, 19, 27):
        g = random_graph(seed, 2 + seed % 4, 1 + seed % 3, 5)
        if compute_core(g).is_empty:
            continue
        inst = disguise(g, seed + 40)
        cases.append((g, inst.graph, inst.hom))
        # perturbed variant of the same instance
        core_edge = min(compute_core(inst.graph).core.edge_ids)
        rows = [(eid, rec.u, rec.v,
                 rec.length + (Fraction(1, 7) if eid == core_edge else 0))
                for eid, rec in inst.graph.edges_sorted()]
        bad = MetricGraph(inst.graph.vertex_ids, rows, name="bad")
        cases.append((g, bad, Hom(spanning_tree(g), spanning_tree(bad),
                                  inst.hom.images, inst.hom.inverse_images)))
    assert cases
    for g1, g2, hom in cases:
        if hom.source.rank > 4:
            continue
        result = reconstruct(g1, g2, hom)
        witness = brute_force_isometry(compute_core(g1).core, compute_core(g2).core)
        counterexample = spectra_agree_up_to(hom.source, hom.target, hom, 4)
        if isinstance(result, IsometryCertificate):
            assert witness is not None and counterexample is None
        else:
            assert witness is None or counterexample is not None


def test_covering_depth_is_minimal_stabilization():
    """The computed sufficient depth matches the first budget at which the
    loop union stabilizes on the core, checked by direct enumeration."""
    from mlsgraph.oracle import covering_loop_depth

    for seed in range(20):
        g = random_graph(seed, 2 + seed % 4, 1 + seed % 3, 4)
        d = compute_core(g)
        core_edges = set(d.core.edge_ids)
        if not core_edges:
            continue
        depth = covering_loop_depth(g, core_edges)
        union = set()
        for c in enumerate_cyclic_loops(g, depth):
            union |= c.support()
        assert union == core_edges
        if depth > 1:
            prior = set()
            for c in enumerate_cyclic_loops(g, depth - 1):
                prior |= c.support()
            assert prior != core_edges


def _covering_loop_depth_all_starts(g, edge_ids):
    """The search from every directed step, before it was cut to one forward
    step per requested edge; kept as the reference."""
    codes, head, tail, succ = g._step_table
    best = {}
    for start in codes:
        target = tail[start]
        dist = {start: 1}
        frontier = [start]
        shortest = None
        while frontier and shortest is None:
            nxt = []
            for c in frontier:
                if head[c] == target and start in succ[c]:
                    shortest = dist[c]
                    break
                for s in succ[c]:
                    if s not in dist:
                        dist[s] = dist[c] + 1
                        nxt.append(s)
            frontier = nxt
        if shortest is not None:
            eid = start >> 1
            best[eid] = min(best.get(eid, shortest), shortest)
    return max((best[e] for e in edge_ids if e in best), default=0)


def test_covering_depth_matches_search_from_every_step():
    import random

    from mlsgraph.oracle import covering_loop_depth

    rng = random.Random(5)
    circle = MetricGraph(range(41), [(i, i, (i + 1) % 40, 1) for i in range(40)]
                         + [(40, 0, 40, 1)] + [(41 + k, 0, 0, 1) for k in range(2)])
    graphs = [circle] + [random_graph(seed, 1 + seed % 6, seed % 5, 4) for seed in range(300)]
    for g in graphs:
        edges = sorted(g.edge_ids)
        for edge_ids in (edges, sorted(compute_core(g).core.edge_ids), [],
                         rng.sample(edges, rng.randint(0, len(edges))), [len(edges) + 7]):
            assert covering_loop_depth(g, edge_ids) == \
                _covering_loop_depth_all_starts(g, edge_ids), (g, edge_ids)


def _naive_covering_depth(g, edge_ids):
    """Per requested edge on the adjacency, the fewest steps of a closed
    walk that starts along the edge, either way, and never steps straight
    back, also from its last step to its first; the max of these, or 0."""
    on_adjacency = {s.edge for v in g.vertex_ids for s in g.out_steps(v)}
    depth = 0
    for e in set(edge_ids) & on_adjacency:
        lengths = []
        for first in (DirectedEdge(e, False), DirectedEdge(e, True)):
            layer, n = {first}, 1
            while layer and n <= 2 * len(on_adjacency):
                if any(first in g.next_steps(s) for s in layer):
                    lengths.append(n)
                    break
                layer = {t for s in layer for t in g.next_steps(s)}
                n += 1
        if lengths:
            depth = max(depth, min(lengths))
    return depth


@settings(max_examples=300, deadline=None)
@given(shuffled_multigraphs(), st.data())
def test_covering_depth_matches_the_naive_per_edge_maximum(g, data):
    edges = sorted(g.edge_ids)
    wanted = data.draw(st.one_of(st.just(edges), st.lists(st.sampled_from(edges + [11]))))
    assert covering_loop_depth(g, wanted) == _naive_covering_depth(g, wanted)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), vertices=st.integers(1, 6), extra=st.integers(1, 4))
def test_covering_depth_matches_the_naive_maximum_on_disguises(seed, vertices, extra):
    # A disguise adds pendant trees and subdivided edges.
    g = random_graph(seed, vertices, extra, 5)
    for graph in (g, disguise(g, seed).graph):
        for wanted in (graph.edge_ids, compute_core(graph).core.edge_ids):
            assert covering_loop_depth(graph, wanted) == _naive_covering_depth(graph, wanted)


class _CountingTail(dict):
    """A tail table that counts its reads: a search reads its start's tail once."""

    reads = 0

    def __getitem__(self, code):
        self.reads += 1
        return super().__getitem__(code)


def test_covering_depth_searches_the_circle_once():
    n = 1200
    circle = MetricGraph(range(n), [(i, i, (i + 1) % n, 1) for i in range(n)])
    codes, head, tail, succ = circle._step_table
    counting = _CountingTail(tail)
    circle._step_table = (codes, head, counting, succ)
    assert covering_loop_depth(circle, circle.edge_ids) == n
    assert counting.reads == 1
