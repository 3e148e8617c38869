"""Route trees of the distinguishing-pair construction.

`rigidity._frames` reads every route from a first step off one breadth-first
tree of non-backtracking steps.  These tests hold those routes to the frozen
per-frame uniform-cost search in `route_reference`, and pin the work: one
tree per first step of a distinguishing pair.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from route_reference import reference_route

from mlsgraph import (MetricGraph, compute_core, disguise, distinguishing_pair, random_graph,
                      rigidity, spanning_tree)

# Two branch points, each with a self-loop, joined by two parallel edges.
TWO_LOOPS_TWO_ARCS = ([0, 1], [(0, 0, 0, 2), (1, 0, 1, 1), (2, 0, 1, 3), (3, 1, 1, 5)])


def _directed_steps(g):
    return sorted(s for v in g.vertex_ids for s in g.out_steps(v))


def _assert_routes_match_reference(g):
    steps = _directed_steps(g)
    for first in steps:
        routes = {a: route for _, a, route in rigidity._frames(g, [first], steps)}
        for last in steps:
            assert routes.get(last) == reference_route(g, first, last), (first, last)


def test_routes_match_reference_on_fixed_cores(theta, dumbbell):
    circle = MetricGraph([0, 1], [(0, 0, 1, 1), (1, 1, 0, 2)])
    for g in (theta, dumbbell, circle, MetricGraph(*TWO_LOOPS_TWO_ARCS)):
        _assert_routes_match_reference(compute_core(g).core)
    # On a circle no reduced route turns back, so some pairs have no route.
    steps = _directed_steps(circle)
    assert len(rigidity._frames(circle, steps, steps)) == len(steps) ** 2 // 2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), vertices=st.integers(1, 6),
       extra=st.integers(1, 5), disguised=st.booleans())
def test_routes_match_reference_on_random_cores(seed, vertices, extra, disguised):
    # One vertex gives only self-loops; few vertices and several extra
    # edges give parallel edges; a rank-1 core is a circle, where some
    # (first, last) pairs have no reduced route.
    g = random_graph(seed, vertices, extra, 5)
    if disguised:
        g = disguise(g, seed + 1).graph
    _assert_routes_match_reference(compute_core(g).core)


def _first_steps(cg, p):
    if p.is_closed():
        return [d for d in cg.out_steps(p.start) if d not in (p.steps[-1].reverse(), p.steps[0])]
    return [d for d in cg.out_steps(p.end) if d != p.steps[-1].reverse()]


def test_one_route_tree_per_first_step(monkeypatch):
    built = []
    real = rigidity._route_tree

    def counted(core, first):
        built.append(first)
        return real(core, first)

    monkeypatch.setattr(rigidity, "_route_tree", counted)
    g_random = random_graph(4, 6, 5, 9)
    kinds = set()
    for g in (MetricGraph(*TWO_LOOPS_TWO_ARCS), g_random, disguise(g_random, 4).graph):
        core = compute_core(g)
        basis = spanning_tree(g)
        for seg in core.segments:
            built.clear()
            distinguishing_pair(core, seg.path, basis)
            firsts = _first_steps(core.core, seg.path)
            assert built == firsts, seg.path
            kinds.add((seg.path.is_closed(), len(firsts) > 1))
    assert {(False, True), (True, True)} <= kinds
