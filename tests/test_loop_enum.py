"""Loop enumeration and the core's loop-union checks against a frozen copy.

`_enumerate_loop_codes` returns raw closed walks, `enumerate_cyclic_loops`
puts them in canonical form, and the union checks read edge ids straight
off the walks; each graph builds its transition table once.  These tests
hold the lists, the booleans and the budget to the code in
`loop_enum_reference`, which canonicalised every walk and rebuilt the table
on every call.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from loop_enum_reference import (reference_core_equals_loop_union,
                                 reference_core_loop_union_agrees,
                                 reference_enumerate_cyclic_loops,
                                 reference_enumerate_loop_codes)
from test_acceptance import _connected_multigraphs

from mlsgraph import BudgetExceededError, MetricGraph, random_graph
from mlsgraph.hull import core_equals_loop_union, core_loop_union_agrees
from mlsgraph.oracle import _enumerate_loop_codes, enumerate_cyclic_loops
from mlsgraph.paths import least_rotation


def _fixed_graphs():
    n = 1200
    return {
        "theta": MetricGraph([0, 1], [(0, 0, 1, 1), (1, 0, 1, 2), (2, 0, 1, 3)]),
        "dumbbell": MetricGraph([0, 1], [(0, 0, 0, 2), (1, 1, 1, 3), (2, 0, 1, 1)]),
        "self-loops": MetricGraph([0], [(0, 0, 0, 1), (1, 0, 0, 2), (2, 0, 0, 1)]),
        "parallel": MetricGraph([0, 1, 2], [(0, 0, 1, 1), (1, 0, 1, 1), (2, 1, 2, 2),
                                            (3, 1, 2, 2), (4, 2, 0, 1)]),
        "tree": MetricGraph(range(4), [(0, 0, 1, 1), (1, 1, 2, 2), (2, 1, 3, 1)]),
        "point": MetricGraph([0], []),
        "circle": MetricGraph(range(n), [(i, i, (i + 1) % n, 1) for i in range(n)]),
    }


class _Meter(int):
    """A budget that never runs out and keeps the largest step count checked
    against it: `used > meter` calls `meter.__lt__(used)`, since the meter's
    type is a subclass of int that overrides it."""

    used = 0

    def __lt__(self, used):
        self.used = max(self.used, used)
        return False


def _assert_same_budget(call, reference):
    """`call` gives what `reference` does at the steps `reference` uses, and
    raises `BudgetExceededError` at one fewer."""
    meter = _Meter()
    expected = reference(meter)
    assert call(meter.used) == expected
    if meter.used:
        try:
            call(meter.used - 1)
        except BudgetExceededError:
            return
        raise AssertionError(f"no BudgetExceededError at {meter.used - 1} steps")


def _assert_enumeration_matches(g, max_edges):
    walks = _enumerate_loop_codes(g, max_edges)
    assert len(set(walks)) == len(walks)
    assert all(walk[0] == min(walk) for walk in walks)
    assert {least_rotation(walk) for walk in walks} == \
        reference_enumerate_loop_codes(g, max_edges)
    assert core_equals_loop_union(g, max_edges) == \
        reference_core_equals_loop_union(g, max_edges)
    _assert_same_budget(lambda b: enumerate_cyclic_loops(g, max_edges, budget=b),
                        lambda b: reference_enumerate_cyclic_loops(g, max_edges, budget=b))


def _assert_matches_reference(g, depths=(1, 2, 3, 4)):
    for k in depths:
        _assert_enumeration_matches(g, k)
    _assert_same_budget(lambda b: core_loop_union_agrees(g, budget=b),
                        lambda b: reference_core_loop_union_agrees(g, budget=b))


def test_fixed_graphs_match_reference():
    for name, g in _fixed_graphs().items():
        if name == "circle":
            # The union check and this list enumerate 1200 deep.
            _assert_matches_reference(g, depths=(2,))
            assert enumerate_cyclic_loops(g, 1200) == reference_enumerate_cyclic_loops(g, 1200)
        else:
            _assert_matches_reference(g, depths=(1, 2, 3, 4, 6))


def test_family_matches_reference():
    # c04's family, up to 5 edges.
    for g in _connected_multigraphs(4, 5):
        _assert_matches_reference(g, depths=(1, 2, 4))


def test_random_graphs_match_reference():
    for seed in range(40):
        _assert_matches_reference(random_graph(seed, 2 + seed % 6, 1 + seed % 3, 6))


LENGTHS = st.sampled_from([Fraction(1, 2), 1, 2])


@st.composite
def multigraphs(draw):
    """Connected multigraphs with self-loops and parallel edges: a random
    spanning tree plus a few random edges."""
    n = draw(st.integers(1, 4))
    rows = [(draw(st.integers(0, v - 1)), v, draw(LENGTHS)) for v in range(1, n)]
    ends = st.integers(0, n - 1)
    rows += draw(st.lists(st.tuples(ends, ends, LENGTHS), max_size=3))
    return MetricGraph(range(n), [(eid, u, v, length) for eid, (u, v, length) in enumerate(rows)])


@given(multigraphs())
@settings(max_examples=150, deadline=None)
def test_hypothesis_multigraphs_match_reference(g):
    _assert_matches_reference(g)

