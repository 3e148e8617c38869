"""Distinguishing pairs against the frozen construction in `pair_reference`.

The library builds each candidate as two step tuples and checks none of
them, because the construction makes both loops cyclically reduced and the
recovery identity exact.  These tests hold it to the frozen version, which
built every candidate as loops and checked both facts: the candidates are
the same and the frozen check accepts every one, the pairs are equal field
by field for the first three variants, and a loop's word read off its
generator crossings equals the word of its conjugate to the basepoint.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pair_reference import (reference_accepts, reference_distinguishing_pair,
                            reference_loop_class_word, reference_pair_candidates)

from mlsgraph import (EdgePath, MetricGraph, RigidityError, compute_core, disguise,
                      distinguishing_pair, random_graph, rigidity, shortest_path,
                      spanning_tree)
from mlsgraph.fungroup import loop_class_word

# Two branch points, each with a self-loop, joined by two parallel edges.
TWO_LOOPS_TWO_ARCS = ([0, 1], [(0, 0, 0, 2), (1, 0, 1, 1), (2, 0, 1, 3), (3, 1, 1, 5)])


def _paths(core):
    """Every core segment, then (as in criterion c06) a shortest path
    between every ordered pair of distinct branch points."""
    paths = [seg.path for seg in core.segments]
    branch = sorted(core.branch_points)
    paths += [shortest_path(core.core, x, y) for x in branch for y in branch if x != y]
    return paths


def _outcome(make):
    try:
        pair = make()
    except RigidityError as err:
        return err.code, err.detail
    return pair.path, pair.loop1, pair.loop2, pair.word1, pair.word2, pair.frame


def _assert_pairs_match_reference(g):
    core = compute_core(g)
    if not core.branch_points:
        return 0
    basis = spanning_tree(g)
    cg = core.core
    checked = 0
    for p in _paths(core):
        got = list(rigidity._pair_candidates(core, p))
        frozen = list(reference_pair_candidates(core, p))
        assert got == [(l1.steps, l2.steps, frame) for l1, l2, frame in frozen]
        for steps1, steps2, _ in got:
            assert reference_accepts(g, EdgePath(cg, p.start, steps1),
                                     EdgePath(cg, p.start, steps2), p.length)
        checked += len(got)
        for variant in (0, 1, 2):
            new = _outcome(lambda: distinguishing_pair(core, p, basis, variant))
            old = _outcome(lambda: reference_distinguishing_pair(core, p, basis, variant))
            assert new == old, (p, variant)
            if len(new) == 2:
                assert new[0] == "no-distinguishing-pair"
    return checked


def test_pairs_match_reference_on_fixed_cores(theta, dumbbell, pendant_theta):
    for g in (theta, dumbbell, pendant_theta, MetricGraph(*TWO_LOOPS_TWO_ARCS)):
        assert _assert_pairs_match_reference(g)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), vertices=st.integers(1, 6),
       extra=st.integers(1, 5), disguised=st.booleans())
def test_pairs_match_reference_on_random_cores(seed, vertices, extra, disguised):
    # One vertex gives only self-loops; few vertices and several extra
    # edges give parallel edges; a disguise adds pendant trees and
    # subdivision vertices, so the basepoint may lie off the core.
    g = random_graph(seed, vertices, extra, 5)
    if disguised:
        g = disguise(g, seed + 1).graph
    _assert_pairs_match_reference(g)


def _random_loop(g, rng, start, steps):
    """A closed walk from `start`: random steps, possibly backtracking,
    then a shortest path back."""
    walk = []
    at = start
    for _ in range(steps if g.out_steps(start) else 0):
        step = rng.choice(g.out_steps(at))
        walk.append(step)
        at = g.step_head(step)
    back = shortest_path(g, at, start)
    return EdgePath(g, start, tuple(walk) + back.steps)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), vertices=st.integers(1, 6),
       extra=st.integers(0, 5), disguised=st.booleans())
def test_loop_class_word_matches_conjugated_form(seed, vertices, extra, disguised):
    g = random_graph(seed, vertices, extra, 5)
    if disguised and extra:
        g = disguise(g, seed + 1).graph
    basis = spanning_tree(g)
    rng = random.Random(seed)
    for v in sorted(g.vertex_ids):
        for n in (0, 1, 3, 8):
            loop = _random_loop(g, rng, v, n)
            assert loop_class_word(basis, loop) == reference_loop_class_word(basis, loop)


def test_loop_class_word_refuses_an_open_path(theta):
    basis = spanning_tree(theta)
    with pytest.raises(ValueError):
        loop_class_word(basis, EdgePath(theta, 0, (theta.out_steps(0)[0],)))
