"""Route trees of the distinguishing-pair construction.

`rigidity._frames` yields every (first step, last step, route) frame lazily,
reading the routes from a first step off one breadth-first tree of
non-backtracking steps, which it grows only as far as the wanted last step.
These tests hold the frames, and the candidate pairs `_pair_candidates`
builds from them, to the frozen eager search in `route_reference`, whether
consumed fully or stopped after any prefix, and pin the work: at most one
tree per first step, started in order, and exact expansion counts.
"""

from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st
from route_reference import reference_arc_pairs, reference_frames

from mlsgraph import (MetricGraph, compute_core, disguise, distinguishing_pair, random_graph,
                      rigidity, spanning_tree)

# Two branch points, each with a self-loop, joined by two parallel edges.
TWO_LOOPS_TWO_ARCS = ([0, 1], [(0, 0, 0, 2), (1, 0, 1, 1), (2, 0, 1, 3), (3, 1, 1, 5)])
# A circle: no reduced route turns back, so some (first, last) pairs have none.
CIRCLE = ([0, 1], [(0, 0, 1, 1), (1, 1, 0, 2)])


def _directed_steps(g):
    return sorted(s for v in g.vertex_ids for s in g.out_steps(v))


def _assert_prefixes_match(make, expected, every_prefix):
    """`make()` starts a fresh lazy iteration; it must give `expected` when
    consumed fully and, with `every_prefix`, when stopped after any prefix."""
    assert list(make()) == expected
    for k in range(len(expected) + 1) if every_prefix else ():
        assert list(islice(make(), k)) == expected[:k], k


def _assert_frames_match_reference(g, every_prefix):
    steps = _directed_steps(g)
    _assert_prefixes_match(lambda: rigidity._frames(g, steps, steps),
                           reference_frames(g, steps, steps), every_prefix)
    for first in steps:
        _assert_prefixes_match(lambda: rigidity._frames(g, [first], steps),
                               reference_frames(g, [first], steps), every_prefix)


def _reference_candidates(cg, p):
    """(loop1 steps, loop2 steps, frame) in the order the eager frame list
    gave them: a loop segment's square with each frame, an arc's frame pairs."""
    x, y = p.start, p.end
    first_p, last_p = p.steps[0], p.steps[-1]
    into_x = sorted(s.reverse() for s in cg.out_steps(x))
    if p.is_closed():
        firsts = [d for d in cg.out_steps(x) if d not in (last_p.reverse(), first_p)]
        lasts = [a for a in into_x if a not in (first_p.reverse(), last_p)]
        return [(p.steps + p.steps, p.steps + route, ("loop", d, a))
                for d, a, route in reference_frames(cg, firsts, lasts)]
    outs_y = [d for d in cg.out_steps(y) if d != last_p.reverse()]
    ins_x = [a for a in into_x if a != first_p.reverse()]
    return [(p.steps + r1, p.steps + r2, ("arc", (d1, a1), (d2, a2)))
            for (d1, a1, r1), (d2, a2, r2)
            in reference_arc_pairs(reference_frames(cg, outs_y, ins_x))]


def _assert_candidates_match_reference(core, every_prefix):
    for seg in core.segments:
        _assert_prefixes_match(lambda: rigidity._pair_candidates(core, seg.path),
                               _reference_candidates(core.core, seg.path), every_prefix)


def test_routes_match_reference_on_fixed_cores(theta, dumbbell):
    cores = [compute_core(g) for g in (theta, dumbbell, MetricGraph(*CIRCLE),
                                       MetricGraph(*TWO_LOOPS_TWO_ARCS))]
    for core in cores:
        _assert_frames_match_reference(core.core, every_prefix=True)
    for core in cores[:2] + cores[3:]:  # the circle has no segments
        _assert_candidates_match_reference(core, every_prefix=True)
    circle = cores[2].core
    steps = _directed_steps(circle)
    assert len(list(rigidity._frames(circle, steps, steps))) == len(steps) ** 2 // 2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), vertices=st.integers(1, 6),
       extra=st.integers(1, 5), disguised=st.booleans(), data=st.data())
def test_routes_match_reference_on_random_cores(seed, vertices, extra, disguised, data):
    # One vertex gives only self-loops; few vertices and several extra
    # edges give parallel edges; a rank-1 core is a circle, where some
    # (first, last) pairs have no reduced route.
    g = random_graph(seed, vertices, extra, 5)
    if disguised:
        g = disguise(g, seed + 1).graph
    core = compute_core(g)
    _assert_frames_match_reference(core.core, every_prefix=False)
    if core.branch_points:
        _assert_candidates_match_reference(core, every_prefix=False)
        seg = data.draw(st.sampled_from(core.segments))
        expected = _reference_candidates(core.core, seg.path)
        k = data.draw(st.integers(0, len(expected)))
        assert list(islice(rigidity._pair_candidates(core, seg.path), k)) == expected[:k]


def _first_steps(cg, p):
    if p.is_closed():
        return [d for d in cg.out_steps(p.start) if d not in (p.steps[-1].reverse(), p.steps[0])]
    return [d for d in cg.out_steps(p.end) if d != p.steps[-1].reverse()]


def _count_trees(monkeypatch):
    """Record the first step of every route tree `_frames` starts, as its
    step-table code."""
    built = []
    real = rigidity.deque

    def counted(items):
        built.append(items[0])
        return real(items)

    monkeypatch.setattr(rigidity, "deque", counted)
    return built


class _CountingSuccessors(dict):
    """A step table's successor map that records each code read."""

    def __init__(self, succ, reads):
        super().__init__(succ)
        self.reads = reads

    def __getitem__(self, code):
        self.reads.append(code)
        return super().__getitem__(code)


def _count_expansions(graphs):
    """Count the states route trees expand on the given graphs: one read of
    the step table's successors each."""
    expanded = []
    for g in graphs:
        codes, head, tail, succ = g._step_table
        g._step_table = (codes, head, tail, _CountingSuccessors(succ, expanded))
    return expanded


def test_one_route_tree_per_first_step(monkeypatch):
    built = _count_trees(monkeypatch)
    g_random = random_graph(4, 6, 5, 9)
    kinds = set()
    lazy = 0
    for g in (MetricGraph(*TWO_LOOPS_TWO_ARCS), g_random, disguise(g_random, 4).graph):
        core = compute_core(g)
        basis = spanning_tree(g)
        for seg in core.segments:
            built.clear()
            distinguishing_pair(core, seg.path, basis)
            firsts = [2 * d.edge + d.rev for d in _first_steps(core.core, seg.path)]
            assert built and built == firsts[:len(built)], seg.path
            lazy += len(built) < len(firsts)
            kinds.add((seg.path.is_closed(), len(firsts) > 1))
    assert {(False, True), (True, True)} <= kinds
    assert lazy  # some pair is found before every first step's tree is needed


def test_route_tree_expansions_on_fixed_cores(theta):
    # Theta, segment e0 (0 -> 1): the first steps are e1^-1 and e2^-1 and the
    # last steps the same two.  Frame (e1^-1, e1^-1) expands nothing.  The
    # second loop skips e1^-1's frames and starts e2^-1's tree:
    # (e2^-1, e1^-1) expands e2^-1 and e0 but shares its last step with the
    # first frame, so cannot pair with it; (e2^-1, e2^-1) is the tree's root
    # and pairs with the first frame.  2 expansions, where a second loop over
    # every first step's frames expanded 4 (it grew e1^-1's tree to e2^-1
    # first) and the eager trees all 6 states each.  Segments e1 and e2 go
    # the same way, but the route from e2^-1 (from e1^-1 for e2) to e0^-1
    # expands 3 states.
    cores = [(compute_core(g), spanning_tree(g))
             for g in (theta, MetricGraph(*TWO_LOOPS_TWO_ARCS))]
    expanded = _count_expansions(core.core for core, _ in cores)
    counts = []
    for core, basis in cores:
        per_segment = []
        for seg in core.segments:
            expanded.clear()
            distinguishing_pair(core, seg.path, basis)
            per_segment.append(len(expanded))
        counts.append(per_segment)
    assert counts == [[2, 3, 3], [3, 3, 3, 2]]
