"""Frozen reference for the loop enumeration and the core's loop-union checks.

These are `oracle._transition_tables`, `oracle._enumerate_loop_codes`,
`oracle.enumerate_cyclic_loops`, `oracle.covering_loop_depth`,
`hull.core_equals_loop_union` and `hull.core_loop_union_agrees` as they were
before each graph built its core and transition table once and the
enumeration returned raw closed walks: every call rebuilds the table, and
every closed walk is put in canonical form with `least_rotation` as it is
found.  The differential tests compare the library against them.  Do not
update them to follow the library.
"""

from mlsgraph.graphs import DirectedEdge
from mlsgraph.hull import compute_core
from mlsgraph.oracle import BudgetExceededError, default_budget
from mlsgraph.paths import CyclicPath, least_rotation


def reference_enumerate_cyclic_loops(g, max_edges, budget=None):
    found = reference_enumerate_loop_codes(g, max_edges, budget)
    loops = [
        CyclicPath(g, tuple(DirectedEdge(c >> 1, bool(c & 1)) for c in codes))
        for codes in found]
    loops.sort(key=lambda c: (len(c.steps), c.steps))
    return loops


def reference_transition_tables(g):
    all_steps = sorted({s for v in g.vertex_ids for s in g.out_steps(v)})
    code = {d: 2 * d.edge + d.rev for d in all_steps}
    head = {}
    succ = {}
    for d in all_steps:
        c = code[d]
        head[c] = g.step_head(d)
        succ[c] = tuple(code[s] for s in g.out_steps(head[c]) if s != d.reverse())
    tails = {code[d]: g.step_tail(d) for d in all_steps}
    return sorted(head), head, tails, succ


def reference_enumerate_loop_codes(g, max_edges, budget=None):
    limit = default_budget() if budget is None else budget
    used = 0
    codes, head, tail, succ = reference_transition_tables(g)
    found = set()
    for first in codes:
        base = tail[first]
        walk = []
        pending = [iter((first,))]
        while pending:
            for step in pending[-1]:
                if step >= first:
                    break
            else:
                pending.pop()
                if walk:
                    walk.pop()
                continue
            walk.append(step)
            used += 1
            if used > limit:
                raise BudgetExceededError(f"oracle budget of {limit} steps exceeded")
            if head[step] == base and step != first ^ 1:
                found.add(least_rotation(tuple(walk)))
            if len(walk) == max_edges:
                walk.pop()
            else:
                pending.append(iter(succ[step]))
    return found


def reference_covering_loop_depth(g, edge_ids):
    codes, head, tail, succ = reference_transition_tables(g)
    wanted = set(edge_ids)
    depth = 0
    for start in codes:
        if start & 1 or start >> 1 not in wanted:
            continue
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
            depth = max(depth, shortest)
    return depth


def reference_core_equals_loop_union(g, max_edges, budget=None):
    decomp = compute_core(g)
    union = set()
    for loop in reference_enumerate_cyclic_loops(g, max_edges, budget=budget):
        union.update(loop.support())
    return union == set(decomp.core.edge_ids)


def reference_core_loop_union_agrees(g, budget=None):
    decomp = compute_core(g)
    core_edges = set(decomp.core.edge_ids)
    if not core_edges:
        return not reference_enumerate_cyclic_loops(g, 2, budget=budget)
    depth = reference_covering_loop_depth(g, core_edges)
    if depth == 0:
        return False
    union = {code >> 1 for codes in reference_enumerate_loop_codes(g, depth, budget)
             for code in codes}
    return union == core_edges
