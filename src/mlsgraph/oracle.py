"""Brute-force oracles.

Deliberately naive, exponential-time ground truth for the properties the
main pipeline certifies.  Every oracle is budget-guarded and raises instead
of silently truncating; budgets default to the MLS_BUDGET environment
variable (enumeration steps, default 10^7).
"""

from __future__ import annotations

import os
from itertools import permutations

from .fungroup import Basis, Hom, Word, apply_hom, enumerate_reduced_words, marked_length
from .graphs import GraphError, MetricGraph, _decode, parse_index
from .hull import compute_core
from .paths import CyclicPath, least_rotation


class BudgetExceededError(RuntimeError):
    """An oracle hit its enumeration budget before finishing, or MLS_BUDGET is malformed."""


def default_budget() -> int:
    value = os.environ.get("MLS_BUDGET") or "10000000"
    try:
        return parse_index(value)
    except ValueError:
        raise BudgetExceededError(
            f"MLS_BUDGET must be a count in ASCII digits, not {value!r}") from None


def enumerate_cyclic_loops(g: MetricGraph, max_edges: int,
                           budget: int | None = None) -> list[CyclicPath]:
    """All cyclically reduced cyclic loops with at most `max_edges` edges.

    Oriented classes, one canonical rotation each, by edge count and then
    steps (codes sort as steps do): the closed walks of
    `_enumerate_loop_codes`, each put in its least rotation, without repeats.
    """
    found = {least_rotation(walk) for walk in _enumerate_loop_codes(g, max_edges, budget)}
    return [CyclicPath(g, tuple(map(_decode, codes)))
            for codes in sorted(found, key=lambda c: (len(c), c))]


def _enumerate_loop_codes(g: MetricGraph, max_edges: int,
                          budget: int | None = None) -> list[tuple[int, ...]]:
    """The cyclically reduced closed walks of at most `max_edges` steps that
    start at their least step, as code tuples in the order they are found:
    not in canonical form, and a loop whose least step occurs more than once
    appears once per rotation that starts there.  One budget step per walk
    visited.  Depth-first over a stack of successor iterators, so no depth
    hits the recursion limit.  No walk has fewer than one step, so a
    `max_edges` of 0 or less gives none and uses no budget."""
    if max_edges <= 0:
        return []
    limit = default_budget() if budget is None else budget
    used = 0
    codes, head, tail, succ = g._step_table
    found: list[tuple[int, ...]] = []
    for first in codes:
        base = tail[first]
        walk: list[int] = []
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
                found.append(tuple(walk))
            if len(walk) == max_edges:
                walk.pop()
            else:
                pending.append(iter(succ[step]))
    return found


def covering_loop_depth(g: MetricGraph, edge_ids) -> int:
    """Max over the given edges of the shortest cyclically reduced loop
    through the edge (edge count), via breadth-first search in the
    non-backtracking transition digraph.  This is the enumeration depth at
    which the loop union stabilizes on those edges.

    One search per given edge, from its forward step: reversing a loop
    through e and rotating it gives a loop of the same length that starts
    with e^-1, so the reverse step's search finds nothing shorter.  For the
    same reason an edge that an earlier search's loop crosses, either way,
    needs no search: its own shortest loop is no longer than that one, which
    is already in the maximum."""
    codes, head, tail, succ = g._step_table
    wanted = set(edge_ids)
    depth = 0
    for start in codes:
        if start & 1 or start >> 1 not in wanted:
            continue
        # shortest closed non-backtracking walk starting with `start`; the
        # wraparound condition is the transition constraint back into it.
        target = tail[start]
        parent = {start: None}
        frontier = [start]
        last = None
        while frontier and last is None:
            nxt = []
            for c in frontier:
                if head[c] == target and start in succ[c]:
                    last = c
                    break
                for s in succ[c]:
                    if s not in parent:
                        parent[s] = c
                        nxt.append(s)
            frontier = nxt
        walk = 0
        while last is not None:
            wanted.discard(last >> 1)
            walk += 1
            last = parent[last]
        depth = max(depth, walk)
    return depth


def brute_force_isometry(g1: MetricGraph, g2: MetricGraph):
    """Exhaustive search for an isometry between two cores.

    Returns `(vertex_map, segment_pairs)` mapping branch vertices and segment
    indices, or None if the cores are not isometric.  Inputs must already be
    their own cores; the segment-collapsed view is limited to 10 branch
    vertices.
    """
    d1, d2 = compute_core(g1), compute_core(g2)
    for g, d in ((g1, d1), (g2, d2)):
        if set(d.core.edge_ids) != set(g.edge_ids):
            raise GraphError("brute_force_isometry expects core graphs (min degree 2)")
    if len(d1.branch_points) > 10 or len(d2.branch_points) > 10:
        raise BudgetExceededError("size guard: more than 10 branch vertices")

    if not d1.branch_points and not d2.branch_points:
        if g1.total_length() == g2.total_length():
            return {}, [(0, 0)]
        return None
    if bool(d1.branch_points) != bool(d2.branch_points):
        return None
    b1, b2 = sorted(d1.branch_points), sorted(d2.branch_points)
    if len(b1) != len(b2) or len(d1.segments) != len(d2.segments):
        return None

    def signature(decomp, v):
        sig = []
        for s in decomp.segments:
            if s.x == v:
                sig.append((s.length, s.is_loop))
            if s.y == v and not s.is_loop:
                sig.append((s.length, False))
        return tuple(sorted(sig))

    sig1 = {v: signature(d1, v) for v in b1}
    sig2 = {v: signature(d2, v) for v in b2}

    def segment_key(seg, vmap=None):
        x, y = seg.x, seg.y
        if vmap is not None:
            x, y = vmap[x], vmap[y]
        return (min(x, y), max(x, y), seg.length)

    target_groups: dict[tuple, list[int]] = {}
    for j, seg in enumerate(d2.segments):
        target_groups.setdefault(segment_key(seg), []).append(j)

    for image in permutations(b2):
        vmap = dict(zip(b1, image))
        if any(sig1[v] != sig2[vmap[v]] for v in b1):
            continue
        source_groups: dict[tuple, list[int]] = {}
        for i, seg in enumerate(d1.segments):
            source_groups.setdefault(segment_key(seg, vmap), []).append(i)
        if {k: len(v) for k, v in source_groups.items()} != \
           {k: len(v) for k, v in target_groups.items()}:
            continue
        pairs = []
        for key, src in sorted(source_groups.items()):
            pairs.extend(zip(src, target_groups[key]))
        return vmap, sorted(pairs)
    return None


def spectra_agree_up_to(basis1: Basis, basis2: Basis, hom: Hom,
                        max_len: int) -> Word | None:
    """Exhaustively compare the two spectra through the hom.

    Checks l2(hom(w)) == l1(w) over all freely reduced words of length at
    most `max_len`; returns the first counterexample in enumeration order,
    or None.  Guarded to max_len <= 8 and rank <= 4.
    """
    if max_len > 8 or basis1.rank > 4:
        raise BudgetExceededError("spectra_agree_up_to guard: max_len <= 8, rank <= 4")
    for w in enumerate_reduced_words(basis1.rank, max_len):
        if marked_length(basis1, w) != marked_length(basis2, apply_hom(hom, w)):
            return w
    return None
