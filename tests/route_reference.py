"""Frozen reference for the distinguishing-pair route search.

`reference_route` is the uniform-cost search that `rigidity._pair_candidates`
ran once per (first step, last step) frame before it read every route off
one breadth-first tree per first step.  `reference_frames` is the eager
frame list built from it, and `reference_arc_pairs` the order in which an
arc paired those frames.  The differential tests compare the library's
routes, frames and pairs against them.  Do not update them to follow the
library.
"""

import heapq


def reference_route(core, first, last):
    """Deterministic reduced path whose first and last steps are prescribed.

    Uniform-cost search over directed-edge states with lexicographic
    tie-breaking; returns None when `last` is unreachable from `first`.
    """
    best = {first: (1, (first,))}
    heap = [(1, (first,), first)]
    settled = set()
    while heap:
        n, steps, state = heapq.heappop(heap)
        if state in settled:
            continue
        settled.add(state)
        if state == last:
            return steps
        for nxt in core.out_steps(core.step_head(state)):
            if nxt == state.reverse() or nxt in settled:
                continue
            cand = (n + 1, steps + (nxt,))
            if nxt not in best or cand < best[nxt]:
                best[nxt] = cand
                heapq.heappush(heap, (cand[0], cand[1], nxt))
    return None


def reference_frames(core, firsts, lasts):
    """Every (d, a, route) in (d, a) order, leaving out pairs with no route."""
    frames = []
    for d in firsts:
        for a in lasts:
            route = reference_route(core, d, a)
            if route is not None:
                frames.append((d, a, route))
    return frames


def reference_arc_pairs(frames):
    """The frame pairs an arc tries, in (i, j) order: distinct d and distinct a."""
    return [(f1, f2) for f1 in frames for f2 in frames
            if f1[0] != f2[0] and f1[1] != f2[1]]
