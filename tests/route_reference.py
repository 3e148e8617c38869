"""Frozen reference for the distinguishing-pair route search.

`reference_route` is the uniform-cost search that `rigidity._pair_candidates`
ran once per (first step, last step) frame before it read every route off
one breadth-first tree per first step.  The differential tests compare the
tree's routes against it.  Do not update it to follow the library.
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
