"""Frozen reference for `paths.shortest_path`.

`reference_shortest_path` is the per-pair search that `shortest_path` ran
before one search per source, cached on the graph, served every target: a
Dijkstra over `(length, steps)` keys that stops when it settles `v`.  The
differential tests compare the library against it.  Do not update it to
follow the library.
"""

import heapq

from mlsgraph.graphs import GraphError
from mlsgraph.paths import EdgePath


def reference_shortest_path(g, u, v):
    if not g.has_vertex(u):
        raise GraphError(f"unknown vertex id {u}")
    if not g.has_vertex(v):
        raise GraphError(f"unknown vertex id {v}")
    best = {u: (0, ())}
    heap = [(0, (), u)]
    settled = set()
    while heap:
        dist, steps, x = heapq.heappop(heap)
        if x in settled:
            continue
        settled.add(x)
        if x == v:
            return EdgePath(g, u, steps)
        for step in g.out_steps(x):
            w = g.step_head(step)
            if w in settled:
                continue
            cand = (dist + g.scaled_length(step.edge), steps + (step,))
            if w not in best or cand < best[w]:
                best[w] = cand
                heapq.heappush(heap, (cand[0], cand[1], w))
    raise GraphError(f"vertex {v} is unreachable from {u}")
