"""Frozen reference for the core decomposition and the retraction check.

This is `hull` as it was when the core's complement and the retraction
check each ran their own union-find, the leaf peeling kept its own copy of
the adjacency, and the circle case had its own tracer.  The differential
tests compare the library against it.  Do not update it to follow the
library.
"""

from mlsgraph.graphs import GraphError, vertex_degree
from mlsgraph.hull import Segment
from mlsgraph.paths import EdgePath


def reference_decompose(g):
    if not g.is_connected():
        raise GraphError("disconnected")
    alive_v = set(g.vertex_ids)
    alive_e = set(g.edge_ids)
    degree = {v: vertex_degree(g, v) for v in alive_v}
    incident = {v: set() for v in alive_v}
    for eid in alive_e:
        rec = g.edge(eid)
        incident[rec.u].add(eid)
        incident[rec.v].add(eid)
    leaves = [v for v in alive_v if degree[v] == 1]
    while leaves:
        v = leaves.pop()
        if v not in alive_v or degree[v] != 1:
            continue
        (eid,) = (e for e in incident[v] if e in alive_e)
        rec = g.edge(eid)
        other = rec.v if rec.u == v else rec.u
        alive_v.discard(v)
        alive_e.discard(eid)
        degree[other] -= 1
        degree[v] = 0
        if degree[other] == 1:
            leaves.append(other)
    if len(alive_v) == 1 and not alive_e:
        alive_v = set()

    core = g.subgraph(alive_e, extra_vertices=alive_v)
    complement = reference_complement_components(g, alive_v, alive_e) if alive_v else ()
    branch = frozenset(v for v in alive_v if degree[v] >= 3)
    return core, complement, branch, reference_segments(core, branch)


def _find(parent, x):
    while parent.get(x, x) != x:
        parent[x] = parent.get(parent[x], parent[x])
        x = parent[x]
    return x


def reference_complement_components(g, core_v, core_e):
    dead_e = sorted(g.edge_ids - core_e)
    parent = {}
    for eid in dead_e:
        rec = g.edge(eid)
        parent.setdefault(rec.u, rec.u)
        parent.setdefault(rec.v, rec.v)
        parent[_find(parent, rec.u)] = _find(parent, rec.v)
    groups = {}
    for eid in dead_e:
        groups.setdefault(_find(parent, g.edge(eid).u), []).append(eid)
    out = []
    for eids in groups.values():
        tree = g.subgraph(eids)
        attach = sorted(tree.vertex_ids & core_v)
        if len(attach) != 1:
            raise GraphError("complement component does not attach at a single point")
        out.append((tree, attach[0]))
    out.sort(key=lambda pair: (pair[1], min(pair[0].edge_ids)))
    return tuple(out)


def _canonical_arc(core, start, steps):
    forward = tuple(steps)
    backward = tuple(s.reverse() for s in reversed(forward))
    if forward <= backward:
        return EdgePath(core, start, forward)
    return EdgePath(core, core.step_head(forward[-1]), backward)


def reference_segments(core, branch):
    if not core.edge_ids:
        return ()
    if not branch:
        base = min(core.vertex_ids)
        step = core.out_steps(base)[0]
        steps = [step]
        at = core.step_head(step)
        while at != base:
            steps.append(core.next_steps(steps[-1])[0])
            at = core.step_head(steps[-1])
        return (Segment(_canonical_arc(core, base, steps)),)
    arcs = []
    traced = set()
    for v in sorted(branch):
        for first in core.out_steps(v):
            if first.edge in traced:
                continue
            steps = [first]
            at = core.step_head(first)
            while at not in branch:
                steps.append(core.next_steps(steps[-1])[0])
                at = core.step_head(steps[-1])
            traced.add(steps[-1].edge)
            arcs.append(_canonical_arc(core, v, steps))
    arcs.sort(key=lambda p: p.steps)
    return tuple(Segment(p) for p in arcs)


def reference_retracts_onto(g, sub_v, sub_e):
    extra_e = sorted(g.edge_ids - sub_e)
    parent = {}
    for eid in extra_e:
        rec = g.edge(eid)
        for w in (rec.u, rec.v):
            parent.setdefault(w, w)
        if rec.u in sub_v and rec.v in sub_v:
            return False
        if rec.u not in sub_v and rec.v not in sub_v:
            parent[_find(parent, rec.u)] = _find(parent, rec.v)
    for v in g.vertex_ids - sub_v:
        if v not in parent:
            return False
    components = {}
    for eid in extra_e:
        rec = g.edge(eid)
        anchor = rec.u if rec.u not in sub_v else rec.v
        if anchor in sub_v:
            return False
        comp = components.setdefault(_find(parent, anchor),
                                     {"edges": 0, "verts": set(), "attach": set()})
        comp["edges"] += 1
        for w in (rec.u, rec.v):
            if w in sub_v:
                comp["attach"].add(w)
            else:
                comp["verts"].add(w)
    for comp in components.values():
        if len(comp["attach"]) != 1:
            return False
        if comp["edges"] != len(comp["verts"]) + len(comp["attach"]) - 1:
            return False
    return True
