"""Frozen reference for `hull._segments`.

This is the segment tracer as it was when every arc was traced from both of
its ends and each trace built an `EdgePath` and its reverse to pick the
canonical orientation.  The differential tests compare the library against
it.  Do not update it to follow the library.
"""

from mlsgraph.hull import Segment
from mlsgraph.paths import EdgePath


def reference_canonical_arc(path):
    reverse = path.reverse()
    return path if path.steps <= reverse.steps else reverse


def reference_segments(core, branch):
    if not core.edge_ids:
        return ()
    found = {}
    if not branch:
        base = min(core.vertex_ids)
        step = core.out_steps(base)[0]
        steps = [step]
        at = core.step_head(step)
        while at != base:
            steps.append(core.next_steps(steps[-1])[0])
            at = core.step_head(steps[-1])
        return (Segment(reference_canonical_arc(EdgePath(core, base, tuple(steps)))),)
    for v in sorted(branch):
        for first in core.out_steps(v):
            steps = [first]
            at = core.step_head(first)
            while at not in branch:
                steps.append(core.next_steps(steps[-1])[0])
                at = core.step_head(steps[-1])
            arc = reference_canonical_arc(EdgePath(core, v, tuple(steps)))
            found.setdefault(frozenset(arc.steps), arc)
    segs = sorted(found.values(), key=lambda p: p.steps)
    return tuple(Segment(p) for p in segs)
