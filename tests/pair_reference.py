"""Frozen reference for the distinguishing-pair construction.

`reference_pair_candidates` and `reference_distinguishing_pair` are
`rigidity._pair_candidates` and `distinguishing_pair` as they were when each
candidate was built as a loop on the core, built again on the full graph and
kept only if `reference_is_cyclically_reduced_loop` accepted both loops and
their cross loop met the recovery identity.  `reference_loop_class_word` is
`fungroup.loop_class_word` as it was when it conjugated the loop to the
basepoint along the spanning tree before reading its word.  The differential
tests compare the library against them.  Do not update them to follow the
library.
"""

from collections import deque
from itertools import count

from mlsgraph.fungroup import WordError, free_reduce
from mlsgraph.paths import EdgePath, cyclic_reduce_based, format_path, is_reduced
from mlsgraph.rigidity import DistinguishedPair, RigidityError


def reference_frames(core, firsts, lasts):
    for d in firsts:
        parent = {d: None}
        queue = deque([d])
        for a in lasts:
            while a not in parent and queue:
                state = queue.popleft()
                for nxt in core.next_steps(state):
                    if nxt not in parent:
                        parent[nxt] = state
                        queue.append(nxt)
            if a not in parent:
                continue
            route = [a]
            while parent[route[-1]] is not None:
                route.append(parent[route[-1]])
            yield d, a, tuple(reversed(route))


def reference_pair_candidates(core, p):
    """Yield (loop1, loop2, frame), both loops built on the core graph."""
    cg = core.core
    x, y = p.start, p.end
    first_p, last_p = p.steps[0], p.steps[-1]
    into_x = sorted(s.reverse() for s in cg.out_steps(x))

    if p.is_closed():
        square = EdgePath(cg, x, p.steps + p.steps)
        firsts = [d for d in cg.out_steps(x) if d not in (last_p.reverse(), first_p)]
        lasts = [a for a in into_x if a not in (first_p.reverse(), last_p)]
        for d, a, route in reference_frames(cg, firsts, lasts):
            yield square, EdgePath(cg, x, p.steps + route), ("loop", d, a)
        return

    outs_y = [d for d in cg.out_steps(y) if d != last_p.reverse()]
    ins_x = [a for a in into_x if a != first_p.reverse()]
    source, frames = reference_frames(cg, outs_y, ins_x), []

    def pulled():
        for k in count():
            if k == len(frames):
                frame = next(source, None)
                if frame is None:
                    return
                frames.append(frame)
            yield frames[k]

    for d1, a1, r1 in pulled():
        for d2, a2, r2 in pulled():
            if d1 == d2 or a1 == a2:
                continue
            loop1 = EdgePath(cg, x, p.steps + r1)
            loop2 = EdgePath(cg, x, p.steps + r2)
            yield loop1, loop2, ("arc", (d1, a1), (d2, a2))


def reference_is_cyclically_reduced_loop(loop):
    if not loop.is_closed() or not is_reduced(loop):
        return False
    return not loop.steps or loop.steps[-1] != loop.steps[0].reverse()


def reference_accepts(g, loop1, loop2, path_length):
    """The filter `reference_distinguishing_pair` applies to each candidate,
    with both loops rebuilt on the full graph `g`."""
    gamma1 = EdgePath(g, loop1.start, loop1.steps)
    gamma2 = EdgePath(g, loop2.start, loop2.steps)
    if not (reference_is_cyclically_reduced_loop(gamma1)
            and reference_is_cyclically_reduced_loop(gamma2)):
        return False
    core_loop, _ = cyclic_reduce_based(gamma1.reverse().then(gamma2))
    return core_loop.length == gamma1.length + gamma2.length - 2 * path_length


def reference_loop_to_word(basis, loop):
    if loop.start != basis.basepoint or not loop.is_closed():
        raise WordError("loop is not based at the basis basepoint")
    index = {eid: i for i, eid in enumerate(basis.generators, start=1)}
    letters = []
    for step in loop.steps:
        idx = index.get(step.edge)
        if idx is not None:
            letters.append(-idx if step.rev else idx)
    return free_reduce(letters)


def reference_loop_class_word(basis, loop):
    if not loop.is_closed():
        raise WordError("not a loop")
    t = basis.tree_path(basis.basepoint, loop.start)
    return reference_loop_to_word(basis, t.then(loop).then(t.reverse()))


def reference_distinguishing_pair(core, p, basis, variant=0):
    if not core.branch_points:
        raise RigidityError("circle-case", "core has no branch points")
    if p.is_empty():
        raise RigidityError("bad-path", "empty distinguished path")
    if not p.support() <= core.core.edge_ids:
        raise RigidityError("bad-path", "path leaves the core")
    if not is_reduced(p):
        raise RigidityError("bad-path", "path is not reduced")
    if p.is_closed():
        if p.start not in core.branch_points:
            raise RigidityError("bad-path", "loop segment is not based at a branch point")
        if p.steps[-1] == p.steps[0].reverse():
            raise RigidityError("bad-path", "loop segment is not cyclically reduced")
    elif p.start not in core.branch_points or p.end not in core.branch_points:
        raise RigidityError("bad-path", "path endpoints are not branch points")

    g = basis.graph
    seen = 0
    for loop1, loop2, frame in reference_pair_candidates(core, p):
        gamma1 = EdgePath(g, loop1.start, loop1.steps)
        gamma2 = EdgePath(g, loop2.start, loop2.steps)
        if not (reference_is_cyclically_reduced_loop(gamma1)
                and reference_is_cyclically_reduced_loop(gamma2)):
            continue
        cross = gamma1.reverse().then(gamma2)
        core_loop, _ = cyclic_reduce_based(cross)
        if core_loop.length != gamma1.length + gamma2.length - 2 * p.length:
            continue
        if seen < variant:
            seen += 1
            continue
        return DistinguishedPair(
            path=p, loop1=gamma1, loop2=gamma2,
            word1=reference_loop_class_word(basis, gamma1),
            word2=reference_loop_class_word(basis, gamma2),
            frame=frame,
        )
    raise RigidityError("no-distinguishing-pair",
                        f"no verified pair for path {format_path(p)} (variant {variant})")
