"""Frozen reference for the directed-edge step primitives.

These are `paths.is_reduced`, `paths.reduce_steps`,
`paths.cyclic_reduce_based` and `fungroup.word_to_loop` as they were when
every cancellation test built `step.reverse()`, and `step_tail`, `step_head`,
the `EdgePath` chain check and `EdgePath.length` as they were when each
step went through `MetricGraph.edge` and `scaled_length`.  The differential
tests compare the library against them.  Do not update them to follow the
library.
"""

from fractions import Fraction

from mlsgraph.fungroup import WordError
from mlsgraph.paths import EdgePath, PathError


def reference_is_reduced(p):
    return all(nxt != step.reverse() for step, nxt in zip(p.steps, p.steps[1:]))


def reference_reduce_steps(steps):
    stack = []
    for step in steps:
        if stack and stack[-1] == step.reverse():
            stack.pop()
        else:
            stack.append(step)
    return stack


def reference_cyclic_reduce_based(loop):
    if not loop.is_closed():
        raise PathError("not a loop: endpoints differ")
    steps = reference_reduce_steps(loop.steps)
    peeled = []
    while len(steps) >= 2 and steps[-1] == steps[0].reverse():
        peeled.append(steps[0])
        steps = steps[1:-1]
    conjugator = EdgePath(loop.graph, loop.start, tuple(peeled))
    core = EdgePath(loop.graph, conjugator.end, tuple(steps))
    return core, conjugator


def reference_word_to_loop(basis, w):
    steps = []
    for letter in w:
        if letter == 0 or abs(letter) > basis.rank:
            raise WordError(f"generator index {letter} out of range")
        for step in basis._gen_block(letter):
            if steps and steps[-1] == step.reverse():
                steps.pop()
            else:
                steps.append(step)
    return EdgePath(basis.graph, basis.basepoint, tuple(steps))


def reference_step_tail(g, step):
    rec = g.edge(step.edge)
    return rec.v if step.rev else rec.u


def reference_step_head(g, step):
    rec = g.edge(step.edge)
    return rec.u if step.rev else rec.v


def reference_chain_end(g, start, steps):
    """The vertex the `EdgePath` chain check ends at, raising as it did."""
    if not g.has_vertex(start):
        raise PathError(f"unknown start vertex {start}")
    at = start
    for step in steps:
        if reference_step_tail(g, step) != at:
            raise PathError(f"steps do not chain at vertex {at} ({step})")
        at = reference_step_head(g, step)
    return at


def reference_length(g, steps):
    return Fraction(sum(g.scaled_length(s.edge) for s in steps), g.length_scale)
