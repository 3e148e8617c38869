"""Paths built without the chain walk would pass it.

`EdgePath._chained` skips `__post_init__`'s walk for steps already known to
chain.  Every path built that way, by every caller, on random graphs, their
disguises (pendant trees and subdivided edges included) and c08-style
negatives, must equal the checked construction `EdgePath(g, p.start,
p.steps)`, which raises on steps that do not chain from `p.start`.
"""

import random
import sys

import pytest
from helpers import c08_negative
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsgraph import compute_core, disguise, random_graph, spanning_tree
from mlsgraph.fungroup import word_to_loop
from mlsgraph.paths import EdgePath, cyclic_reduce_based, shortest_path
from mlsgraph.rigidity import reconstruct

# Where `_chained` is called from, as each caller's qualified name.
CALLERS = {
    "EdgePath.reverse", "cyclic_reduce_based", "shortest_path", "Basis.tree_path",
    "Basis.generator_loop", "word_to_loop", "_canonical_arc",
    "distinguishing_pair.<locals>.<genexpr>", "transport_path",
}


def _record(mp):
    """Patch `_chained` to keep each path it builds, with the qualified name
    of its caller; returns the list it fills."""
    built = []
    real = EdgePath._chained.__func__

    def recording(cls, graph, start, steps):
        p = real(cls, graph, start, steps)
        built.append((sys._getframe(1).f_code.co_qualname, p))
        return p

    mp.setattr(EdgePath, "_chained", classmethod(recording))
    return built


def _exercise(g, rng):
    """Every `_chained` caller that the pipeline does not reach on its own."""
    basis = spanning_tree(g)
    verts = sorted(g.vertex_ids)
    for u in verts:
        for v in verts:
            shortest_path(g, u, v).reverse()
            basis.tree_path(u, v)
        for k in range(1, basis.rank + 1):
            for at in (u, basis.basepoint):
                cyclic_reduce_based(basis.generator_loop(rng.choice((k, -k)), at))
    for _ in range(3 * basis.rank):
        # Unreduced words too: a block may cancel whole against the last.
        w = tuple(rng.choice((k, -k)) for k in rng.choices(range(1, basis.rank + 1), k=4))
        cyclic_reduce_based(word_to_loop(basis, w))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), vertices=st.integers(1, 7),
       extra=st.integers(1, 5))
def test_every_chained_path_passes_the_walk(seed, vertices, extra):
    with pytest.MonkeyPatch.context() as mp:
        built = _record(mp)
        g = random_graph(seed, vertices, extra, 5)
        inst = disguise(g, seed + 1)
        rng = random.Random(seed)
        for graph in (g, inst.graph):
            _exercise(graph, rng)
        if not compute_core(g).is_empty:
            reconstruct(g, inst.graph, inst.hom)
            reconstruct(g, *c08_negative(g, inst, seed))
    for _, p in built:
        assert p == EdgePath(p.graph, p.start, p.steps)
    assert {caller for caller, _ in built} <= CALLERS


def test_every_caller_is_reached(monkeypatch):
    built = _record(monkeypatch)
    g = random_graph(3, 6, 5, 5)
    inst = disguise(g, 4)
    _exercise(inst.graph, random.Random(3))
    assert reconstruct(g, inst.graph, inst.hom).report().endswith("verdict ACCEPT\n")
    assert {caller for caller, _ in built} == CALLERS
