"""The four workloads: how each corpus is built from a seed, what one verdict
is, and which check it must pass.

A verdict starts from plain data (vertex ids, edge rows, generator image
words, or file names), so no library object survives from one verdict to the
next: any per-graph table the library builds is paid for inside the verdict
that uses it.  `lib` is the freshly imported package (see `run.fresh_import`);
nothing here imports mlsgraph itself, so set-up can be timed from the import
on.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from checks import (check_accept, check_core, check_negative, check_reject, core_shape,
                    two_core)

LENGTH_BOUND = 10
DELTA = Fraction(1, 7)  # what c08 adds to one core edge of a negative


@dataclass(frozen=True)
class Pair:
    """A graph, its disguise as plain data, and the disguise's ground truth."""

    spec1: tuple
    spec2: tuple
    images: tuple
    inverse_images: tuple
    inst: object  # the DisguisedInstance, read only by the checks
    segments: int  # source core segments, counted by `checks.core_shape`


@dataclass(frozen=True)
class Negative:
    """A c08-style negative written to files for `mlsgraph reconstruct`."""

    argv: tuple
    spec_source: tuple
    spec_perturbed: tuple
    segments: int


def spec_of(g) -> tuple:
    return (tuple(sorted(g.vertex_ids)),
            tuple((eid, rec.u, rec.v, rec.length) for eid, rec in g.edges_sorted()))


def disguise_pairs(lib, seed: int, count: int, vertices: int, extra: int,
                   branch_points: tuple[int, ...] = ()) -> list[Pair]:
    """`count` pairs of `random_graph(., vertices, extra)` (rank `extra`) and a
    disguise of it.  With `branch_points`, pair k is drawn until its core has
    `branch_points[k % len]` branch points, so every corpus has the same mix
    of core shapes."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = lib.graphs.random_graph(rng.randrange(2**31), vertices, extra, LENGTH_BOUND)
        spec1 = spec_of(g)
        branch, segments = core_shape(spec1[1], two_core(*spec1))
        if branch_points and branch != branch_points[len(out) % len(branch_points)]:
            continue
        inst = lib.disguise.disguise(g, rng.randrange(2**31))
        out.append(Pair(spec1, spec_of(inst.graph), inst.hom.images,
                        inst.hom.inverse_images, inst, segments))
    return out


def reconstruct_pair(lib, item: Pair, sweep_len: int):
    g1 = lib.graphs.MetricGraph(*item.spec1)
    g2 = lib.graphs.MetricGraph(*item.spec2)
    tree = lib.fungroup.spanning_tree
    hom = lib.fungroup.Hom(tree(g1), tree(g2), item.images, item.inverse_images)
    return lib.rigidity.reconstruct(g1, g2, hom, sweep_len=sweep_len)


def negatives(lib, seed: int, count: int, workdir: str) -> list[Negative]:
    """c08's construction at rank 12: disguise a random graph, lengthen core
    edge `k mod (core edges)` of negative k by 1/7, write the three files."""
    rng = random.Random(seed)
    graphs, fungroup = lib.graphs, lib.fungroup
    out = []
    for k in range(count):
        g = graphs.random_graph(rng.randrange(2**31), 10, 12, LENGTH_BOUND)
        inst = lib.disguise.disguise(g, rng.randrange(2**31))
        vertices, rows = spec_of(inst.graph)
        core_edges = sorted(two_core(vertices, rows))
        bumped = core_edges[k % len(core_edges)]
        rows = tuple((eid, u, v, length + DELTA if eid == bumped else length)
                     for eid, u, v, length in rows)
        perturbed = graphs.MetricGraph(vertices, rows, name="perturbed")
        argv = ["reconstruct"]
        for suffix, text in (("g1", graphs.write_graph(g)), ("g2", graphs.write_graph(perturbed)),
                             ("hom", fungroup.write_hom(inst.hom))):
            path = os.path.join(workdir, f"neg{k:03d}.{suffix}")
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            argv.append(path)
        spec1 = spec_of(g)
        out.append(Negative(tuple(argv), spec1, (vertices, rows),
                            core_shape(spec1[1], two_core(*spec1))[1]))
    return out


def cli_reconstruct(lib, item: Negative) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lib.cli.main(list(item.argv))
    return code, out.getvalue()


def small_multigraphs(max_vertices: int, max_edges: int):
    """c04's exhaustive family: every connected multigraph on a labelled
    vertex set of at most `max_vertices` vertices with at most `max_edges`
    edges, lengths cycling through 1, 2, 3, in c04's order."""
    for n in range(1, max_vertices + 1):
        slots = [(i, j) for i in range(n) for j in range(i, n)]
        for m in range(n - 1, max_edges + 1):
            for combo in combinations_with_replacement(slots, m):
                if _connected(n, combo):
                    yield (tuple(range(n)),
                           tuple((k, a, b, 1 + k % 3) for k, (a, b) in enumerate(combo)))


def _connected(n: int, edges) -> bool:
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    parts = n
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            root[ra] = rb
            parts -= 1
    return parts == 1


def oracle_corpus(lib, seed: int) -> list[tuple]:
    """c04's family up to 5 edges, then c04's 200 random graphs from seed
    1000 * `seed` on.  The family stops at 5 edges so that a run does some 30
    rounds, enough for each graph's fastest round to be a steady figure."""
    family = list(small_multigraphs(4, 5))
    s0 = 1000 * seed
    randoms = [spec_of(lib.graphs.random_graph(s, 2 + s % 6, 1 + s % 3, 6))
               for s in range(s0, s0 + 200)]
    return family + randoms


def core_and_oracle(lib, spec):
    g = lib.graphs.MetricGraph(*spec)
    return lib.hull.compute_core(g), lib.hull.core_loop_union_agrees(g)


@dataclass(frozen=True)
class Workload:
    """`build(lib, seed, workdir)` gives the corpus and the warm-up item;
    `verdict(lib, item)` is what is timed; `check(item, result)` runs after.
    `round_s` is the nominal wall time of one round, checks and re-import
    included; a run does `--seconds // round_s` rounds, whatever the speed of
    the code it measures."""

    build: object
    verdict: object
    check: object
    round_s: float


def _pairs(vertices, extra, count, branch_points=()):
    def build(lib, seed, _workdir):
        items = disguise_pairs(lib, seed, count, vertices, extra, branch_points)
        warm = disguise_pairs(lib, seed + 1, 1, 3, 2)[0]
        return items, warm
    return build


def _build_negatives(lib, seed, workdir):
    items = negatives(lib, seed, 48, workdir)
    return items, items[0]


def _build_oracle(lib, seed, _workdir):
    items = oracle_corpus(lib, seed)
    return items, items[0]


def _check_negative(item: Negative, result) -> str | None:
    return check_reject(*result) or \
        check_negative(item.spec_source, item.spec_perturbed, DELTA)


WORKLOADS = {
    # Rank-16 pairs, 11 or 12 branch points (26 or 27 segments), no sweep: the
    # rigidity pipeline (distinguishing pairs, route search, transport, the
    # all-pairs branch map) is nearly all of each verdict.
    "certify-large": Workload(_pairs(14, 16, 8, branch_points=(11, 12)),
                              lambda lib, item: reconstruct_pair(lib, item, 0),
                              check_accept, 8.0),
    # Rank-4 pairs with the default sweep_len=4: the spectrum sweep
    # (marked_length -> word_to_loop / cyclically_reduce) is nearly all of it.
    "sweep-default": Workload(_pairs(2, 4, 20),
                              lambda lib, item: reconstruct_pair(lib, item, 4),
                              check_accept, 8.0),
    # The fail-fast path through the CLI: parsing, bases, validation and the
    # core outweigh the few sweep words before the mismatch.
    "reject-cli": Workload(_build_negatives, cli_reconstruct, _check_negative, 0.45),
    # The only workload that runs the oracle; rigidity and fungroup do no work.
    "core-oracle": Workload(_build_oracle, core_and_oracle,
                            lambda spec, result: check_core(spec, *result), 0.8),
}
