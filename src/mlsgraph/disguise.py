"""Disguised-instance generation with recorded ground truth.

A disguise of a graph is an isometric graph with different combinatorics:
edges are subdivided, pendant trees are glued on, and all ids (and stored
edge orientations) are shuffled.  The edits go to one table of edge rows,
so the disguised graph is built once and relabelled once.  Because the
transformation is known, the induced isomorphism of fundamental groups, its
inverse, the branch-point correspondence and the basepoint-change word can
all be recorded exactly, giving test instances where the reconstruction
pipeline's output can be checked against the truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

from .fungroup import (Basis, Hom, Word, format_word, loop_class_word, loop_to_word, parse_word,
                       spanning_tree)
from .graphs import (RANDOM_TREE_LENGTH_BOUND, DirectedEdge, MetricGraph, _random_tree_rows,
                     parse_index, read_graph_comments, require_valid)
from .hull import compute_core
from .paths import EdgePath, PathError, _reversed_steps, map_chains


class DisguiseError(ValueError):
    pass


@dataclass(frozen=True)
class DisguisedInstance:
    source: MetricGraph
    graph: MetricGraph
    hom: Hom
    vertex_image: dict[int, int]
    edge_chains: dict[int, tuple[DirectedEdge, ...]]
    branch_map: dict[int, int]
    tau: Word

    def map_path(self, path: EdgePath) -> EdgePath:
        """Image of a source path under the isometric embedding."""
        return _map_path(self.graph, self.vertex_image, self.edge_chains, path)


def _map_path(g2: MetricGraph, vertex_image: dict[int, int],
              chains: dict[int, tuple[DirectedEdge, ...]], path: EdgePath) -> EdgePath:
    steps: list[DirectedEdge] = []
    for s in path.steps:
        steps.extend(_reversed_steps(chains[s.edge]) if s.rev else chains[s.edge])
    return EdgePath(g2, vertex_image[path.start], tuple(steps))


def disguise(g: MetricGraph, seed: int) -> DisguisedInstance:
    """Produce an isometric disguise of `g` with its ground truth.

    Rejects contractible input (empty core), since the reconstruction
    hypotheses require a non-trivial fundamental group.
    """
    require_valid(g)
    core1 = compute_core(g)
    if core1.is_empty:
        raise DisguiseError("core is empty")
    rng = random.Random(seed)

    # Every cut and pendant tree edits one row table; fresh ids run on from
    # the greatest so far, and the graph is built once at the end.
    rows = {eid: (rec.u, rec.v, rec.length) for eid, rec in g.edges_sorted()}
    verts = set(g.vertex_ids)
    fresh_v, fresh_e = count(max(verts) + 1), count(max(rows) + 1)
    chains = {e: (DirectedEdge(e, False),) for e in g.edge_ids}
    for eid in sorted(g.edge_ids):
        if rng.random() < 0.6:
            cuts = rng.sample(range(1, 8), rng.randint(1, 2))
            breaks = [0, *sorted(Fraction(n, 8) for n in cuts), 1]
            u, v, length = rows.pop(eid)
            ends = [u, *islice(fresh_v, len(cuts)), v]
            chains[eid] = tuple(DirectedEdge(next(fresh_e), False) for _ in ends[1:])
            for i, step in enumerate(chains[eid]):
                rows[step.edge] = (ends[i], ends[i + 1], length * (breaks[i + 1] - breaks[i]))
            verts.update(ends)
    for _ in range(rng.randint(1, 2)):
        at = rng.choice(sorted(verts))
        tree = _random_tree_rows(rng, rng.randint(2, 4), RANDOM_TREE_LENGTH_BOUND)
        ids = [at, *islice(fresh_v, len(tree))]  # tree vertex w becomes ids[w]
        rows.update((next(fresh_e), (ids[p], ids[c], length)) for _, p, c, length in tree)
        verts.update(ids)
    work = MetricGraph(verts, ((eid, *row) for eid, row in rows.items()))

    old_v, old_e = sorted(verts), sorted(rows)
    new_v, new_e = list(range(len(old_v))), list(range(len(old_e)))
    rng.shuffle(new_v)
    rng.shuffle(new_e)
    vertex_map, edge_map = dict(zip(old_v, new_v)), dict(zip(old_e, new_e))
    flips = {e for e in old_e if rng.random() < 0.5}
    g2 = work.relabeled(vertex_map, edge_map, flips, name=f"{g.name}-d{seed}")

    chains = {
        src: tuple(DirectedEdge(edge_map[s.edge], s.rev ^ (s.edge in flips)) for s in chain)
        for src, chain in chains.items()}
    vertex_image = {v: vertex_map[v] for v in g.vertex_ids}

    basis1 = spanning_tree(g)
    basis2 = spanning_tree(g2)

    images = []
    for k in range(1, basis1.rank + 1):
        image_loop = _map_path(g2, vertex_image, chains,
                               basis1.generator_loop(k, basis1.basepoint))
        images.append(loop_class_word(basis2, image_loop))

    inverse_images = _inverse_images(g, basis1, basis2, vertex_image, chains)
    hom = Hom(basis1, basis2, tuple(images), tuple(inverse_images))
    if not hom.is_certified_isomorphism():
        raise DisguiseError("internal error: recorded hom failed certification")

    branch_map = {x: vertex_image[x] for x in sorted(core1.branch_points)}
    # Without branch points the core is a circle and the certified hom sends
    # g1 to g1 or g1^-1 as it is, so nothing conjugates it.
    tau: Word = ()
    if branch_map:
        x0 = min(branch_map)
        s1 = basis1.tree_path(x0, basis1.basepoint)
        s2 = basis2.tree_path(basis2.basepoint, vertex_image[x0])
        connector = basis2.tree_path(basis2.basepoint, vertex_image[basis1.basepoint])
        # `loop_to_word` reduces the letters freely, so the loop is read unreduced.
        tau = loop_to_word(basis2, s2.then(_map_path(g2, vertex_image, chains, s1))
                           .then(connector.reverse()))
    return DisguisedInstance(g, g2, hom, vertex_image, chains, branch_map, tau)


def _inverse_images(g1: MetricGraph, basis1: Basis, basis2: Basis, vertex_image: dict[int, int],
                    chains: dict[int, tuple[DirectedEdge, ...]]) -> list[Word]:
    """Source words of the target generators: each generator's loop at the
    image of the source basepoint, pulled back chain by chain."""
    where = {s.edge: (src, pos) for src, chain in chains.items() for pos, s in enumerate(chain)}
    sources = {src: (DirectedEdge(src, False),) for src in chains}
    at = vertex_image[basis1.basepoint]
    out = []
    for j in range(1, basis2.rank + 1):
        try:
            steps = map_chains(basis2.generator_loop(j, at).steps, chains, where, sources)
        except PathError as exc:
            raise DisguiseError(f"internal error: {exc}") from None
        out.append(loop_to_word(basis1, EdgePath(g1, basis1.basepoint, steps)))
    return out


# -- ground-truth sidecar ----------------------------------------------

def truth_comments(inst: DisguisedInstance) -> list[str]:
    """Comment lines recording the ground truth, for the emitted graph file."""
    lines = [f"truth branch {x} {y}" for x, y in sorted(inst.branch_map.items())]
    lines.append(f"truth tau {format_word(inst.tau)}")
    return lines


def read_truth(text: str) -> tuple[dict[int, int], Word]:
    """Parse the `# truth ...` sidecar block of an emitted graph file: lines
    `branch <x> <y>`, ids read as `read_graph` reads them, and `tau <word>`,
    `-` for the empty word.  Raises DisguiseError on any other or repeated line."""
    branch_map = {}
    tau: Word | None = None
    for fields in read_graph_comments(text, "truth"):
        kind, args = fields[0] if fields else "", fields[1:]
        line = " ".join(["# truth", *fields])
        try:
            if kind == "branch" and len(args) == 2:
                x = parse_index(args[0])
                repeated, branch_map[x] = x in branch_map, parse_index(args[1])
            elif kind == "tau" and args:
                repeated, tau = tau is not None, () if args == ["-"] else parse_word(" ".join(args))
            else:
                raise ValueError
        except ValueError:
            raise DisguiseError(f"malformed truth line: {line!r}") from None
        if repeated:
            raise DisguiseError(f"repeated truth line: {line!r}")
    return branch_map, tau or ()
