"""Frozen reference for `disguise.disguise`.

This is `disguise` as it was when it edited its graph one step at a time:
each cut through `subdivide_edge`, whose fresh edge ids
`reference_subdivision_chain` predicted beforehand, each pendant tree
through `random_tree` and `attach_tree`, then one `relabeled`, and `tau`
read off a reduced loop.  The differential tests compare the library
against it.  Do not update it to follow the library.
"""

import random
from fractions import Fraction

from mlsgraph.disguise import DisguisedInstance, DisguiseError, _inverse_images, _map_path
from mlsgraph.fungroup import (Hom, apply_hom, cyclic_reduce_word, invert_word, loop_class_word,
                               loop_to_word, spanning_tree)
from mlsgraph.graphs import (DirectedEdge, attach_tree, random_tree, require_valid,
                             subdivide_edge)
from mlsgraph.hull import compute_core
from mlsgraph.paths import reduce_path


def reference_subdivision_chain(g, eid, cut_count):
    next_e = max(g.edge_ids, default=-1) + 1
    return tuple(DirectedEdge(next_e + i, False) for i in range(cut_count + 1))


def reference_disguise(g, seed):
    require_valid(g)
    core1 = compute_core(g)
    if core1.is_empty:
        raise DisguiseError("core is empty")
    rng = random.Random(seed)

    work = g
    chains = {e: (DirectedEdge(e, False),) for e in g.edge_ids}
    for eid in sorted(g.edge_ids):
        if rng.random() < 0.6:
            cuts = rng.randint(1, 2)
            numerators = sorted(rng.sample(range(1, 8), cuts))
            fractions = [Fraction(n, 8) for n in numerators]
            work_edge = chains[eid][0].edge
            chains[eid] = reference_subdivision_chain(work, work_edge, cuts)
            work = subdivide_edge(work, work_edge, fractions)

    for _ in range(rng.randint(1, 2)):
        at = rng.choice(sorted(work.vertex_ids))
        tree = random_tree(rng, rng.randint(2, 4))
        work = attach_tree(work, at, tree, 0)

    old_v = sorted(work.vertex_ids)
    new_v = list(range(len(old_v)))
    rng.shuffle(new_v)
    vertex_map = dict(zip(old_v, new_v))
    old_e = sorted(work.edge_ids)
    new_e = list(range(len(old_e)))
    rng.shuffle(new_e)
    edge_map = dict(zip(old_e, new_e))
    flips = {e for e in old_e if rng.random() < 0.5}
    g2 = work.relabeled(vertex_map, edge_map, flips, name=f"{g.name}-d{seed}")

    chains = {
        src: tuple(DirectedEdge(edge_map[s.edge], s.rev ^ (s.edge in flips)) for s in chain)
        for src, chain in chains.items()}
    vertex_image = {v: vertex_map[v] for v in g.vertex_ids}

    basis1 = spanning_tree(g)
    basis2 = spanning_tree(g2)
    connector = basis2.tree_path(basis2.basepoint, vertex_image[basis1.basepoint])

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
    if branch_map:
        x0 = min(branch_map)
        s1 = basis1.tree_path(x0, basis1.basepoint)
        s2 = basis2.tree_path(basis2.basepoint, vertex_image[x0])
        tau_loop = reduce_path(
            s2.then(_map_path(g2, vertex_image, chains, s1)).then(connector.reverse()))
        tau = loop_to_word(basis2, tau_loop)
    else:
        _, conj = cyclic_reduce_word(apply_hom(hom, (1,)))
        tau = invert_word(conj)
    return DisguisedInstance(g, g2, hom, vertex_image, chains, branch_map, tau)
