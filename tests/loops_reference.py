"""Frozen references for the maps induced on generators.

`reference_inverse_images` is `disguise._inverse_images` and
`reference_induced_image` the image `verify_induces_hom` computes, as they
were when each generator's loop was built at the basepoint, conjugated by a
tree path and reduced, and then pulled back or mapped one chain traversal
at a time.  The library now builds the loop at its base vertex directly
(`Basis.generator_loop`) and maps it with `paths.map_chains`.  Do not update
them to follow the library.
"""

from mlsgraph.fungroup import loop_class_word, loop_to_word, word_to_loop
from mlsgraph.graphs import DirectedEdge
from mlsgraph.paths import EdgePath, PathError, chain_traversals, reduce_path


def reference_inverse_images(g1, basis1, basis2, vertex_image, chains):
    connector = basis2.tree_path(basis2.basepoint, vertex_image[basis1.basepoint])
    where = {s.edge: (src, pos) for src, chain in chains.items() for pos, s in enumerate(chain)}
    preimage_start = {vertex_image[v]: v for v in g1.vertex_ids}

    def pull_back(loop):
        traversals = chain_traversals(loop.steps, chains, where)
        return EdgePath(g1, preimage_start[loop.start],
                        tuple(DirectedEdge(src, backward) for src, backward in traversals))

    out = []
    for j in range(1, basis2.rank + 1):
        lam = word_to_loop(basis2, (j,))
        based = reduce_path(connector.reverse().then(lam).then(connector))
        out.append(loop_to_word(basis1, pull_back(based)))
    return out


def reference_induced_image(cert, k):
    """Raises PathError where `verify_induces_hom` reports a failing generator."""
    chains = [seg.path.steps for seg in cert.core1.segments]
    where = {step.edge: (idx, pos) for idx, chain in enumerate(chains)
             for pos, step in enumerate(chain)}
    basis1 = cert.basis1
    x0 = min(cert.vertex_map)
    s1 = basis1.tree_path(x0, basis1.basepoint)
    seg_image = {i: (j, flag) for i, j, flag in cert.segment_map}
    lam = word_to_loop(basis1, (k,))
    based = reduce_path(s1.then(lam).then(s1.reverse()))
    target_steps = []
    for idx, backward in chain_traversals(based.steps, chains, where):
        j, flag = seg_image[idx]
        piece = cert.core2.segments[j].path
        if flag != backward:
            piece = piece.reverse()
        target_steps.extend(piece.steps)
    mapped = EdgePath(cert.basis2.graph, cert.vertex_map[x0], tuple(target_steps))
    if not mapped.is_closed():
        raise PathError("mapped generator loop does not close")
    return loop_class_word(cert.basis2, mapped)
