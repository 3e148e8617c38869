"""Shared test utilities: random reduced paths and their re-expansions,
homomorphisms composed with Nielsen moves, the acceptance suite's
disguise and negative-instance streams, malformed hom files, and ids that
the text formats refuse."""

from fractions import Fraction

from mlsgraph import MetricGraph, compute_core, disguise, random_graph, spanning_tree
from mlsgraph.fungroup import Hom, apply_hom
from mlsgraph.paths import EdgePath


def random_reduced_path(rng, g, max_steps, start=None):
    v = rng.choice(sorted(g.vertex_ids)) if start is None else start
    steps = []
    at = v
    for _ in range(rng.randint(0, max_steps)):
        options = [s for s in g.out_steps(at)
                   if not steps or s != steps[-1].reverse()]
        if not options:
            break
        step = rng.choice(options)
        steps.append(step)
        at = g.step_head(step)
    return EdgePath(g, v, tuple(steps))


def insert_cancelling_pairs(rng, path, count):
    steps = list(path.steps)
    g = path.graph
    for _ in range(count):
        pos = rng.randint(0, len(steps))
        at = path.start
        for s in steps[:pos]:
            at = g.step_head(s)
        out = g.out_steps(at)
        if not out:
            continue
        e = rng.choice(out)
        steps[pos:pos] = [e, e.reverse()]
    return EdgePath(g, path.start, tuple(steps))


def nielsen_compose(hom, i, j, sign, left=False):
    """`hom` precomposed with the elementary Nielsen automorphism of its
    source that sends g_i to g_i g_j^sign (g_j^sign g_i when `left`), or to
    g_i^-1 when i == j.  The inverse images are composed to match, so the
    result is again a certified isomorphism."""
    rank = hom.source.rank
    gens = [(k,) for k in range(1, rank + 1)]
    fwd, back = list(gens), list(gens)
    if i == j:
        fwd[i - 1] = back[i - 1] = (-i,)
    elif left:
        fwd[i - 1], back[i - 1] = (sign * j, i), (-sign * j, i)
    else:
        fwd[i - 1], back[i - 1] = (i, sign * j), (i, -sign * j)
    alpha_inv = Hom(hom.source, hom.source, tuple(back), tuple(fwd))
    images = tuple(apply_hom(hom, w) for w in fwd)
    inverse = tuple(apply_hom(alpha_inv, apply_hom(hom.inverse(), (k,)))
                    for k in range(1, hom.target.rank + 1))
    return Hom(hom.source, hom.target, images, inverse)


def nielsen_homs(instances):
    """(graph, disguise, hom) for each (graph, disguise) pair: the disguise's
    hom composed with a Nielsen move that cycles through generators, signs
    and sides."""
    for n, (g, inst) in enumerate(instances):
        rank = inst.hom.source.rank
        yield g, inst.graph, nielsen_compose(inst.hom, 1 + n % rank, 1 + (n // 2) % rank,
                                             1 if n % 3 else -1, n % 2 == 0)


def disguise_instances(count, core_cap=10, seed0=0):
    """Deterministic stream of (base graph, disguise) pairs whose disguised
    cores have at most `core_cap` edges."""
    out = []
    seed = seed0
    while len(out) < count:
        seed += 1
        g = random_graph(seed, 2 + seed % 4, 1 + seed % 3, 5)
        if compute_core(g).is_empty:
            continue
        inst = disguise(g, seed + 10_000)
        if len(compute_core(inst.graph).core.edge_ids) > core_cap:
            continue
        out.append((g, inst))
    return out


def c08_negative(g, inst, k):
    """Negative instance k of the acceptance suite: the disguise's core edge
    `k mod (core edges)` lengthened by 1/7, with the disguise's hom between
    fresh bases.  Returns the perturbed graph and the hom."""
    g2 = inst.graph
    core_edges = sorted(compute_core(g2).core.edge_ids)
    perturbed_edge = core_edges[k % len(core_edges)]
    rows = [(eid, rec.u, rec.v,
             rec.length + (Fraction(1, 7) if eid == perturbed_edge else 0))
            for eid, rec in g2.edges_sorted()]
    g2p = MetricGraph(g2.vertex_ids, rows, name="perturbed")
    return g2p, Hom(spanning_tree(g), spanning_tree(g2p), inst.hom.images,
                    inst.hom.inverse_images)


# Hom files (of rank 2) that `read_hom` and `mlsgraph reconstruct` refuse,
# with the message.
BAD_HOM_FILES = [
    ("gen g1 = g1\nhom phi\ngen g2 = g2\n",
     "line 2: hom header must be the first directive"),
    ("gen g1 = g1\ngen g2 = g2\ninverse\nhom phi\n",
     "line 4: hom header must be the first directive"),
    ("hom phi\nhom phi\ngen g1 = g1\ngen g2 = g2\n", "line 2: repeated hom header"),
    ("hom phi\ngen g1 = g1\ngen g2 = g2\nhom again\n", "line 4: repeated hom header"),
    ("hom phi extra\ngen g1 = g1\ngen g2 = g2\n", "line 1: malformed hom header"),
    ("homphi\ngen g1 = g1\ngen g2 = g2\n", "line 1: unknown directive"),
    ("hom phi\ngen g1 = g1\ngen g2 = g2\nhomework is ignored\n", "line 4: unknown directive"),
    ("hom phi\ngen g1 = g1\ngen g2 = g2\ninverse\ngen g1 = g1\ngen g2 = g2\n"
     "inverse\ngen g1 = g1\ngen g2 = g2\n", "line 7: repeated inverse section"),
    ("hom phi\ngen g1 = g1\ngen g2 = g2\ninverse\ninverse\n",
     "line 5: repeated inverse section"),
    ("gen g1 = g1\ngen g2 = g2\n", "missing hom header"),
    ("hom phi\ngen g1\ngen g2 = g2\n", "line 2: malformed gen line"),
    ("hom phi\ngen g1 = g1\ngen g2 =\n", "line 3: malformed gen line"),
]

# Ids and indices that Python's `int` reads but the text formats refuse: a
# sign, `_` between digits and non-ASCII digits.  Each is (format, text,
# message): a word or path literal, a rank-2 hom file or a graph file.
NON_DIGIT_INDICES = [
    ("word", "g+1", "bad word token 'g+1'"),
    ("word", "g1_0", "bad word token 'g1_0'"),
    ("word", "g\uff12", "bad word token 'g\uff12'"),
    ("word", "g0", "generator index must be positive in 'g0'"),
    ("path", "e+1", "bad path token 'e+1'"),
    ("path", "e0_0", "bad path token 'e0_0'"),
    ("hom", "hom phi\ngen g+1 = g1\ngen g2 = g2\n", "line 2: bad generator name 'g+1'"),
    ("graph", "graph g\nvertex +0\n", "line 2: malformed 'vertex' line"),
    ("graph", "graph g\nvertex 0\nvertex 1_0\n", "line 3: malformed 'vertex' line"),
    ("graph", "graph g\nvertex \uff10\n", "line 2: malformed 'vertex' line"),
    ("graph", "graph g\nvertex 0\nedge +0 0 0 1\n", "line 3: malformed 'edge' line"),
]
