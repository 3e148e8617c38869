"""Relations between runs that the rigidity theorem implies, on disguises.

For a disguise (g, g', phi) with branch map f:
- the identity hom of g' accepts, with the identity branch map, every
  segment sent to itself unreversed, and an empty `tau`;
- phi's inverse accepts (g', g), with the branch map f^-1;
- scaling every length of both graphs by 7/3 leaves the accepted
  certificate's report unchanged;
- on a perturbed disguise (c08's construction), scaling every length by 7/3
  keeps the REJECT code and the mismatched word, and scales both of its
  printed lengths (or circumferences) by 7/3;
- composed with the hom of a disguise (g', g'', phi') with branch map f',
  phi' phi accepts (g, g''), with the branch map f' f;
- composed with conjugation by a word c, phi accepts with the same branch
  and segment lines, and with tau c^-1 for tau.
"""

import random
import re
from fractions import Fraction

from helpers import c08_negative, disguise_instances
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsgraph import MetricGraph, compute_core, disguise, random_graph, spanning_tree
from mlsgraph.fungroup import (Hom, apply_hom, concat_words, free_reduce, identity_hom,
                               invert_word, word_to_loop)
from mlsgraph.paths import cyclic_reduce_based
from mlsgraph.rigidity import (IsometryCertificate, ReconstructionFailure, distinguishing_pair,
                               reconstruct)

SCALE = Fraction(7, 3)


@st.composite
def disguises(draw):
    # An extra edge closes a cycle, so every core is non-empty.
    seed = draw(st.integers(0, 2**31 - 1))
    g = random_graph(seed, draw(st.integers(1, 6)), draw(st.integers(1, 4)), 5)
    return g, disguise(g, seed + 1)


def _scaled(g: MetricGraph) -> MetricGraph:
    return MetricGraph(g.vertex_ids, ((eid, rec.u, rec.v, rec.length * SCALE)
                                      for eid, rec in g.edges_sorted()), name=g.name)


@settings(max_examples=60, deadline=None)
@given(disguises())
def test_identity_hom_gives_the_identity_map(pair):
    _, inst = pair
    g = inst.graph
    cert = reconstruct(g, g, identity_hom(spanning_tree(g)))
    assert isinstance(cert, IsometryCertificate), cert
    assert cert.vertex_map == {x: x for x in compute_core(g).branch_points}
    assert cert.segment_map == tuple((i, i, False) for i in range(len(cert.segment_map)))
    assert cert.tau == ()


@settings(max_examples=60, deadline=None)
@given(disguises())
def test_inverse_hom_gives_the_inverse_map(pair):
    g, inst = pair
    cert = reconstruct(inst.graph, g, inst.hom.inverse())
    assert isinstance(cert, IsometryCertificate), cert
    assert cert.vertex_map == {y: x for x, y in inst.branch_map.items()}


@settings(max_examples=60, deadline=None)
@given(disguises())
def test_scaling_every_length_keeps_the_report(pair):
    g, inst = pair
    cert = reconstruct(g, inst.graph, inst.hom)
    assert isinstance(cert, IsometryCertificate), cert
    g1, g2 = _scaled(g), _scaled(inst.graph)
    hom = Hom(spanning_tree(g1), spanning_tree(g2), inst.hom.images, inst.hom.inverse_images)
    assert reconstruct(g1, g2, hom).report() == cert.report()


def _mismatch(detail: str):
    """(word, l1, l2) of a `spectrum-mismatch` detail `<word> (<l1> vs <l2>)`."""
    word, l1, l2 = re.fullmatch(r"(.*) \((\S+) vs (\S+)\)", detail).groups()
    return word, Fraction(l1), Fraction(l2)


@settings(max_examples=60, deadline=None)
@given(disguises(), st.integers(0, 50), st.integers(0, 4))
def test_scaling_every_length_scales_a_rejects_lengths(pair, k, sweep):
    g, inst = pair
    g2p, hom = c08_negative(g, inst, k)
    res = reconstruct(g, g2p, hom, sweep)
    assert isinstance(res, ReconstructionFailure), res
    g1s, g2s = _scaled(g), _scaled(g2p)
    scaled = reconstruct(g1s, g2s, Hom(spanning_tree(g1s), spanning_tree(g2s), hom.images,
                                       hom.inverse_images), sweep)
    assert isinstance(scaled, ReconstructionFailure), scaled
    assert scaled.code == res.code
    if res.code == "spectrum-mismatch":
        word, l1, l2 = _mismatch(res.detail)
        assert _mismatch(scaled.detail) == (word, l1 * SCALE, l2 * SCALE)
    elif res.code == "circle-circumference":
        c1, c2 = (Fraction(c) * SCALE for c in res.detail.split(" vs "))
        assert scaled.detail == f"{c1} vs {c2}"


@settings(max_examples=40, deadline=None)
@given(disguises(), st.integers(0, 2**31 - 1))
def test_composed_disguises_compose_their_branch_maps(pair, seed):
    g, first = pair
    second = disguise(first.graph, seed)
    images = tuple(apply_hom(second.hom, w) for w in first.hom.images)
    inverse = tuple(apply_hom(first.hom.inverse(), w) for w in second.hom.inverse_images)
    cert = reconstruct(g, second.graph, Hom(first.hom.source, second.hom.target, images, inverse))
    assert isinstance(cert, IsometryCertificate), cert
    assert cert.vertex_map == {x: second.branch_map[y] for x, y in first.branch_map.items()}


def _random_reduced_word(rng, rank, length):
    letters = [s * k for k in range(1, rank + 1) for s in (1, -1)]
    w = [rng.choice(letters)]
    while len(w) < length:
        w.append(rng.choice([x for x in letters if x != -w[-1]]))
    return tuple(w)


def _lines(report, kind):
    return [line for line in report.splitlines() if line.startswith(kind + " ")]


def _wrapping_transports(g, hom):
    """Segments of `g` whose image loops, as `transport_path` realizes them,
    have a conjugator remainder longer than the other image loop."""
    core, wraps = compute_core(g), 0
    for seg in core.segments:
        pair = distinguishing_pair(core, seg.path, hom.source)
        based, conj = zip(*(cyclic_reduce_based(word_to_loop(hom.target, apply_hom(hom, w)))
                            for w in (pair.word1, pair.word2)))
        short = 0 if len(conj[0].steps) <= len(conj[1].steps) else 1
        remainder = len(conj[1 - short].steps) - len(conj[short].steps)
        wraps += remainder > len(based[short].steps)
    return wraps


def test_conjugated_hom_conjugates_tau():
    """phi composed with conjugation by c, g -> c phi(g) c^-1, has inverse
    h -> phi^-1(c)^-1 phi^-1(h) phi^-1(c) and accepts with the same branch
    and segment lines, and tau c^-1 for tau.  Its image loops carry c's path
    in their conjugators, so some transports see a conjugator remainder
    longer than the other image loop, which wraps round it."""
    rng = random.Random(11)
    instances = [(g, inst) for g, inst in disguise_instances(200) if inst.hom.source.rank >= 2]
    wraps = 0
    for g, inst in instances:
        hom = inst.hom
        cert = reconstruct(g, inst.graph, hom)
        assert isinstance(cert, IsometryCertificate), cert
        c = _random_reduced_word(rng, hom.target.rank, rng.randint(4, 12))
        pc = apply_hom(hom.inverse(), c)
        conj = Hom(hom.source, hom.target,
                   tuple(concat_words(c, w, invert_word(c)) for w in hom.images),
                   tuple(concat_words(invert_word(pc), w, pc) for w in hom.inverse_images))
        got = reconstruct(g, inst.graph, conj)
        assert isinstance(got, IsometryCertificate), got
        for kind in ("branch", "segment"):
            assert _lines(got.report(), kind) == _lines(cert.report(), kind)
        assert got.tau == free_reduce(cert.tau + invert_word(c))
        wraps += _wrapping_transports(g, conj)
    assert len(instances) >= 60 and wraps > 0
