"""The circle case of `reconstruct`: a certified hom of rank one.

`reconstruct` certifies the hom first, and a certified isomorphism keeps the
rank, so rank one means both cores are circles and phi(g1) reduces to g1 or
g1^-1; the certificate is read off that image with an empty `tau`.  These
tests pin the fact it rests on, the reduced image it reads, and its output
against the frozen reference pipeline.
"""

from fractions import Fraction

from helpers import c08_negative, nielsen_compose
from hypothesis import given, settings
from hypothesis import strategies as st
from sweep_reference import reference_reconstruct

from mlsgraph import MetricGraph, compute_core, disguise, random_graph, spanning_tree
from mlsgraph.fungroup import Hom
from mlsgraph.rigidity import IsometryCertificate, reconstruct, verify_induces_hom

# A circle of circumference 5 with a pendant edge, the same circle cut in
# two, and a circle of circumference 7.
PENDANT_CIRCLE = MetricGraph([0, 1], [(0, 0, 0, 5), (1, 0, 1, 2)])
CIRCLE = MetricGraph([0, 1], [(0, 0, 1, 2), (1, 1, 0, 3)])
LONG_CIRCLE = MetricGraph([0, 1], [(0, 0, 1, 3), (1, 1, 0, 4)])

powers = st.integers(-4, 4).filter(lambda n: n != 0)


def _power(n: int):
    return (1 if n > 0 else -1,) * abs(n)


@settings(max_examples=80, deadline=None)
@given(powers, powers)
def test_rank_one_hom_is_certified_iff_it_sends_g1_to_g1_or_its_inverse(n, m):
    hom = Hom(spanning_tree(PENDANT_CIRCLE), spanning_tree(CIRCLE), (_power(n),), (_power(m),))
    assert hom.is_certified_isomorphism() == (n == m and abs(n) == 1)


def test_unreduced_rank_one_images_match_the_reference():
    """A `Hom` built through the API may hold an unreduced image; the
    certificate reads the reduced one."""
    b1 = spanning_tree(PENDANT_CIRCLE)
    for image, inverse, expect in [((1, 1, -1), (1,), (1,)), ((-1, -1, 1), (-1, 1, -1), (-1,))]:
        for target in (CIRCLE, LONG_CIRCLE):
            hom = Hom(b1, spanning_tree(target), (image,), (inverse,))
            got = reconstruct(PENDANT_CIRCLE, target, hom)
            ref = reference_reconstruct(PENDANT_CIRCLE, target, hom)
            assert got.report() == ref.report()
            if target is CIRCLE:
                assert isinstance(got, IsometryCertificate), got
                assert got.induced_images == ref.induced_images == (expect,)
                assert got.segment_map == ((0, 0, expect == (-1,)),)
                assert got.tau == ()
                assert verify_induces_hom(got, hom).ok
            else:
                assert got.report() == "verdict REJECT circle-circumference 5 vs 7\n"


def _circle_instances(count):
    """(graph, other graph, hom) triples: `count` rank-one random graphs with
    their disguises, every third hom composed with g1 -> g1^-1, and c08's
    perturbed disguise of each."""
    out = []
    for seed in range(501, 501 + count):
        g = random_graph(seed, 1 + seed % 5, 1, 5)
        inst = disguise(g, seed + 7)
        hom = nielsen_compose(inst.hom, 1, 1, 1) if seed % 3 == 0 else inst.hom
        out.append((g, inst.graph, hom))
        out.append((g, *c08_negative(g, inst, seed)))
    return out


def test_circle_disguises_match_the_reference():
    instances = _circle_instances(48)
    assert all(compute_core(g).branch_points == set() for g, _, _ in instances)
    flips = accepts = 0
    for g, g2, hom in instances:
        got, ref = reconstruct(g, g2, hom), reference_reconstruct(g, g2, hom)
        assert got.report() == ref.report()
        if isinstance(ref, IsometryCertificate):
            accepts += 1
            flips += got.segment_map[0][2]
            assert (got.tau, got.induced_images, got.length_ledger) == \
                (ref.tau, ref.induced_images, ref.length_ledger)
        else:
            assert ref.code == "circle-circumference"
            c1, c2 = map(Fraction, got.detail.split(" vs "))
            assert c1 != c2
    assert accepts == 48 and 0 < flips < accepts
