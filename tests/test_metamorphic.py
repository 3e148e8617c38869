"""Relations between runs that the rigidity theorem implies, on disguises.

For a disguise (g, g', phi) with branch map f:
- the identity hom of g' accepts, with the identity branch map, every
  segment sent to itself unreversed, and an empty `tau`;
- phi's inverse accepts (g', g), with the branch map f^-1;
- scaling every length of both graphs by 7/3 leaves the accepted
  certificate's report unchanged.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mlsgraph import MetricGraph, compute_core, disguise, random_graph, spanning_tree
from mlsgraph.fungroup import Hom, identity_hom
from mlsgraph.rigidity import IsometryCertificate, reconstruct

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
