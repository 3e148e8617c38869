import re
from fractions import Fraction

import pytest
from disguise_reference import reference_disguise
from helpers import disguise_instances
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsgraph import (DisguiseError, IsometryCertificate, MetricGraph, attach_tree, compute_core,
                      disguise, random_graph, read_graph, read_truth, reconstruct,
                      spectra_agree_up_to, write_graph)
from mlsgraph.disguise import truth_comments
from mlsgraph.fungroup import apply_hom, marked_length


def test_disguise_is_isometric_on_spectra(theta):
    inst = disguise(theta, 1)
    assert inst.hom.is_certified_isomorphism()
    assert spectra_agree_up_to(inst.hom.source, inst.hom.target, inst.hom, 4) is None


def test_disguise_rejects_tree():
    g = MetricGraph([0, 1, 2], [(0, 0, 1, 1), (1, 1, 2, 1)])
    with pytest.raises(DisguiseError, match="core is empty"):
        disguise(g, 1)


def test_disguise_seeds_differ(theta):
    a = disguise(theta, 1)
    b = disguise(theta, 2)
    assert write_graph(a.graph) != write_graph(b.graph)
    assert write_graph(disguise(theta, 1).graph) == write_graph(a.graph)


def test_disguise_preserves_total_core_length(dumbbell):
    inst = disguise(dumbbell, 6)
    c1 = compute_core(dumbbell).core.total_length()
    c2 = compute_core(inst.graph).core.total_length()
    assert c1 == c2


def test_disguise_map_path_preserves_length(pendant_theta):
    g = pendant_theta
    inst = disguise(g, 3)
    from mlsgraph.paths import shortest_path
    p = shortest_path(g, 1, 2)
    image = inst.map_path(p)
    assert image.length == p.length
    assert image.start == inst.vertex_image[1]
    assert image.end == inst.vertex_image[2]


def test_disguise_branch_map_is_ground_truth(pendant_theta):
    for seed in range(1, 6):
        inst = disguise(pendant_theta, seed)
        cert = reconstruct(pendant_theta, inst.graph, inst.hom)
        assert isinstance(cert, IsometryCertificate)
        assert cert.vertex_map == inst.branch_map


def test_truth_sidecar_roundtrip(dumbbell):
    """On a disguise of the dumbbell and on c07's 200 disguises."""
    for inst in [disguise(dumbbell, 4)] + [inst for _, inst in disguise_instances(200)]:
        text = write_graph(inst.graph, extra_comments=truth_comments(inst))
        assert write_graph(read_graph(text)) == write_graph(inst.graph)
        assert read_truth(text) == (inst.branch_map, inst.tau)
    assert read_truth("# truth tau -\n") == ({}, ())
    assert read_truth("# truth branch 1 2\n# truth branch 2 2\n") == ({1: 2, 2: 2}, ())


@pytest.mark.parametrize("line", [
    "# truth branch +1 3", "# truth branch 1 \u0663", "# truth branch 1_0 2", "# truth branch a b",
    "# truth branch 1", "# truth branch 1 2 3", "# truth tau", "# truth tau g0", "# truth tau -1",
    "# truth tau - g1", "# truth", "# truth segment 0 1",
])
def test_read_truth_refuses_malformed_lines(line):
    with pytest.raises(DisguiseError, match="malformed truth line: " + re.escape(repr(line))):
        read_truth(f"graph g\nvertex 0\n# truth branch 0 0\n{line}\n")


@pytest.mark.parametrize("lines,repeat", [
    (["# truth branch 1 2", "# truth branch 1 3"], "# truth branch 1 3"),
    (["# truth branch 1 2", "# truth branch 1 2"], "# truth branch 1 2"),
    (["# truth branch 5 2", "# truth tau -", "# truth branch 5 2"], "# truth branch 5 2"),
    (["# truth tau g1", "# truth tau -"], "# truth tau -"),
    (["# truth tau -", "# truth branch 1 2", "# truth tau -"], "# truth tau -"),
    (["# truth branch 1 2", "# truth branch 1 3", "# truth tau g1", "# truth tau -"],
     "# truth branch 1 3"),
])
def test_read_truth_refuses_repeated_lines(lines, repeat):
    """Two images of one branch point, or two conjugating words, are refused;
    the error names the first repeated line."""
    with pytest.raises(DisguiseError, match="repeated truth line: " + re.escape(repr(repeat))):
        read_truth("graph g\nvertex 0\n" + "".join(f"{line}\n" for line in lines))


def test_disguise_of_circle():
    g = MetricGraph([0], [(0, 0, 0, 10)])
    inst = disguise(g, 5)
    cert = reconstruct(g, inst.graph, inst.hom)
    assert isinstance(cert, IsometryCertificate)
    assert cert.kind == "circle"


def test_disguise_word_lengths_match(theta):
    inst = disguise(theta, 9)
    from mlsgraph.fungroup import enumerate_reduced_words
    for w in enumerate_reduced_words(inst.hom.source.rank, 3):
        assert marked_length(inst.hom.source, w) == \
            marked_length(inst.hom.target, apply_hom(inst.hom, w))


def test_disguise_random_graphs_roundtrip():
    count = 0
    for seed in range(30):
        g = random_graph(seed, 2 + seed % 5, 1 + seed % 3, 5)
        if compute_core(g).is_empty:
            continue
        inst = disguise(g, seed + 500)
        cert = reconstruct(g, inst.graph, inst.hom)
        assert isinstance(cert, IsometryCertificate), (seed, cert)
        count += 1
    assert count >= 25


# -- the edit loop, against its frozen copy ----------------------------------

@st.composite
def disguise_inputs(draw):
    """A `random_graph` with a pendant path of up to 200 edges glued on at
    any of its vertices and any point of the path, its ids maybe moved to
    sparse ones (in reversed order, too), and a disguise seed."""
    g = random_graph(draw(st.integers(0, 10**6)), draw(st.integers(1, 8)),
                     draw(st.integers(1, 5)), draw(st.integers(1, 6)))
    size = draw(st.integers(0, 200))
    if size:
        path = MetricGraph(range(size + 1), [(i, i, i + 1, Fraction(1 + i % 5, 1 + i % 3))
                                             for i in range(size)])
        g = attach_tree(g, draw(st.sampled_from(sorted(g.vertex_ids))), path,
                        draw(st.integers(0, size)))
    if draw(st.booleans()):
        scale, shift = draw(st.integers(1, 9)), draw(st.integers(0, 20))
        top = max(g.vertex_ids) + max(g.edge_ids) if draw(st.booleans()) else 0
        move = (lambda x: scale * (top - x) + shift) if top else (lambda x: scale * x + shift)
        g = g.relabeled({v: move(v) for v in g.vertex_ids}, {e: move(e) for e in g.edge_ids})
    return g, draw(st.integers(0, 2**32))


def _fields(inst):
    g2 = inst.graph
    return (write_graph(g2, extra_comments=truth_comments(inst)), list(g2.edges_sorted()),
            {v: g2.out_steps(v) for v in g2.vertex_ids}, inst.hom.images,
            inst.hom.inverse_images, inst.vertex_image, inst.edge_chains, inst.branch_map,
            inst.tau)


@settings(max_examples=60, deadline=None)
@given(disguise_inputs())
def test_disguise_equals_the_frozen_edit_loop(case):
    g, seed = case
    assert _fields(disguise(g, seed)) == _fields(reference_disguise(g, seed))
