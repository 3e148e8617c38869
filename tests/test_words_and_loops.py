"""Word enumeration, the spectrum sweep and table, and generator loops
against their frozen references.

The sweep and the table pick each class's word from the word alone, the
enumeration runs without recursion, and every map induced on generators
starts from `Basis.generator_loop` and goes through `paths.map_chains`.
"""

import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from helpers import disguise_instances, nielsen_compose
from hypothesis import given, settings
from hypothesis import strategies as st
from loops_reference import reference_induced_image, reference_inverse_images
from sweep_reference import reference_sweep_words
from words_reference import reference_enumerate_reduced_words, reference_spectrum_table

from mlsgraph import (Hom, IsometryCertificate, MetricGraph, compute_core, disguise,
                      random_graph, reconstruct, rigidity, spanning_tree)
from mlsgraph.disguise import _inverse_images
from mlsgraph.fungroup import WordError, enumerate_reduced_words, spectrum_table, word_to_loop
from mlsgraph.paths import PathError, is_reduced, reduce_path, reduce_steps
from mlsgraph.rigidity import verify_induces_hom

# (rank, max_len), each with at most about 50,000 reduced words.
SWEEP_SIZES = [(1, 300), (2, 9), (3, 6), (4, 5), (5, 4), (6, 4)]


def _bouquet(rank):
    """Two vertices joined by rank + 1 edges of lengths 1, 2, ...: rank `rank`."""
    return MetricGraph([0, 1], [(k, 0, 1, k + 1) for k in range(rank + 1)])


# -- enumeration ---------------------------------------------------------

def test_enumeration_survives_the_recursion_limit():
    words = list(enumerate_reduced_words(1, 1100))
    assert len(words) == 2200
    assert words[-1] == (-1,) * 1100


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(0, 5))
def test_enumeration_matches_recursive_reference(rank, max_len):
    assert list(enumerate_reduced_words(rank, max_len)) == \
        list(reference_enumerate_reduced_words(rank, max_len))


# -- the spectrum sweep ----------------------------------------------------

@pytest.mark.parametrize("rank,max_len", SWEEP_SIZES)
def test_first_of_class_picks_the_checked_set_words(rank, max_len):
    picked = [w for w in enumerate_reduced_words(rank, max_len) if rigidity._first_of_class(w)]
    assert picked == list(reference_sweep_words(rank, max_len))


def _swept(monkeypatch, calls):
    """Source words queried by `_spectrum_sweep` over (max_len, start, stop) calls,
    on a rank-3 graph and an isometric copy under the identity hom."""
    g1, g2 = _bouquet(3), _bouquet(3)
    b1, b2 = spanning_tree(g1), spanning_tree(g2)
    gens = tuple((k,) for k in range(1, 4))
    queried = []
    real = rigidity.marked_length

    def recording(basis, w):
        if basis is b1:
            queried.append(w)
        return real(basis, w)

    monkeypatch.setattr(rigidity, "marked_length", recording)
    for max_len, start, stop in calls:
        rigidity._spectrum_sweep(b1, b2, Hom(b1, b2, gens, gens), max_len, start, stop)
    return queried


def test_prefix_then_tail_queries_what_one_sweep_queries(monkeypatch):
    whole = _swept(monkeypatch, [(4, 0, None)])
    assert whole == list(reference_sweep_words(3, 4))
    for q in (0, 1, 7, len(whole) - 1, len(whole), 10**9):
        assert _swept(monkeypatch, [(4, 0, q)]) == whole[:q]
        assert _swept(monkeypatch, [(4, 0, q), (4, q, None)]) == whole
    assert _swept(monkeypatch, [(4, len(whole), None)]) == []


def test_sweep_holds_no_per_class_state(monkeypatch):
    """Rank 8 up to length 4 is 57,856 words in 7,004 classes up to
    inversion; with the queries stubbed out, the sweep allocates no more
    than a few words at a time."""
    monkeypatch.setattr(rigidity, "marked_length", lambda basis, w: Fraction(0))
    monkeypatch.setattr(rigidity, "apply_hom", lambda hom, w: w)
    b = spanning_tree(_bouquet(8))
    tracemalloc.start()
    try:
        rigidity._spectrum_sweep(b, b, None, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


# -- the spectrum table ----------------------------------------------------

def test_spectrum_table_matches_dict_reference():
    for seed in range(1, 31):
        g = random_graph(seed, 2 + seed % 4, 1 + seed % 3, 7)
        graphs = [g]
        if not compute_core(g).is_empty:
            graphs.append(disguise(g, seed).graph)
        for h in graphs:
            basis = spanning_tree(h)
            for n in (1, 2, 4):
                assert spectrum_table(basis, n) == reference_spectrum_table(basis, n)
    assert spectrum_table(spanning_tree(_bouquet(1)), 40) == \
        reference_spectrum_table(spanning_tree(_bouquet(1)), 40)


# -- generator loops -------------------------------------------------------

def _graphs():
    for g, inst in disguise_instances(40):
        yield g
        yield inst.graph
    for seed in range(1, 11):
        yield random_graph(seed, 8, 6, 9)


def test_generator_loop_is_the_conjugated_basepoint_loop():
    for g in _graphs():
        b = spanning_tree(g)
        bp = b.basepoint
        for at in sorted(g.vertex_ids):
            there, back = b.tree_path(at, bp), b.tree_path(bp, at)
            for k in range(1, b.rank + 1):
                for letter in (k, -k):
                    expected = reduce_path(there.then(word_to_loop(b, (letter,))).then(back))
                    assert b.generator_loop(letter, at) == expected


def test_generator_loop_refuses_indices_out_of_range(theta):
    b = spanning_tree(theta)
    for k in (0, b.rank + 1, -b.rank - 1):
        with pytest.raises(WordError):
            b.generator_loop(k, b.basepoint)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10**6), st.integers(2, 8), st.integers(0, 4), st.booleans())
def test_tree_path_between_any_two_vertices(seed, vertices, extra, disguised):
    g = random_graph(seed, vertices, extra, 9)
    if disguised and not compute_core(g).is_empty:
        g = disguise(g, seed).graph
    b = spanning_tree(g)
    bp = b.basepoint
    for a in sorted(g.vertex_ids):
        for c in sorted(g.vertex_ids):
            p = b.tree_path(a, c)
            assert (p.start, p.end) == (a, c)
            assert p.support() <= b.tree_edges
            assert is_reduced(p)
            assert p == reduce_path(b.tree_path(a, bp).then(b.tree_path(bp, c)))


def test_tree_path_strips_the_shared_way_to_the_root():
    """A path 0 - 1 - 2 - 3: from 2 to 3 the tree path is one step, though
    both ways to the basepoint 0 run through 1."""
    g = MetricGraph([0, 1, 2, 3], [(0, 0, 1, 1), (1, 1, 2, 1), (2, 2, 3, 1)])
    b = spanning_tree(g)
    assert [s.edge for s in b.tree_path(2, 3).steps] == [2]
    assert [s.edge for s in b.tree_path(3, 1).steps] == [2, 1]


# -- induced maps ----------------------------------------------------------

def test_inverse_images_match_old_pull_back():
    instances = [inst for _, inst in disguise_instances(100)]
    instances += [disguise(random_graph(seed, 8, 6, 9), seed) for seed in range(1, 21)]
    for inst in instances:
        b1, b2 = inst.hom.source, inst.hom.target
        args = (inst.source, b1, b2, inst.vertex_image, inst.edge_chains)
        got = _inverse_images(*args)
        assert got == reference_inverse_images(*args) == list(inst.hom.inverse_images)


def _check_against_reference(cert, hom):
    check = verify_induces_hom(cert, hom)
    for k in range(1, hom.source.rank + 1):
        try:
            expected = reference_induced_image(cert, k)
        except PathError:
            assert check.failing_generator == k
            assert len(check.images) == k - 1
            return False
        assert check.images[k - 1] == expected
    return True


def test_induced_images_match_old_mapping():
    mapped = broken = 0
    for n, (g, inst) in enumerate(disguise_instances(100)):
        rank = inst.hom.source.rank
        homs = [inst.hom, nielsen_compose(inst.hom, 1 + n % rank, 1 + (n // 2) % rank,
                                          1 if n % 3 else -1, n % 2 == 0)]
        for hom in homs:
            cert = reconstruct(g, inst.graph, hom, 0)
            if not isinstance(cert, IsometryCertificate) or cert.kind != "branched":
                continue
            mapped += _check_against_reference(cert, hom)
            # A segment map rotated by one: the mapped loops stop chaining.
            rows = cert.segment_map
            rotated = tuple((i, j2, f) for (i, _, f), (_, j2, _) in
                            zip(rows, rows[1:] + rows[:1]))
            broken += not _check_against_reference(replace(cert, segment_map=rotated), hom)
    assert mapped >= 60 and broken >= 20, (mapped, broken)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), vertices=st.integers(1, 5), extra=st.integers(1, 4),
       data=st.data())
def test_word_to_loop_matches_reducing_the_blocks(seed, vertices, extra, data):
    # `word_to_loop` cancels only where a generator block meets the steps so
    # far; one stack scan over all the blocks written out is the reference.
    # Disguises carry pendant trees, so blocks run out to them and back, and
    # words need not be reduced.
    basis = spanning_tree(disguise(random_graph(seed, vertices, extra, 5), seed).graph)
    letters = [k for g in range(1, basis.rank + 1) for k in (g, -g)]
    w = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=12)))
    expected = reduce_steps(step for k in w for step in basis._gen_block(k))
    loop = word_to_loop(basis, w)
    assert (loop.start, loop.steps) == (basis.basepoint, tuple(expected))
