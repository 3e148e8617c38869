import pytest
from helpers import BAD_HOM_FILES, NON_DIGIT_INDICES, canonical_cyclic_word

from mlsgraph import (Basis, GraphError, Hom, MetricGraph, WordError, apply_hom, format_word,
                      identity_hom, loop_to_word, marked_length, parse_word, random_graph,
                      read_graph, read_hom, spanning_tree, spectrum_table, word_to_loop,
                      write_hom)
from mlsgraph.fungroup import (concat_words, cyclic_reduce_word, enumerate_reduced_words,
                               format_spectrum_table, free_reduce, invert_word, word_power)
from mlsgraph.paths import format_path, parse_path


# -- word algebra -------------------------------------------------------

def test_free_reduce():
    assert free_reduce([1, -1]) == ()
    assert free_reduce([1, 2, -2, -1, 3]) == (3,)
    assert free_reduce([1, 2]) == (1, 2)


def test_invert_and_concat():
    w = (1, 2, -1)
    assert invert_word(w) == (1, -2, -1)
    assert concat_words(w, invert_word(w)) == ()
    assert word_power((1,), 3) == (1, 1, 1)
    assert word_power((1, 2), -1) == (-2, -1)


def test_cyclic_reduce_word():
    core, conj = cyclic_reduce_word((1, 2, 3, -2, -1))
    assert core == (3,) and conj == (1, 2)
    assert concat_words(conj, core, invert_word(conj)) == (1, 2, 3, -2, -1)


def test_canonical_cyclic_word_rotation_invariance():
    assert canonical_cyclic_word((1, 2)) == canonical_cyclic_word((2, 1))
    assert canonical_cyclic_word((1, 2, -1)) == canonical_cyclic_word((2,))
    assert canonical_cyclic_word((1, 2)) != canonical_cyclic_word((-1, -2))


def test_word_literals():
    assert parse_word("g1 g2^-1") == (1, -2)
    assert format_word((1, -2)) == "g1 g2^-1"
    assert format_word(()) == "-"
    with pytest.raises(WordError):
        parse_word("h1")


def test_enumerate_reduced_words_counts():
    words = list(enumerate_reduced_words(2, 3))
    # 4 + 4*3 + 4*9 freely reduced words of length 1..3 over rank 2
    assert len(words) == 4 + 12 + 36
    assert len(set(words)) == len(words)
    assert all(len(w) <= 3 for w in words)


# -- spanning trees -------------------------------------------------------

def test_spanning_tree_theta(theta):
    b = spanning_tree(theta)
    assert sorted(b.tree_edges) == [0]
    assert b.generators == (1, 2)
    assert b.rank == 2
    assert b.basepoint == 0


def test_spanning_tree_of_tree():
    g = MetricGraph([0, 1, 2], [(0, 0, 1, 1), (1, 1, 2, 1)])
    b = spanning_tree(g)
    assert b.rank == 0 and b.generators == ()


def test_spanning_tree_dumbbell(dumbbell):
    b = spanning_tree(dumbbell)
    assert sorted(b.tree_edges) == [2]
    assert b.generators == (0, 1)


def test_spanning_tree_rejects_disconnected():
    g = MetricGraph([0, 1], [])
    with pytest.raises(GraphError):
        spanning_tree(g)


def test_custom_basis_must_span(theta):
    with pytest.raises(GraphError):
        Basis(theta, frozenset(), (0, 1, 2), 0)


def test_basis_takes_only_its_four_fields(theta):
    b = Basis(theta, frozenset({0}), (1, 2), 0)
    assert b == spanning_tree(theta) and b._gen_index == {1: 1, 2: 2}
    # The parent pointers and generator blocks are built, never passed in.
    for name in ("_parent", "_gen_blocks", "_gen_index"):
        with pytest.raises(TypeError):
            Basis(theta, frozenset({0}), (1, 2), 0, **{name: {}})


# -- words <-> loops -------------------------------------------------------

def test_word_to_loop_empty(theta):
    b = spanning_tree(theta)
    assert word_to_loop(b, ()).is_empty()


def test_word_to_loop_theta_generator(theta):
    b = spanning_tree(theta)
    assert format_path(word_to_loop(b, (1,))) == "e1 e0^-1"


def test_word_to_loop_cancels_inverse_pair(theta):
    b = spanning_tree(theta)
    assert word_to_loop(b, free_reduce([1, -1])).is_empty()


def test_loop_to_word_examples(theta):
    b = spanning_tree(theta)
    assert loop_to_word(b, parse_path(theta, "", at=0)) == ()
    assert loop_to_word(b, parse_path(theta, "e1 e0^-1")) == (1,)
    assert loop_to_word(b, parse_path(theta, "e2 e1^-1")) == (2, -1)


def test_word_loop_roundtrip(theta, dumbbell):
    for g in (theta, dumbbell, random_graph(4, 5, 3, 6)):
        b = spanning_tree(g)
        for w in enumerate_reduced_words(b.rank, 3):
            assert loop_to_word(b, word_to_loop(b, w)) == w


# -- marked length -----------------------------------------------------------

def test_marked_length_theta(theta):
    b = spanning_tree(theta)
    assert marked_length(b, (1,)) == 3
    assert marked_length(b, (2, -1)) == 5
    assert marked_length(b, ()) == 0


def test_marked_length_positive_off_identity(theta):
    b = spanning_tree(theta)
    for w in enumerate_reduced_words(2, 4):
        assert marked_length(b, w) > 0


def test_spectrum_table_theta(theta):
    b = spanning_tree(theta)
    rows = dict(spectrum_table(b, 1))
    assert rows == {(1,): 3, (-1,): 3, (2,): 4, (-2,): 4}


def test_spectrum_table_rank_zero():
    g = MetricGraph([0, 1], [(0, 0, 1, 1)])
    assert spectrum_table(spanning_tree(g), 3) == []


def test_spectrum_table_inverse_pairs_match(dumbbell):
    rows = dict(spectrum_table(spanning_tree(dumbbell), 3))
    for w, value in rows.items():
        assert rows[canonical_cyclic_word(invert_word(w))] == value


def test_spectrum_table_export(theta):
    text = format_spectrum_table(spectrum_table(spanning_tree(theta), 1))
    assert "g1\t3" in text.replace("\r", "")
    assert text.count("\t") == 4


# -- spectrum laws ------------------------------------------------------------

def test_conjugation_invariance_small(dumbbell):
    b = spanning_tree(dumbbell)
    for w in enumerate_reduced_words(2, 3):
        base = marked_length(b, w)
        for u in enumerate_reduced_words(2, 2):
            conj = concat_words(u, w, invert_word(u))
            assert marked_length(b, conj) == base


def test_inversion_invariance(theta):
    b = spanning_tree(theta)
    for w in enumerate_reduced_words(2, 4):
        assert marked_length(b, invert_word(w)) == marked_length(b, w)


def test_homogeneity(theta):
    b = spanning_tree(theta)
    for w in enumerate_reduced_words(2, 3):
        base = marked_length(b, w)
        for n in (2, 3, 4):
            assert marked_length(b, word_power(w, n)) == n * base


def test_basepoint_independence(theta):
    """Two different spanning trees assign the same value to each class.

    Word length is basis-dependent, so the tables are compared row-wise
    through the change-of-basis hom: the image of every class keeps its
    value, in both directions.
    """
    default = spanning_tree(theta)
    other = Basis(theta, frozenset({1}), (0, 2), 1)
    from mlsgraph.paths import reduce_path
    connector = other.tree_path(other.basepoint, default.basepoint)
    forward = tuple(
        loop_to_word(other, reduce_path(
            connector.then(word_to_loop(default, (k,))).then(connector.reverse())))
        for k in (1, 2))
    backward = tuple(
        loop_to_word(default, reduce_path(
            connector.reverse().then(word_to_loop(other, (k,))).then(connector)))
        for k in (1, 2))
    change = Hom(default, other, forward, backward)
    assert change.is_certified_isomorphism()
    table1 = spectrum_table(default, 3)
    table2 = dict(spectrum_table(other, 9))
    for w, value in table1:
        image = canonical_cyclic_word(apply_hom(change, w))
        assert table2[image] == value
    for w, value in spectrum_table(other, 3):
        preimage = apply_hom(change.inverse(), w)
        assert marked_length(default, preimage) == value


# -- homs ---------------------------------------------------------------------

def test_apply_identity_hom(theta):
    b = spanning_tree(theta)
    h = identity_hom(b)
    assert apply_hom(h, (1, -2, 1)) == (1, -2, 1)


def test_apply_swap_hom(theta):
    b = spanning_tree(theta)
    h = Hom(b, b, ((2,), (1,)), ((2,), (1,)))
    assert apply_hom(h, (1, -2)) == (2, -1)
    assert h.is_certified_isomorphism()


def test_apply_hom_inverts_images(theta):
    b = spanning_tree(theta)
    h = Hom(b, b, ((1, 2), (2,)))
    assert apply_hom(h, (-1,)) == (-2, -1)


def test_uncertified_hom(theta):
    b = spanning_tree(theta)
    assert not Hom(b, b, ((1,), (2,))).is_certified_isomorphism()
    assert not Hom(b, b, ((1,), (1,)), ((1,), (1,))).is_certified_isomorphism()


def test_hom_image_arity_checked(theta):
    b = spanning_tree(theta)
    with pytest.raises(WordError):
        Hom(b, b, ((1,),))
    with pytest.raises(WordError):
        Hom(b, b, ((3,), (1,)))


def test_hom_file_roundtrip(theta, dumbbell):
    b1, b2 = spanning_tree(theta), spanning_tree(dumbbell)
    h = Hom(b1, b2, ((1, -2), (2,)), ((1, 2), (2,)))
    text = write_hom(h, name="swap")
    back = read_hom(text, b1, b2)
    assert back.images == h.images
    assert back.inverse_images == h.inverse_images
    assert write_hom(back, name="swap") == text


def test_read_hom_requires_order(theta):
    b = spanning_tree(theta)
    bad = "hom h\ngen g2 = g1\ngen g1 = g2\n"
    with pytest.raises(WordError):
        read_hom(bad, b, b)


@pytest.mark.parametrize("name", ["phi", "swap", "h-1"])
@pytest.mark.parametrize("inverse", [None, ((2,), (-1,))])
def test_write_read_hom_roundtrip(theta, name, inverse):
    b = spanning_tree(theta)
    h = Hom(b, b, ((-2,), (1,)), inverse)
    text = write_hom(h, name=name)
    back = read_hom(text, b, b)
    assert (back.images, back.inverse_images) == (h.images, h.inverse_images)
    assert write_hom(back, name=name) == text


def test_read_hom_bare_header(theta):
    b = spanning_tree(theta)
    assert read_hom("# comment\n\n  hom  # named nothing\ngen g1 = g1\ngen g2 = g2\n",
                    b, b).images == ((1,), (2,))


def test_read_hom_dash_is_the_empty_word(theta):
    b = spanning_tree(theta)
    assert read_hom("hom\ngen g1 = -\ngen g2 = g2\n", b, b).images == ((), (2,))


@pytest.mark.parametrize("kind, text, message", NON_DIGIT_INDICES)
def test_parsers_refuse_ids_int_would_read(theta, kind, text, message):
    b = spanning_tree(theta)
    parse = {"word": parse_word, "path": lambda t: parse_path(theta, t),
             "hom": lambda t: read_hom(t, b, b), "graph": read_graph}[kind]
    with pytest.raises(ValueError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize("name", ["", "two words", "a#b", "tab\tname"])
def test_write_hom_refuses_unreadable_names(theta, name):
    b = spanning_tree(theta)
    with pytest.raises(WordError, match="hom name"):
        write_hom(Hom(b, b, ((1,), (2,))), name=name)


@pytest.mark.parametrize("text, message", BAD_HOM_FILES)
def test_read_hom_rejects_bad_headers(theta, text, message):
    b = spanning_tree(theta)
    with pytest.raises(WordError) as info:
        read_hom(text, b, b)
    assert str(info.value) == message


from hypothesis import given, settings
from hypothesis import strategies as st

word_strategy = st.lists(
    st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12).map(free_reduce)


@given(word_strategy)
@settings(max_examples=200, deadline=None)
def test_cyclic_reduce_word_roundtrip(w):
    core, conj = cyclic_reduce_word(w)
    assert concat_words(conj, core, invert_word(conj)) == w
    assert not core or core[0] != -core[-1] or len(core) == 1


@given(word_strategy, st.integers(0, 11))
@settings(max_examples=200, deadline=None)
def test_canonical_cyclic_word_rotation_and_conjugation(w, k):
    core, _ = cyclic_reduce_word(w)
    if core:
        j = k % len(core)
        assert canonical_cyclic_word(core[j:] + core[:j]) == canonical_cyclic_word(w)


@given(word_strategy, word_strategy)
@settings(max_examples=200, deadline=None)
def test_canonical_class_invariant_under_conjugation(w, u):
    assert canonical_cyclic_word(concat_words(u, w, invert_word(u))) == \
        canonical_cyclic_word(w)
