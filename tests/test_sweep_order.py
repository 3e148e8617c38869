"""The deferred sweep tail against the up-front sweep.

`reconstruct` checks the first `_prefix_classes` classes before the
pipeline and the rest only when the pipeline does not accept.  These tests
hold it to the frozen up-front order in `sweep_reference`: the same report
byte for byte, whatever the prefix, the same CLI output and exit code, the
same spectrum queries on a REJECT, and the same verdict kind at every sweep
length.
"""

import contextlib
import io
import random
from fractions import Fraction
from itertools import islice

import pytest
import sweep_reference
from helpers import c08_negative, disguise_instances, nielsen_compose, nielsen_homs
from hypothesis import given, settings
from hypothesis import strategies as st
from sweep_reference import reference_reconstruct, reference_sweep_words

from mlsgraph import (Hom, IsometryCertificate, MetricGraph, ReconstructionFailure, cli,
                      compute_core, disguise, random_graph, reconstruct, rigidity,
                      spanning_tree, write_graph, write_hom)
from mlsgraph.paths import PathError

SWEEPS = range(5)

# Pinned negatives whose length-<=2 classes all pass: a disguise hom of a
# two-vertex rank-3 graph composed with Nielsen moves.  The pipeline fails
# with a spectrum-mismatch on a distinguished pair's loop, but the full
# sweep's first failing class, of length 3, is the witness.
LENGTH3_NEGATIVES = {
    "five-vertex-target": (
        ([0, 1], [(0, 0, 1, 1), (1, 1, 1, 1), (2, 0, 1, 2), (3, 0, 0, 1)]),
        ([0, 1, 2, 3, 4],
         [(0, 1, 1, 1), (1, 2, 0, Fraction(2, 3)), (2, 3, 1, Fraction(3, 4)),
          (3, 1, 4, Fraction(7, 4)), (4, 2, 2, 1), (5, 2, 3, Fraction(1, 4)),
          (6, 2, 4, Fraction(1, 4))]),
        ((-3,), (-2,), (-1,)), ((-3,), (-2,), (-1,)),
        "g1 g2 g3 (7 vs 5)"),
    "seven-vertex-target": (
        ([0, 1], [(0, 0, 1, 2), (1, 1, 0, 2), (2, 1, 0, 1), (3, 1, 1, 1)]),
        ([0, 1, 2, 3, 4, 5, 6],
         [(0, 3, 6, Fraction(5, 8)), (1, 6, 2, Fraction(1, 8)), (2, 5, 1, Fraction(5, 2)),
          (3, 0, 2, Fraction(1, 4)), (4, 1, 2, 2), (5, 1, 2, 2), (6, 4, 0, Fraction(1, 8)),
          (7, 4, 2, Fraction(5, 8)), (8, 3, 1, Fraction(1, 4))]),
        ((-1,), (-3, -1), (1, 2, -1)), ((-1,), (1, 3, -1), (1, -2)),
        "g1 g2^-1 g3 (4 vs 8)"),
}


def _build(spec1, spec2, images, inverse_images):
    g1, g2 = MetricGraph(*spec1), MetricGraph(*spec2)
    return g1, g2, Hom(spanning_tree(g1), spanning_tree(g2), images, inverse_images)


def _assert_same_reports(g1, g2, hom):
    for k in SWEEPS:
        expected = reference_reconstruct(g1, g2, hom, k).report()
        assert reconstruct(g1, g2, hom, k).report() == expected, (k, expected)


def test_disguises_match_up_front_sweep():
    for g, inst in disguise_instances(200):
        _assert_same_reports(g, inst.graph, inst.hom)


def test_negatives_match_up_front_sweep():
    for k, (g, inst) in enumerate(disguise_instances(200)):
        _assert_same_reports(g, *c08_negative(g, inst, k))


def _rank12_negatives(seed, count, workdir):
    """The benchmark's reject-cli construction: rank-12 disguises with core
    edge `k mod (core edges)` of negative k lengthened by 1/7, as files."""
    rng = random.Random(seed)
    for k in range(count):
        g = random_graph(rng.randrange(2**31), 10, 12, 10)
        inst = disguise(g, rng.randrange(2**31))
        g2p, _ = c08_negative(g, inst, k)
        argv = ["reconstruct"]
        for suffix, text in (("g1", write_graph(g)), ("g2", write_graph(g2p)),
                             ("hom", write_hom(inst.hom))):
            path = workdir / f"s{seed}-neg{k:03d}.{suffix}"
            path.write_text(text, encoding="utf-8")
            argv.append(str(path))
        yield argv


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("seed", [1, 2])
def test_rank12_cli_negatives_match_up_front_sweep(seed, tmp_path, monkeypatch):
    argvs = list(_rank12_negatives(seed, 48, tmp_path))
    actual = [_cli(argv) for argv in argvs]
    monkeypatch.setattr(cli, "reconstruct", reference_reconstruct)
    expected = [_cli(argv) for argv in argvs]
    assert actual == expected
    assert all(code == 1 for code, _ in actual)


@pytest.mark.parametrize("name", sorted(LENGTH3_NEGATIVES))
def test_tail_witness_beats_pipeline_failure(name):
    *spec, witness = LENGTH3_NEGATIVES[name]
    g1, g2, hom = _build(*spec)
    _assert_same_reports(g1, g2, hom)
    res = reconstruct(g1, g2, hom, 4)
    assert (res.code, res.detail) == ("spectrum-mismatch", witness)
    # Without the tail the pipeline's own failure, a different one, comes back.
    assert reconstruct(g1, g2, hom, 2).report() != res.report()


def _raise_path_error(*args):
    raise PathError("injected")


def test_tail_runs_before_an_escaping_exception(monkeypatch):
    *spec, witness = LENGTH3_NEGATIVES["five-vertex-target"]
    g1, g2, hom = _build(*spec)
    monkeypatch.setattr(rigidity, "branch_point_map", _raise_path_error)
    res = reconstruct(g1, g2, hom, 4)
    assert isinstance(res, ReconstructionFailure)
    assert (res.code, res.detail) == ("spectrum-mismatch", witness)
    with pytest.raises(PathError):
        reconstruct(g1, g2, hom, 2)


def test_exception_propagates_when_spectra_agree(monkeypatch):
    g, inst = disguise_instances(1)[0]
    monkeypatch.setattr(rigidity, "branch_point_map", _raise_path_error)
    with pytest.raises(PathError):
        reconstruct(g, inst.graph, inst.hom, 4)


@st.composite
def disguised_homs(draw):
    """A disguise hom on a small random graph, optionally composed with one
    elementary Nielsen move of its source."""
    vertices = draw(st.integers(1, 3))
    rank = draw(st.integers(2, 4))
    g = random_graph(draw(st.integers(0, 10**6)), vertices, rank, 2)
    inst = disguise(g, draw(st.integers(0, 10**6)))
    hom = inst.hom
    if draw(st.booleans()):
        hom = nielsen_compose(hom, draw(st.integers(1, rank)), draw(st.integers(1, rank)),
                              draw(st.sampled_from((1, -1))), draw(st.booleans()))
    return g, inst.graph, hom


@given(disguised_homs())
@settings(max_examples=60, deadline=None)
def test_verdict_kind_does_not_depend_on_sweep_len(case):
    g1, g2, hom = case
    kinds = [type(reconstruct(g1, g2, hom, k)) for k in SWEEPS]
    assert kinds == [kinds[0]] * len(kinds)


def test_accept_sweeps_only_the_prefix(monkeypatch):
    """Rank 4 with two branch points: 5 core segments, so the prefix is
    ceil(3 * 5 / 2) = 8 classes at two queries each; the 780 queries of a
    full length-4 sweep are not made once the pipeline accepts."""
    g = MetricGraph([0, 1], [(k, 0, 1, k + 1) for k in range(5)])
    inst = disguise(g, 5)
    assert inst.hom.source.rank == 4
    real = rigidity.marked_length
    calls = []

    def counting(basis, w):
        calls.append(w)
        return real(basis, w)

    monkeypatch.setattr(rigidity, "marked_length", counting)
    counts = {}
    for k in (0, 2, 4):
        calls.clear()
        assert isinstance(reconstruct(g, inst.graph, inst.hom, k), IsometryCertificate)
        counts[k] = len(calls)
    assert counts[2] - counts[0] == 16
    assert counts[4] == counts[2]


# -- the prefix ------------------------------------------------------------

@pytest.fixture(scope="module")
def prefix_cases():
    """(g1, g2, hom, reference reports at every sweep length) for c07's 200
    disguises, c08's 200 negatives, 60 Nielsen-composed disguise homs and
    both length-3 negatives."""
    instances = disguise_instances(200)
    cases = [(g, inst.graph, inst.hom) for g, inst in instances]
    cases += [(g, *c08_negative(g, inst, k)) for k, (g, inst) in enumerate(instances)]
    cases += list(nielsen_homs(instances[:60]))
    cases += [_build(*spec) for *spec, _ in LENGTH3_NEGATIVES.values()]
    return [(g1, g2, hom, [reference_reconstruct(g1, g2, hom, k).report() for k in SWEEPS])
            for g1, g2, hom in cases]


@pytest.mark.parametrize("prefix", [0, 1, 7, 10**9])
def test_verdict_does_not_depend_on_the_prefix(prefix, prefix_cases, monkeypatch):
    monkeypatch.setattr(rigidity, "_prefix_classes", lambda rank, branch_count: prefix)
    for g1, g2, hom, expected in prefix_cases:
        assert [reconstruct(g1, g2, hom, k).report() for k in SWEEPS] == expected


def _recorded_queries(monkeypatch, *modules):
    """The words of every `marked_length` call made through `modules`, in
    call order: a sweep class's source word, then its image."""
    queried = []
    real = rigidity.marked_length

    def recording(basis, w):
        queried.append(w)
        return real(basis, w)

    for module in modules:
        monkeypatch.setattr(module, "marked_length", recording)
    return queried


def test_ladder_accept_sweeps_three_halves_of_its_segments(monkeypatch):
    """The rank-64 pair of the seed-3 ladder: 37 branch points, so 100 core
    segments by Euler characteristic, and a prefix of 150 classes."""
    g = random_graph(3, 40, 64, 10)
    inst = disguise(g, 103)
    core = compute_core(g)
    assert len(core.segments) == 64 + len(core.branch_points) - 1 == 100
    queried = _recorded_queries(monkeypatch, rigidity)
    assert isinstance(reconstruct(g, inst.graph, inst.hom), IsometryCertificate)
    assert len(queried) == 2 * 150
    assert queried[::2] == list(islice(reference_sweep_words(64, 4), 150))


def test_rejects_make_the_reference_queries(monkeypatch, tmp_path):
    """On the rank-12 CLI negatives, whose witnesses lie in the prefix, and on
    the length-3 negatives, whose witnesses lie past it, the same spectrum
    queries in the same order as the up-front sweep."""
    queried = _recorded_queries(monkeypatch, rigidity, sweep_reference)

    def queries(run, *args):
        queried.clear()
        run(*args)
        return queried[:]

    for argv in _rank12_negatives(1, 48, tmp_path):
        actual = queries(_cli, argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "reconstruct", reference_reconstruct)
            assert queries(_cli, argv) == actual
    for *spec, _ in LENGTH3_NEGATIVES.values():
        g1, g2, hom = _build(*spec)
        actual = queries(reconstruct, g1, g2, hom, 4)
        assert queries(reference_reconstruct, g1, g2, hom, 4) == actual
        prefix = rigidity._prefix_classes(hom.source.rank, len(compute_core(g1).branch_points))
        assert len(actual) > 2 * prefix
