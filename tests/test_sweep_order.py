"""The deferred sweep tail against the up-front sweep.

`reconstruct` checks the classes of words up to length `SWEEP_PREFIX_LEN`
before the pipeline and the longer ones only when the pipeline does not
accept.  These tests hold it to the frozen up-front order in
`sweep_reference`: the same report byte for byte, the same CLI output and
exit code, and the same verdict kind at every sweep length.
"""

import contextlib
import io
import random
from fractions import Fraction

import pytest
from helpers import c08_negative, disguise_instances, nielsen_compose
from hypothesis import given, settings
from hypothesis import strategies as st
from sweep_reference import reference_reconstruct

from mlsgraph import (Hom, IsometryCertificate, MetricGraph, ReconstructionFailure, cli,
                      disguise, random_graph, reconstruct, rigidity, spanning_tree,
                      write_graph, write_hom)
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
    assert rigidity.SWEEP_PREFIX_LEN == 2
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
    """Rank 4: the classes of words up to length 2 are 20 up to inversion,
    at two queries each; the 780 queries of a full length-4 sweep are not
    made once the pipeline accepts."""
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
    assert counts[2] - counts[0] == 40
    assert counts[4] == counts[2]

