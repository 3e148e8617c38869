from fractions import Fraction

import pytest

from mlsgraph import rigidity
from mlsgraph import (Hom, IsometryCertificate, MetricGraph, ReconstructionFailure,
                      RigidityError, branch_point_map, brute_force_isometry, compute_core,
                      disguise, distinguishing_pair, extend_isometry, identity_hom,
                      marked_length, random_graph, reconstruct, recovered_length,
                      spanning_tree, transport_path, verify_induces_hom)
from mlsgraph.fungroup import apply_hom, concat_words, invert_word
from mlsgraph.graphs import DirectedEdge
from mlsgraph.paths import EdgePath, format_path, shortest_path


def spectrum_of(basis):
    return lambda w: marked_length(basis, w)


# -- distinguishing pairs --------------------------------------------------

def test_pair_theta_bridge(theta):
    core = compute_core(theta)
    basis = spanning_tree(theta)
    p = shortest_path(core.core, 0, 1)
    pair = distinguishing_pair(core, p, basis)
    assert format_path(pair.loop1) == "e0 e1^-1"
    assert format_path(pair.loop2) == "e0 e2^-1"
    assert pair.loop_lengths == (3, 4)
    assert pair.cross_length == 5
    assert marked_length(basis, pair.cross_word) == 5


def test_pair_dumbbell_bridge(dumbbell):
    core = compute_core(dumbbell)
    basis = spanning_tree(dumbbell)
    pair = distinguishing_pair(core, shortest_path(core.core, 0, 1), basis)
    assert pair.loop_lengths == (7, 7)
    assert pair.cross_length == 12
    assert marked_length(basis, pair.cross_word) == 12
    # Loops are cyclically reduced, agree exactly along p, split at both ends.
    assert pair.loop1.steps[0] == pair.loop2.steps[0]
    assert pair.loop1.steps[1] != pair.loop2.steps[1]
    assert pair.loop1.steps[-1] != pair.loop2.steps[-1]


def test_pair_dumbbell_loop_segment(dumbbell):
    core = compute_core(dumbbell)
    basis = spanning_tree(dumbbell)
    loop_seg = next(s for s in core.segments if s.is_loop and s.length == 2)
    pair = distinguishing_pair(core, loop_seg.path, basis)
    assert pair.loop1.steps == loop_seg.path.steps * 2  # the square
    assert pair.cross_length == pair.loop_lengths[0] + pair.loop_lengths[1] - 4
    assert marked_length(basis, pair.cross_word) == pair.cross_length


def test_pair_requires_branch_endpoints(theta):
    core = compute_core(theta)
    basis = spanning_tree(theta)
    sub = shortest_path(core.core, 0, 0)
    with pytest.raises(RigidityError):
        distinguishing_pair(core, sub, basis)


def test_pair_rejects_circle_core():
    g = MetricGraph([0], [(0, 0, 0, 5)])
    core = compute_core(g)
    basis = spanning_tree(g)
    with pytest.raises(RigidityError) as err:
        distinguishing_pair(core, core.segments[0].path, basis)
    assert err.value.code == "circle-case"


def test_pair_certificate_exact_on_random_cores():
    for seed in range(40):
        g = random_graph(seed, 2 + seed % 5, 1 + seed % 3, 6)
        core = compute_core(g)
        if core.is_empty or not core.branch_points:
            continue
        basis = spanning_tree(g)
        branch = sorted(core.branch_points)
        for x in branch:
            for y in branch:
                if x == y:
                    continue
                p = shortest_path(core.core, x, y)
                pair = distinguishing_pair(core, p, basis)
                l1, l2 = pair.loop_lengths
                assert marked_length(basis, pair.cross_word) == l1 + l2 - 2 * p.length
                assert recovered_length(spectrum_of(basis), identity_hom(basis),
                                        pair) == p.length


# -- transport ----------------------------------------------------------------

def test_transport_identity_dumbbell(dumbbell):
    core = compute_core(dumbbell)
    basis = spanning_tree(dumbbell)
    pair = distinguishing_pair(core, shortest_path(core.core, 0, 1), basis)
    nu = transport_path(core, basis, identity_hom(basis), pair)
    assert format_path(nu) == "e2"


def test_transport_detects_spectrum_mismatch(theta):
    perturbed = MetricGraph([0, 1],
                            [(0, 0, 1, 1), (1, 0, 1, Fraction(15, 7)), (2, 0, 1, 3)])
    core1 = compute_core(theta)
    b1, b2 = spanning_tree(theta), spanning_tree(perturbed)
    hom = Hom(b1, b2, ((1,), (2,)), ((1,), (2,)))
    pair = distinguishing_pair(core1, shortest_path(core1.core, 0, 1), b1)
    with pytest.raises(RigidityError) as err:
        transport_path(compute_core(perturbed), b2, hom, pair)
    assert err.value.code == "spectrum-mismatch"


def test_transport_pair_independence(pendant_theta):
    g = pendant_theta
    core = compute_core(g)
    basis = spanning_tree(g)
    p = shortest_path(core.core, 1, 2)
    pair0 = distinguishing_pair(core, p, basis, variant=0)
    pair1 = distinguishing_pair(core, p, basis, variant=1)
    assert (pair0.loop1, pair0.loop2) != (pair1.loop1, pair1.loop2)
    hom = identity_hom(basis)
    nu0 = transport_path(core, basis, hom, pair0)
    nu1 = transport_path(core, basis, hom, pair1)
    assert nu0 == nu1


# -- branch map and certificates ------------------------------------------------

def test_branch_map_identity(theta):
    core = compute_core(theta)
    basis = spanning_tree(theta)
    match = branch_point_map(core, basis, core, basis, identity_hom(basis))
    assert match.forward == {0: 0, 1: 1}
    assert match.backward == {0: 0, 1: 1}
    assert [(nu.start, nu.steps) for nu in match.images] == \
        [(seg.x, seg.path.steps) for seg in core.segments]
    assert match.distance_ledger[0][2] == match.distance_ledger[0][3] == 1


def test_reconstruct_transports_each_segment_once(monkeypatch):
    g = random_graph(4, 6, 5, 9)
    inst = disguise(g, 4)
    core1 = compute_core(g)
    assert len(core1.branch_points) >= 2
    calls = []

    def counted(*args):
        calls.append(args[-1].path.steps)
        return transport_path(*args)

    monkeypatch.setattr(rigidity, "transport_path", counted)
    cert = reconstruct(g, inst.graph, inst.hom, sweep_len=0)
    assert isinstance(cert, IsometryCertificate), cert
    assert cert.vertex_map == inst.branch_map
    assert calls == [seg.path.steps for seg in core1.segments]


def test_reconstruct_identity_certificates(theta, dumbbell, pendant_theta):
    for g in (theta, dumbbell, pendant_theta):
        cert = reconstruct(g, g, identity_hom(spanning_tree(g)))
        assert isinstance(cert, IsometryCertificate)
        assert cert.segment_map == tuple((i, i, False) for i in range(len(cert.segment_map)))
        assert all(a == b for a, b in cert.length_ledger)
        assert cert.tau == ()
        assert "verdict ACCEPT" in cert.report()


def test_reconstruct_rejects_uncertified_hom(theta):
    b = spanning_tree(theta)
    res = reconstruct(theta, theta, Hom(b, b, ((1,), (2,))))
    assert isinstance(res, ReconstructionFailure)
    assert res.code == "hom-not-certified"


def test_reconstruct_rejects_contractible():
    g = MetricGraph([0, 1], [(0, 0, 1, 1)])
    b = spanning_tree(g)
    res = reconstruct(g, g, Hom(b, b, (), ()))
    assert isinstance(res, ReconstructionFailure)
    assert res.code == "empty-core"


def test_reconstruct_circle_pair_accepts():
    c1 = MetricGraph([0, 1, 2, 3],
                     [(0, 0, 1, 1), (1, 1, 2, 2), (2, 2, 3, 3), (3, 3, 0, 4)], name="sq")
    c2 = MetricGraph([0, 1], [(0, 0, 1, 5), (1, 1, 0, 5)], name="bigon")
    hom = Hom(spanning_tree(c1), spanning_tree(c2), ((1,),), ((1,),))
    cert = reconstruct(c1, c2, hom)
    assert isinstance(cert, IsometryCertificate)
    assert cert.kind == "circle"
    assert cert.length_ledger == ((10, 10),)


def test_reconstruct_circle_unequal_rejects():
    c1 = MetricGraph([0], [(0, 0, 0, 10)])
    c2 = MetricGraph([0], [(0, 0, 0, Fraction(21, 2))])
    hom = Hom(spanning_tree(c1), spanning_tree(c2), ((1,),), ((1,),))
    res = reconstruct(c1, c2, hom)
    assert isinstance(res, ReconstructionFailure)
    assert res.code == "circle-circumference"


def test_reconstruct_circle_vs_branching(theta):
    c = MetricGraph([0], [(0, 0, 0, 5)])
    b1, b2 = spanning_tree(theta), spanning_tree(c)
    hom = Hom(b1, b2, ((1,), (1,)), ((1,),))
    res = reconstruct(theta, c, hom)
    assert isinstance(res, ReconstructionFailure)
    assert res.code in ("hom-not-certified", "circle-mismatch")


def test_reconstruct_theta_vs_dumbbell_all_short_homs(theta, dumbbell):
    """Same segment length multiset, different incidence: every candidate
    hom with generator images of length <= 2 is rejected."""
    b1, b2 = spanning_tree(theta), spanning_tree(dumbbell)
    from mlsgraph.fungroup import enumerate_reduced_words
    words = [w for w in enumerate_reduced_words(2, 2)]
    accepted = []
    for im1 in words:
        for im2 in words:
            for inv1 in words:
                for inv2 in words:
                    hom = Hom(b1, b2, (im1, im2), (inv1, inv2))
                    if not hom.is_certified_isomorphism():
                        continue
                    res = reconstruct(theta, dumbbell, hom, sweep_len=2)
                    if isinstance(res, IsometryCertificate):
                        accepted.append(hom)
    assert not accepted


def test_reconstruct_perturbed_core_edge(theta):
    inst = disguise(theta, 5)
    g2 = inst.graph
    core_edge = min(compute_core(g2).core.edge_ids)
    rows = [(eid, rec.u, rec.v,
             rec.length + (Fraction(1, 7) if eid == core_edge else 0))
            for eid, rec in g2.edges_sorted()]
    g2p = MetricGraph(g2.vertex_ids, rows, name="perturbed")
    hom = Hom(spanning_tree(theta), spanning_tree(g2p),
              inst.hom.images, inst.hom.inverse_images)
    res = reconstruct(theta, g2p, hom)
    assert isinstance(res, ReconstructionFailure)
    assert res.code == "spectrum-mismatch"
    assert res.detail  # names a concrete word


def test_reconstruct_symmetry(pendant_theta):
    for seed in (1, 2, 3):
        inst = disguise(pendant_theta, seed)
        fwd = reconstruct(pendant_theta, inst.graph, inst.hom)
        bwd = reconstruct(inst.graph, pendant_theta, inst.hom.inverse())
        assert isinstance(fwd, IsometryCertificate)
        assert isinstance(bwd, IsometryCertificate)
        assert {v: k for k, v in fwd.vertex_map.items()} == bwd.vertex_map


def test_accepted_certificates_confirmed_by_oracle(dumbbell):
    for seed in (2, 4, 6):
        inst = disguise(dumbbell, seed)
        res = reconstruct(dumbbell, inst.graph, inst.hom)
        assert isinstance(res, IsometryCertificate)
        witness = brute_force_isometry(compute_core(dumbbell).core,
                                       compute_core(inst.graph).core)
        assert witness is not None


# -- induced hom verification -----------------------------------------------

def test_verify_with_recorded_tau(pendant_theta):
    inst = disguise(pendant_theta, 7)
    cert = reconstruct(pendant_theta, inst.graph, inst.hom)
    assert isinstance(cert, IsometryCertificate)
    check = verify_induces_hom(cert, inst.hom, tau=inst.tau)
    assert check.ok and check.tau == inst.tau


def test_verify_accepts_twisted_hom(dumbbell):
    """Composing with an inner automorphism must not change acceptance,
    only the conjugating word."""
    inst = disguise(dumbbell, 3)
    w = (2, -1)
    wi = invert_word(w)
    images = tuple(concat_words(w, im, wi) for im in inst.hom.images)
    inverse = tuple(apply_hom(inst.hom.inverse(), concat_words(wi, (k,), w))
                    for k in range(1, inst.hom.target.rank + 1))
    twisted = Hom(inst.hom.source, inst.hom.target, images, inverse)
    assert twisted.is_certified_isomorphism()
    cert = reconstruct(dumbbell, inst.graph, twisted)
    assert isinstance(cert, IsometryCertificate)
    assert cert.tau != ()


def test_verify_detects_corrupted_certificate(dumbbell):
    inst = disguise(dumbbell, 8)
    cert = reconstruct(dumbbell, inst.graph, inst.hom)
    assert isinstance(cert, IsometryCertificate)
    # Flip one orientation flag in the segment correspondence.
    flip_at = next(i for i, (_, j, _f) in enumerate(cert.segment_map)
                   if not cert.core2.segments[j].is_loop or True)
    broken_map = tuple((i, j, (not f) if idx == flip_at else f)
                       for idx, (i, j, f) in enumerate(cert.segment_map))
    broken = IsometryCertificate(
        kind=cert.kind, core1=cert.core1, core2=cert.core2,
        basis1=cert.basis1, basis2=cert.basis2, vertex_map=cert.vertex_map,
        segment_map=broken_map, length_ledger=cert.length_ledger,
        distance_ledger=cert.distance_ledger)
    check = verify_induces_hom(broken, inst.hom)
    assert not check.ok
    assert check.failing_generator is not None


def test_extend_isometry_matches_and_codes(theta):
    core, basis = compute_core(theta), spanning_tree(theta)
    paths = [seg.path for seg in core.segments]  # e0, e1, e2: lengths 1, 2, 3
    off_segment = EdgePath(core.core, 0, (DirectedEdge(0), DirectedEdge(1, True),
                                          DirectedEdge(0)))

    def extend(images, core1=core, core2=core):
        branch = rigidity.BranchMatch({0: 0, 1: 1}, {0: 0, 1: 1}, (), tuple(images))
        return extend_isometry(core1, basis, core2, basis, branch)

    assert extend(paths).segment_map == ((0, 0, False), (1, 1, False), (2, 2, False))
    assert extend([p.reverse() for p in paths]).segment_map == \
        ((0, 0, True), (1, 1, True), (2, 2, True))
    cert = extend([paths[1], paths[2].reverse(), paths[0]])
    assert cert.segment_map == ((0, 1, False), (1, 2, True), (2, 0, False))
    assert cert.length_ledger == ((1, 2), (2, 3), (3, 1))

    def code(*args, **kwargs):
        with pytest.raises(RigidityError) as err:
            extend(*args, **kwargs)
        return str(err.value)

    assert code([paths[0], paths[0], paths[2]]) == \
        "segment-unmatched: target segment 0 matched twice"
    assert code([off_segment, paths[1], paths[2]]) == \
        "segment-unmatched: segment 0 has no matching target segment"
    longer = MetricGraph([0, 1], [(0, 0, 1, 1), (1, 0, 1, 2), (2, 0, 1, 5)])
    assert code(paths[:2] + [off_segment], core1=compute_core(longer)) == \
        "segment-length: no target segment of length 5 for segment 2"
    four = MetricGraph([0, 1], [(0, 0, 1, 1), (1, 0, 1, 2), (2, 0, 1, 3), (3, 0, 1, 4)])
    assert code(paths, core2=compute_core(four)) == \
        "segment-unmatched: target segments left unmatched"


def test_certificate_report_format(dumbbell):
    inst = disguise(dumbbell, 1)
    cert = reconstruct(dumbbell, inst.graph, inst.hom)
    assert isinstance(cert, IsometryCertificate)
    lines = cert.report().splitlines()
    assert any(line.startswith("branch ") for line in lines)
    assert any(line.startswith("segment ") for line in lines)
    assert any(line.startswith("tau ") for line in lines)
    assert lines[-1] == "verdict ACCEPT"


def test_failure_report_format():
    failure = ReconstructionFailure("spectrum-mismatch", "g1")
    assert failure.report() == "verdict REJECT spectrum-mismatch g1\n"


def test_reconstruct_rejects_same_shape_different_lengths():
    """Identical combinatorics, one different edge length: the identity hom
    is a certified isomorphism but not spectrum preserving."""
    a = MetricGraph([0, 1], [(0, 0, 1, 1), (1, 0, 1, 2), (2, 0, 1, 3)])
    b = MetricGraph([0, 1], [(0, 0, 1, 1), (1, 0, 1, 2), (2, 0, 1, 4)])
    hom = Hom(spanning_tree(a), spanning_tree(b), ((1,), (2,)), ((1,), (2,)))
    res = reconstruct(a, b, hom)
    assert isinstance(res, ReconstructionFailure)
    assert res.code == "spectrum-mismatch"
    res_nosweep = reconstruct(a, b, hom, sweep_len=0)
    assert isinstance(res_nosweep, ReconstructionFailure)


def test_spectrum_sweep_queries_each_class_once(monkeypatch):
    """Rank 4, words up to length 4: 3,200 reduced words fall into 390
    conjugacy classes up to inversion, and each class costs two queries."""
    g = MetricGraph([0, 1], [(k, 0, 1, k + 1) for k in range(5)])
    b = spanning_tree(g)
    assert b.rank == 4
    queried = []
    real = rigidity.marked_length

    def counting(basis, w):
        queried.append(w)
        return real(basis, w)

    monkeypatch.setattr(rigidity, "marked_length", counting)
    rigidity._spectrum_sweep(b, b, identity_hom(b), 4)
    assert len(queried) == 780


def test_reconstruct_rejects_non_preserving_self_iso(theta):
    """The swap automorphism of the theta graph's group is a certified
    isomorphism, but it sends the length-3 class to the length-4 class."""
    b = spanning_tree(theta)
    swap = Hom(b, b, ((2,), (1,)), ((2,), (1,)))
    assert swap.is_certified_isomorphism()
    res = reconstruct(theta, theta, swap)
    assert isinstance(res, ReconstructionFailure)
    assert res.code == "spectrum-mismatch"
    res = reconstruct(theta, theta, swap, sweep_len=0)
    assert isinstance(res, ReconstructionFailure)
