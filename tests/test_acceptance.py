"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS line with its
runtime and enforces the stated bound.  Every comparison is exact rational
equality.  Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

from helpers import (c08_negative, disguise_instances, insert_cancelling_pairs,
                     random_reduced_path)

from mlsgraph import (Hom, IsometryCertificate, MetricGraph, ReconstructionFailure,
                      brute_force_isometry, compute_core, core_loop_union_agrees, disguise,
                      distinguishing_pair, identity_hom, marked_length, random_graph,
                      reconstruct, recovered_length, retraction_check, spanning_tree,
                      spectra_agree_up_to, transport_path, verify_induces_hom)
from mlsgraph.fungroup import (apply_hom, concat_words, enumerate_reduced_words, format_word,
                               invert_word, word_power)
from mlsgraph.hull import _retracts_onto
from mlsgraph.paths import concat_reduce, is_reduced, reduce_path, shortest_path
from mlsgraph.rigidity import RigidityError


def _report(number, label, t0, bound):
    elapsed = time.perf_counter() - t0
    print(f"criterion {number:02d} PASS {label} ({elapsed:.1f}s < {bound:.0f}s)")
    assert elapsed < bound, f"criterion {number} exceeded its {bound}s budget"


def _connected_multigraphs(max_vertices=4, max_edges=7):
    """All connected multigraphs on a labeled vertex set of size <= 4 with
    <= 7 edges (lengths cycle through 1,2,3)."""
    for v in range(1, max_vertices + 1):
        slots = [(i, j) for i in range(v) for j in range(i, v)]
        for m in range(0, max_edges + 1):
            if m < v - 1:
                continue
            for combo in combinations_with_replacement(slots, m):
                rows = [(k, a, b, 1 + k % 3) for k, (a, b) in enumerate(combo)]
                g = MetricGraph(range(v), rows)
                if g.is_connected():
                    yield g


def _random_corpus(count, seed0=0, max_vertices=7, max_extra=3):
    out = []
    seed = seed0
    while len(out) < count:
        out.append(random_graph(seed, 2 + seed % (max_vertices - 1),
                                1 + seed % max_extra, 6))
        seed += 1
    return out


def test_c01_reduction_uniqueness():
    t0 = time.perf_counter()
    rng = random.Random(101)
    done = 0
    while done < 1000:
        g = random_graph(rng.randint(0, 10_000), 2 + done % 7, done % 4, 5)
        if len(g.edge_ids) > 20:
            continue
        p = random_reduced_path(rng, g, 14)
        blown = insert_cancelling_pairs(rng, p, rng.randint(0, 10))
        assert reduce_path(blown) == p
        done += 1
    _report(1, "reduction uniqueness under re-expansion", t0, 5.0)


def test_c02_concatenation_decomposition():
    t0 = time.perf_counter()
    rng = random.Random(202)
    done = 0
    while done < 1000:
        g = random_graph(rng.randint(0, 10_000), 2 + done % 6, 1 + done % 3, 5)
        p1 = random_reduced_path(rng, g, 10)
        p2 = random_reduced_path(rng, g, 10, start=p1.end)
        d = concat_reduce(p1, p2)
        assert d.q1.then(d.r) == p1
        assert d.r.reverse().then(d.q2) == p2
        assert is_reduced(d.q1.then(d.q2))
        done += 1
    _report(2, "concatenation decomposition roundtrip", t0, 5.0)


def test_c03_spectrum_function_laws():
    t0 = time.perf_counter()
    fixtures = [
        MetricGraph([0, 1, 2], [(0, 0, 1, 2), (1, 1, 2, 3), (2, 2, 0, Fraction(7, 2))]),
        MetricGraph([0, 1], [(0, 0, 1, 1), (1, 0, 1, 2), (2, 0, 1, 3)]),
        MetricGraph([0, 1], [(0, 0, 0, 2), (1, 1, 1, 3), (2, 0, 1, 1)]),
        MetricGraph([0, 1], [(0, 0, 1, 1), (1, 0, 1, 2), (2, 0, 1, 3), (3, 0, 1, Fraction(9, 2))]),
    ]
    for g in fixtures:
        basis = spanning_tree(g)
        assert basis.rank <= 3
        conjugators = list(enumerate_reduced_words(basis.rank, 2))
        for w in enumerate_reduced_words(basis.rank, 5):
            base = marked_length(basis, w)
            assert base > 0
            assert marked_length(basis, invert_word(w)) == base
            for n in (2, 3, 4):
                assert marked_length(basis, word_power(w, n)) == n * base
            for u in conjugators:
                assert marked_length(basis, concat_words(u, w, invert_word(u))) == base
    _report(3, "spectrum laws (conjugation, inversion, homogeneity)", t0, 60.0)


def test_c04_core_equals_loop_union():
    t0 = time.perf_counter()
    count = 0
    for g in _connected_multigraphs():
        assert core_loop_union_agrees(g)
        assert compute_core(g).is_empty == g.is_tree()
        count += 1
    for g in _random_corpus(200, seed0=400):
        assert core_loop_union_agrees(g)
        assert compute_core(g).is_empty == g.is_tree()
        count += 1
    _report(4, f"core equals loop union on {count} graphs", t0, 60.0)


def test_c05_structure_theory():
    t0 = time.perf_counter()
    for g in list(_connected_multigraphs()) + _random_corpus(200, seed0=500):
        d = compute_core(g)
        for tree, attach_at in d.complement:
            assert tree.is_tree()
            assert tree.vertex_ids & d.core.vertex_ids == {attach_at}
        if d.is_empty:
            continue
        dd = compute_core(d.core)
        assert set(dd.core.edge_ids) == set(d.core.edge_ids)
        core_edges = set(d.core.edge_ids)
        edges = sorted(g.edge_ids)
        if len(edges) > 7 or len(g.vertex_ids) > 4:
            continue  # minimality sweep runs on the exhaustive family
        for mask in range(1, 1 << len(edges)):
            chosen = [edges[i] for i in range(len(edges)) if mask >> i & 1]
            sub_v: set = set()
            for e in chosen:
                rec = g.edge(e)
                sub_v.update((rec.u, rec.v))
            sub = g.subgraph(chosen)
            if not sub.is_connected():
                continue
            if _retracts_onto(g, sub_v, set(chosen)):
                assert core_edges <= set(chosen)
        assert retraction_check(g, g.subgraph(core_edges))
    _report(5, "complement trees, idempotence, core minimality", t0, 60.0)


def test_c06_distinguishing_formula_exactness():
    t0 = time.perf_counter()
    cores_checked = 0
    pairs_checked = 0
    seed = 0
    while cores_checked < 200:
        seed += 1
        g = random_graph(seed, 2 + seed % 6, 1 + seed % 3, 6)
        core = compute_core(g)
        if core.is_empty or len(core.branch_points) < 2:
            continue
        basis = spanning_tree(g)
        l_self = lambda w: marked_length(basis, w)
        branch = sorted(core.branch_points)
        for x in branch:
            for y in branch:
                if x == y:
                    continue
                p = shortest_path(core.core, x, y)
                pair = distinguishing_pair(core, p, basis)
                l1, l2 = pair.loop_lengths
                assert marked_length(basis, pair.cross_word) == l1 + l2 - 2 * p.length
                assert recovered_length(l_self, identity_hom(basis), pair) == p.length
                pairs_checked += 1
        cores_checked += 1
    _report(6, f"distinguishing formula exact on {pairs_checked} pairs", t0, 30.0)


def test_c07_round_trip_rigidity():
    t0 = time.perf_counter()
    instances = disguise_instances(200)
    for g, inst in instances:
        cert = reconstruct(g, inst.graph, inst.hom)
        assert isinstance(cert, IsometryCertificate), cert
        assert cert.vertex_map == inst.branch_map
        check = verify_induces_hom(cert, inst.hom, tau=inst.tau)
        assert check.ok
        witness = brute_force_isometry(compute_core(g).core,
                                       compute_core(inst.graph).core)
        assert witness is not None
    _report(7, "round-trip rigidity on 200 disguises", t0, 120.0)


def test_c08_negative_instances():
    t0 = time.perf_counter()
    instances = disguise_instances(200)
    for k, (g, inst) in enumerate(instances):
        g2p, hom = c08_negative(g, inst, k)
        res = reconstruct(g, g2p, hom)
        assert isinstance(res, ReconstructionFailure)
        assert res.code
        b1, b2p = hom.source, hom.target
        counterexample = spectra_agree_up_to(b1, b2p, hom, 4)
        assert counterexample is not None
        assert marked_length(b1, counterexample) != \
            marked_length(b2p, apply_hom(hom, counterexample))
        if res.code == "spectrum-mismatch":
            assert res.detail.startswith(format_word(counterexample) + " (")
    _report(8, "negative instances rejected with witnesses", t0, 120.0)


def test_c09_circle_case():
    t0 = time.perf_counter()
    c1 = MetricGraph([0, 1, 2], [(0, 0, 1, 2), (1, 1, 2, 3), (2, 2, 0, 5)], name="tri")
    c2 = MetricGraph([0, 1, 2, 3],
                     [(0, 0, 1, 1), (1, 1, 2, 4), (2, 2, 3, Fraction(5, 2)),
                      (3, 3, 0, Fraction(5, 2))], name="quad")
    hom = Hom(spanning_tree(c1), spanning_tree(c2), ((1,),), ((1,),))
    cert = reconstruct(c1, c2, hom)
    assert isinstance(cert, IsometryCertificate) and cert.kind == "circle"
    assert cert.length_ledger == ((10, 10),)

    c3 = MetricGraph([0], [(0, 0, 0, Fraction(71, 7))], name="off")
    hom3 = Hom(spanning_tree(c1), spanning_tree(c3), ((1,),), ((1,),))
    res = reconstruct(c1, c3, hom3)
    assert isinstance(res, ReconstructionFailure)
    assert res.code == "circle-circumference"
    _report(9, "circle case accepted/rejected by circumference", t0, 1.0)


def test_c10_transport_independence_and_distributivity():
    t0 = time.perf_counter()
    independence = 0
    distributivity = 0
    seed = 0
    instances = 0
    while instances < 100:
        seed += 1
        g = random_graph(seed, 2 + seed % 5, 1 + seed % 3, 5)
        core = compute_core(g)
        if core.is_empty or not core.branch_points:
            continue
        inst = disguise(g, seed + 3_000)
        basis = inst.hom.source
        core2 = compute_core(inst.graph)
        target = inst.hom.target
        instances += 1
        for seg in core.segments:
            try:
                pair0 = distinguishing_pair(core, seg.path, basis, variant=0)
                pair1 = distinguishing_pair(core, seg.path, basis, variant=1)
            except RigidityError as err:
                if err.code == "no-distinguishing-pair":
                    continue
                raise
            if (pair0.loop1, pair0.loop2) == (pair1.loop1, pair1.loop2):
                continue
            nu0 = transport_path(core2, target, inst.hom, pair0)
            nu1 = transport_path(core2, target, inst.hom, pair1)
            assert (nu0.start, nu0.steps) == (nu1.start, nu1.steps)
            independence += 1
        for s1 in core.segments:
            for s2 in core.segments:
                p1, p2 = s1.path, s2.path
                if (p1.end != p2.start or p1.is_closed() or p2.is_closed()):
                    continue
                joint = p1.then(p2)
                if (not is_reduced(joint) or joint.is_closed()):
                    continue
                try:
                    pj = distinguishing_pair(core, joint, basis)
                except RigidityError:
                    continue
                nuj = transport_path(core2, target, inst.hom, pj)
                nu1 = transport_path(core2, target, inst.hom,
                                     distinguishing_pair(core, p1, basis))
                nu2 = transport_path(core2, target, inst.hom,
                                     distinguishing_pair(core, p2, basis))
                assert nuj.start == nu1.start
                assert nuj.steps == nu1.steps + nu2.steps
                distributivity += 1
    assert independence > 0 and distributivity > 0
    _report(10, f"transport independence ({independence}) and "
                f"distributivity ({distributivity})", t0, 60.0)
