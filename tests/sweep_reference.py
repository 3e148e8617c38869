"""Frozen reference for `reconstruct`'s sweep order.

`reference_reconstruct` is `rigidity.reconstruct` as it was when the whole
spectrum sweep ran before the pipeline.  The differential tests compare the
current `reconstruct`, which checks the longer classes only after a
non-ACCEPT, against it byte for byte.  `reference_sweep_words` is the sweep's
word choice with a set of the classes already seen, which the current sweep
decides from each word alone.  Do not update it to follow the library.
"""

from dataclasses import replace

from mlsgraph.fungroup import (apply_hom, canonical_cyclic_word, cyclic_reduce_word,
                               enumerate_reduced_words, invert_word, marked_length)
from mlsgraph.graphs import GraphError, require_valid
from mlsgraph.hull import compute_core, is_circle
from mlsgraph.rigidity import (IsometryCertificate, ReconstructionFailure, RigidityError,
                               SpectrumMismatchError, branch_point_map, extend_isometry,
                               verify_induces_hom)


def reference_sweep_words(rank, max_len):
    """The words the sweep queries: the first of each conjugacy class up to
    inversion, found by keeping the canonical words of the classes seen."""
    checked = set()
    for w in enumerate_reduced_words(rank, max_len):
        key = canonical_cyclic_word(w)
        if key in checked:
            continue
        checked.add(key)
        checked.add(canonical_cyclic_word(invert_word(key)))
        yield w


def reference_sweep(basis1, basis2, hom, max_len):
    for w in reference_sweep_words(basis1.rank, max_len):
        expected = marked_length(basis1, w)
        got = marked_length(basis2, apply_hom(hom, w))
        if got != expected:
            raise SpectrumMismatchError(w, expected, got)


def reference_reconstruct(g1, g2, hom, sweep_len=4):
    require_valid(g1)
    require_valid(g2)
    if hom.source.graph is not g1 or hom.target.graph is not g2:
        raise GraphError("hom bases do not belong to the given graphs")
    try:
        if hom.inverse_images is None:
            return ReconstructionFailure("hom-not-certified", "no inverse supplied")
        if not hom.is_certified_isomorphism():
            return ReconstructionFailure("hom-not-certified",
                                         "compositions are not the identity")
        core1 = compute_core(g1)
        core2 = compute_core(g2)
        if core1.is_empty or core2.is_empty:
            which = " ".join(name for name, c in (("first", core1), ("second", core2))
                             if c.is_empty)
            return ReconstructionFailure("empty-core", f"{which} graph is contractible")
        c1 = is_circle(core1)
        c2 = is_circle(core2)
        if (c1 is None) != (c2 is None):
            return ReconstructionFailure("circle-mismatch",
                                         "exactly one core is a circle")
        if c1 is not None:
            if c1 != c2:
                return ReconstructionFailure("circle-circumference", f"{c1} vs {c2}")
            image_core, _ = cyclic_reduce_word(apply_hom(hom, (1,)))
            cert = IsometryCertificate(
                kind="circle", core1=core1, core2=core2,
                basis1=hom.source, basis2=hom.target,
                vertex_map={}, segment_map=((0, 0, image_core == (-1,)),),
                length_ledger=((c1, c2),), distance_ledger=())
            check = verify_induces_hom(cert, hom)
            if not check.ok:
                return ReconstructionFailure("induced-hom",
                                             f"generator g{check.failing_generator}")
            return replace(cert, tau=check.tau, induced_images=check.images)
        if sweep_len > 0:
            reference_sweep(hom.source, hom.target, hom, sweep_len)
        branch = branch_point_map(core1, hom.source, core2, hom.target, hom)
        cert = extend_isometry(core1, hom.source, core2, hom.target, branch)
        check = verify_induces_hom(cert, hom)
        if not check.ok:
            return ReconstructionFailure("induced-hom",
                                         f"generator g{check.failing_generator}")
        return replace(cert, tau=check.tau, induced_images=check.images)
    except RigidityError as exc:
        return ReconstructionFailure(exc.code, exc.detail)
