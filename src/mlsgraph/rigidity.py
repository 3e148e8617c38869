"""Certified isometry reconstruction from a length-preserving isomorphism.

Given two graphs and an isomorphism of their fundamental groups that
preserves the marked length spectrum, this module rebuilds an explicit
isometry between their cores and emits a certificate in which every claim
is an exact rational identity:

  * a distinguished path (between branch points, or a loop segment at one)
    is paired with two loops that agree exactly along it and separate at
    both ends, so its length is recoverable from three spectrum values
    (the loops close up along least shortest reduced routes, all read off
    one breadth-first tree of non-backtracking steps per first step, and
    satisfy the recovery identity by construction);
  * transporting the pair through the isomorphism and intersecting the
    image loops recovers the corresponding path in the target core;
  * doing this once for every core segment matches up the segments, and
    the endpoints of their images match up the branch points; reading the
    matched segments back as words verifies that the isometry induces the
    given isomorphism up to one conjugating word.

Any failed identity aborts the pipeline with a structured failure naming
the witness, so a rejection is as auditable as an acceptance.
"""

from __future__ import annotations

from collections import deque
from copy import copy
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice, tee
from typing import Iterator

from .fungroup import (Basis, Hom, Word, apply_hom, concat_words, cyclic_reduce_word,
                       enumerate_reduced_words, format_word, invert_word, loop_class_word,
                       marked_length, word_to_loop)
from .graphs import DirectedEdge, GraphError, MetricGraph, _decode, require_valid
from .hull import CoreDecomposition, compute_core, is_circle
from .paths import (EdgePath, PathError, _reversed_steps, _trimmed_ends, cyclic_reduce_based,
                    format_path, is_reduced, least_rotation, least_rotation_start, map_chains,
                    reduce_steps, shortest_path)


class RigidityError(ValueError):
    """Pipeline step failure with a stable machine-readable code."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail


class SpectrumMismatchError(RigidityError):
    """A queried word violates l2(hom(w)) == l1(w)."""

    def __init__(self, word: Word, l1: Fraction, l2: Fraction):
        super().__init__("spectrum-mismatch", f"{format_word(word)} ({l1} vs {l2})")
        self.word = word
        self.l1 = l1
        self.l2 = l2


@dataclass(frozen=True)
class ReconstructionFailure:
    code: str
    detail: str = ""

    def report(self) -> str:
        tail = f" {self.detail}" if self.detail else ""
        return f"verdict REJECT {self.code}{tail}\n"


# -- distinguished pairs ------------------------------------------------

@dataclass(frozen=True)
class DistinguishedPair:
    """A path with two loops agreeing exactly along it.

    Both loops are cyclically reduced based loops at the path's start; they
    diverge immediately after the path and arrive back through distinct
    final steps, which makes the recovery identity

        l(cross class) = l(loop1) + l(loop2) - 2 l(path)

    hold with exact equality by construction (see `distinguishing_pair`).
    `cross_length` is its right-hand side, which `transport_path` checks
    against the cross word's length in the target.
    """

    path: EdgePath
    loop1: EdgePath
    loop2: EdgePath
    word1: Word
    word2: Word
    frame: tuple

    @property
    def cross_word(self) -> Word:
        return concat_words(invert_word(self.word1), self.word2)

    @property
    def path_length(self) -> Fraction:
        return self.path.length

    @property
    def loop_lengths(self) -> tuple[Fraction, Fraction]:
        return self.loop1.length, self.loop2.length

    @property
    def cross_length(self) -> Fraction:
        return self.loop1.length + self.loop2.length - 2 * self.path.length

    def scaled_lengths(self) -> tuple[int, int, int, int]:
        """l(path), l(loop1), l(loop2) and `cross_length`, each summed once
        as an int: times the length scale of the graph the pair lives on."""
        scaled = self.path.graph._scaled
        p, a, b = (sum(scaled[e] for e, _ in q.steps) for q in (self.path, self.loop1, self.loop2))
        return p, a, b, a + b - 2 * p


def _frames(core: MetricGraph, firsts, lasts) -> Iterator[tuple]:
    """Yield (d, a, route) for every first step d and last step a, in that
    order, where route is the least shortest reduced route from d to a; pairs
    that no route joins are left out.

    The routes from d are read off one breadth-first tree over the step
    table's codes, which maps every code reached to the one before it; only
    the routes yielded are decoded.  As every step costs 1 and successors
    come in sorted order, each state is first reached along its
    lexicographically least shortest route.  The tree is started only when a
    frame from d is asked for, and grown only until the wanted a is reached
    or its queue is empty; BFS reaches states in a fixed order, so a tree
    stopped early holds the same parent pointers."""
    succ = core._step_table[3]
    lasts = [(a, 2 * a[0] + a[1]) for a in lasts]
    for d in firsts:
        queue = deque([2 * d[0] + d[1]])
        parent: dict[int, int | None] = {queue[0]: None}
        for a, code in lasts:
            while code not in parent and queue:
                state = queue.popleft()
                for nxt in succ[state]:
                    if nxt not in parent:
                        parent[nxt] = state
                        queue.append(nxt)
            if code not in parent:
                continue
            route = [code]
            while parent[route[-1]] is not None:
                route.append(parent[route[-1]])
            yield d, a, tuple(map(_decode, reversed(route)))


def _pair_candidates(core: CoreDecomposition, p: EdgePath):
    """Yield (steps1, steps2, frame) triples in deterministic order: the step
    tuples of two loops at `p.start` that run along `p` and then separate.

    A loop is `p` then a frame's route from a first step d that does not
    backtrack along `p` to a last step a that does not backtrack into it.
    A loop segment pairs its square with each frame; an arc pairs two frames
    with distinct d and distinct a.  Its loops read copies of one tee per
    first step, never advanced, so each d's tree grows only as far as some
    copy has got, and the second loop skips the first loop's d outright."""
    cg = core.core
    x, y = p.start, p.end
    first_p, last_p = p.steps[0], p.steps[-1]
    into_x = sorted(s.reverse() for s in cg.out_steps(x))

    if p.is_closed():
        square = p.steps + p.steps
        firsts = [d for d in cg.out_steps(x) if d not in (last_p.reverse(), first_p)]
        lasts = [a for a in into_x if a not in (first_p.reverse(), last_p)]
        for d, a, route in _frames(cg, firsts, lasts):
            yield square, p.steps + route, ("loop", d, a)
        return

    outs_y = [d for d in cg.out_steps(y) if d != last_p.reverse()]
    ins_x = [a for a in into_x if a != first_p.reverse()]
    trees = [tee(_frames(cg, (d,), ins_x), 1)[0] for d in outs_y]
    for i, frames1 in enumerate(trees):
        for d1, a1, r1 in copy(frames1):
            loop1 = p.steps + r1
            for frames2 in trees[:i] + trees[i + 1:]:
                for d2, a2, r2 in copy(frames2):
                    if a1 != a2:
                        yield loop1, p.steps + r2, ("arc", (d1, a1), (d2, a2))


def distinguishing_pair(core: CoreDecomposition, p: EdgePath, basis: Basis,
                        variant: int = 0) -> DistinguishedPair:
    """Construct a distinguishing pair for a path in the core.

    `p` must be reduced, supported in the core, and either join two branch
    points or be a cyclically reduced loop segment based at one.  The loops
    are built on `basis.graph`, which must be `core.graph`.  Extension
    steps are chosen deterministically (least directed edge first); `variant`
    selects later constructions for independence tests.

    Every candidate is a pair of cyclically reduced loops whose cross loop
    loop1^-1 loop2 reduces to a cyclically reduced loop of length
    l(loop1) + l(loop2) - 2 l(p), so none needs checking:

      * arc: loop_i = p r_i, where r_i is a non-backtracking route from a
        first step d_i != last_p^-1 to a last step a_i != first_p^-1.  The
        cross loop reduces to r1^-1 r2, which is cyclically reduced because
        d1 != d2 and a1 != a2;
      * loop segment: the loops are p p (cyclically reduced as
        last_p != first_p^-1) and p r, with r from d to a as above.  The
        cross loop reduces to p^-1 r, which is cyclically reduced because
        d != first_p and a != last_p.

    The target side checks all three transported spectrum values.
    """
    if not core.branch_points:
        raise RigidityError("circle-case", "core has no branch points")
    if p.is_empty():
        raise RigidityError("bad-path", "empty distinguished path")
    if not p.support() <= core.core.edge_ids:
        raise RigidityError("bad-path", "path leaves the core")
    if not is_reduced(p):
        raise RigidityError("bad-path", "path is not reduced")
    if p.is_closed():
        if p.start not in core.branch_points:
            raise RigidityError("bad-path", "loop segment is not based at a branch point")
        if p.steps[-1] == p.steps[0].reverse():
            raise RigidityError("bad-path", "loop segment is not cyclically reduced")
    elif p.start not in core.branch_points or p.end not in core.branch_points:
        raise RigidityError("bad-path", "path endpoints are not branch points")

    candidate = next(islice(_pair_candidates(core, p), max(variant, 0), None), None)
    if candidate is None:
        raise RigidityError("no-distinguishing-pair",
                            f"no verified pair for path {format_path(p)} (variant {variant})")
    gamma1, gamma2 = (EdgePath._chained(basis.graph, p.start, steps) for steps in candidate[:2])
    return DistinguishedPair(p, gamma1, gamma2, loop_class_word(basis, gamma1),
                             loop_class_word(basis, gamma2), frame=candidate[2])


def recovered_length(l2, hom: Hom, pair: DistinguishedPair) -> Fraction:
    """Length of the pair's path as seen through target spectrum queries only."""
    a = l2(apply_hom(hom, pair.word1))
    b = l2(apply_hom(hom, pair.word2))
    c = l2(apply_hom(hom, pair.cross_word))
    return (a + b - c) / 2


# -- transporting distinguished paths -----------------------------------

def _check_spectrum(w: Word, n1: int, d1: int, n2: int, d2: int) -> None:
    """Raise SpectrumMismatchError unless l1 = n1/d1 equals l2 = n2/d2, by
    cross-multiplication: the sweep passes each exact length's ratio, and
    `transport_path` lengths scaled to ints by each graph's length scale."""
    if n1 * d2 != n2 * d1:
        raise SpectrumMismatchError(w, Fraction(n1, d1), Fraction(n2, d2))


def _common_run(a, b) -> int:
    """Length of the longest common prefix of two step sequences."""
    return next((k for k, (s, t) in enumerate(zip(a, b)) if s != t), min(len(a), len(b)))


def transport_path(core2: CoreDecomposition, basis2: Basis, hom: Hom,
                   pair: DistinguishedPair) -> EdgePath:
    """Image of a distinguished path under the spectrum-preserving isomorphism.

    Realizes the two image loops in the target and aligns their basepoints
    via the conjugator containment property: conjugated by the remainder of
    the longer conjugator, the other loop reduces to its rotation starting
    where the anchor does iff the remainder runs along it (either way, any
    number of times round), and to a longer loop otherwise.  The image path
    is the common subpath of the aligned loops around the shared basepoint:
    the maximal common terminal run into it followed by the maximal common
    initial run out of it (either may be empty, since the basepoint may land
    anywhere on the image path).  Its length must equal the recovered length.

    The three spectrum values are read off the image loops: the cyclically
    reduced cores of loop1, loop2 and loop1^-1 loop2 (the cross word's loop).
    Both image loops are reduced, so the cross loop reduces to
    rev(loop1[k:]) loop2[k:], for k the length of their common prefix, and
    only its ends can still cancel.  All four lengths are read as scaled
    ints and compared by cross-multiplication; a `Fraction` is built only
    for a failure's message.
    """
    g2 = basis2.graph
    scaled2 = g2._scaled
    scale1, scale2 = pair.path.graph.length_scale, g2.length_scale
    n_path, n1, n2, n_cross = pair.scaled_lengths()
    loops, based, conj = [], [], []
    for w, n in ((pair.word1, n1), (pair.word2, n2)):
        loop = word_to_loop(basis2, apply_hom(hom, w))
        b, c = cyclic_reduce_based(loop)
        loops.append(loop.steps)
        _check_spectrum(w, n, scale1, sum(scaled2[e] for e, _ in b.steps), scale2)
        based.append(b)
        conj.append(c)
    k = _common_run(*loops)
    cross = _reversed_steps(loops[0][k:]) + loops[1][k:]
    i, j = _trimmed_ends(cross)
    _check_spectrum(pair.cross_word, n_cross, scale1,
                    sum(scaled2[e] for e, _ in cross[i:j]), scale2)

    long_i = 0 if len(conj[0].steps) >= len(conj[1].steps) else 1
    short_i = 1 - long_i
    if conj[long_i].steps[:len(conj[short_i].steps)] != conj[short_i].steps:
        raise RigidityError(
            "claim1-containment",
            f"conjugators diverge: {format_path(conj[0])!r} vs {format_path(conj[1])!r}")
    remainder = conj[long_i].steps[len(conj[short_i].steps):]
    anchor = based[long_i]
    other = based[short_i]
    q = conj[long_i].end
    if not other.steps or not anchor.steps:
        raise RigidityError("claim1-containment", "image loop collapsed to a point")
    rot = reduce_steps(_reversed_steps(remainder) + other.steps + remainder)
    if len(rot) != len(other.steps):
        raise RigidityError("claim1-containment",
                            "conjugator remainder does not run along the other image loop")

    a, b = anchor.steps, rot
    m, n = _common_run(a, b), _common_run(a[::-1], b[::-1])
    nu_steps = a[len(a) - n:] + a[:m]
    nu = EdgePath._chained(g2, g2.step_tail(nu_steps[0]) if n else q, nu_steps)
    if sum(scaled2[e] for e, _ in nu_steps) * scale1 != n_path * scale2:
        raise RigidityError(
            "claim2-length",
            f"common subpath has length {nu.length}, expected {pair.path_length}")
    if not nu.support() <= core2.core.edge_ids:
        raise RigidityError("claim2-length", "image path leaves the target core")
    return nu


# -- branch point matching ----------------------------------------------

@dataclass(frozen=True)
class BranchMatch:
    """Verified branch-point correspondence with its distance ledger.

    `images` holds the transported image of every source segment, in
    `core1.segments` order; the vertex map is read off their endpoints.
    """

    forward: dict[int, int]
    backward: dict[int, int]
    distance_ledger: tuple[tuple[tuple[int, int], tuple[int, int], Fraction, Fraction], ...]
    images: tuple[EdgePath, ...]


def branch_point_map(core1: CoreDecomposition, basis1: Basis,
                     core2: CoreDecomposition, basis2: Basis, hom: Hom) -> BranchMatch:
    """Match branch points through the transported core segments.

    Every branch point is an endpoint of some segment, so one transport per
    source segment fixes the map: a segment's start goes to its image's start
    and its end to its image's end.  Each branch point must get exactly one
    image, every image must be a target branch point, and the map must be a
    bijection.  Fills the exact distance ledger over all branch pairs.
    """
    if not core1.branch_points or not core2.branch_points:
        raise RigidityError("circle-case", "a core has no branch points")
    images = []
    implied: dict[int, set[int]] = {}
    for seg in core1.segments:
        nu = transport_path(core2, basis2, hom, distinguishing_pair(core1, seg.path, basis1))
        images.append(nu)
        implied.setdefault(seg.x, set()).add(nu.start)
        implied.setdefault(seg.y, set()).add(nu.end)
    b1 = sorted(core1.branch_points)
    fmap: dict[int, int] = {}
    for x in b1:
        found = implied.get(x, set())
        if len(found) != 1:
            raise RigidityError("branch-point-inconsistent",
                                f"segment ends at {x} map to {sorted(found)}")
        fx = found.pop()
        if fx not in core2.branch_points:
            raise RigidityError("branch-point-inconsistent",
                                f"image of {x} is {fx}, not a branch point")
        fmap[x] = fx
    if len(core1.branch_points) != len(core2.branch_points):
        raise RigidityError("branch-not-bijective", "branch point counts differ")
    backward = {fx: x for x, fx in fmap.items()}
    if len(backward) != len(fmap):
        raise RigidityError("branch-not-bijective", "two branch points share an image")
    ledger = []
    for i, x in enumerate(b1):
        for y in b1[i + 1:]:
            d1 = shortest_path(core1.core, x, y).length
            d2 = shortest_path(core2.core, fmap[x], fmap[y]).length
            if d1 != d2:
                raise RigidityError(
                    "distance-ledger",
                    f"d({x},{y}) = {d1} but d({fmap[x]},{fmap[y]}) = {d2}")
            ledger.append(((x, y), (fmap[x], fmap[y]), d1, d2))
    return BranchMatch(fmap, backward, tuple(ledger), tuple(images))


# -- the certificate ------------------------------------------------------

@dataclass(frozen=True)
class IsometryCertificate:
    """Explicit isometry between two cores, with exact ledgers.

    `segment_map` rows are (source index, target index, reversed); the
    orientation flag records whether the target segment is traversed against
    its canonical orientation.  `tau` conjugates the supplied isomorphism
    into the one the isometry induces.
    """

    kind: str  # "circle" or "branched"
    core1: CoreDecomposition
    core2: CoreDecomposition
    basis1: Basis
    basis2: Basis
    vertex_map: dict[int, int]
    segment_map: tuple[tuple[int, int, bool], ...]
    length_ledger: tuple[tuple[Fraction, Fraction], ...]
    distance_ledger: tuple
    tau: Word = ()
    induced_images: tuple[Word, ...] = ()

    def report(self) -> str:
        lines = []
        for x in sorted(self.vertex_map):
            lines.append(f"branch {x} -> {self.vertex_map[x]}")
        for i, j, reversed_flag in self.segment_map:
            suffix = " reversed" if reversed_flag else ""
            lines.append(f"segment {i} -> {j}{suffix}")
        lines.append(f"tau {format_word(self.tau)}")
        lines.append("verdict ACCEPT")
        return "\n".join(lines) + "\n"


def extend_isometry(core1: CoreDecomposition, basis1: Basis,
                    core2: CoreDecomposition, basis2: Basis,
                    branch: BranchMatch) -> IsometryCertificate:
    """Extend a verified branch-point match to a segment correspondence.

    Every source segment's transported image must be exactly a target segment
    of the same length; the correspondence must be a bijection.  An oriented
    core segment is fixed by its first step, so each image is compared with
    the one target segment, forward or reversed, that starts as it does.
    """
    # (start, first step) of every target segment, forward and reversed, to
    # its (index, reversed) row; the first entry wins, as in a scan in j order.
    by_first: dict[tuple, tuple[int, bool]] = {}
    for j, target in enumerate(core2.segments):
        p = target.path
        by_first.setdefault((p.start, p.steps[0]), (j, False))
        by_first.setdefault((p.end, p.steps[-1].reverse()), (j, True))
    seg_map = []
    ledger = []
    used: set[int] = set()
    for i, (seg, nu) in enumerate(zip(core1.segments, branch.images)):
        match = by_first.get((nu.start, nu.steps[0])) if nu.steps else None
        if match is not None:
            steps = core2.segments[match[0]].path.steps
            if (_reversed_steps(steps) if match[1] else steps) != nu.steps:
                match = None
        if match is None:
            if any(t.length == seg.length for t in core2.segments):
                raise RigidityError("segment-unmatched",
                                    f"segment {i} has no matching target segment")
            raise RigidityError("segment-length",
                                f"no target segment of length {seg.length} for segment {i}")
        j, reversed_flag = match
        if j in used:
            raise RigidityError("segment-unmatched", f"target segment {j} matched twice")
        used.add(j)
        ledger.append((seg.length, core2.segments[j].length))
        seg_map.append((i, j, reversed_flag))
    if len(used) != len(core2.segments):
        raise RigidityError("segment-unmatched", "target segments left unmatched")
    return IsometryCertificate(
        kind="branched", core1=core1, core2=core2, basis1=basis1, basis2=basis2,
        vertex_map=dict(branch.forward), segment_map=tuple(seg_map),
        length_ledger=tuple(ledger), distance_ledger=branch.distance_ledger,
    )


# -- induced isomorphism check --------------------------------------------

@dataclass(frozen=True)
class InducedHomCheck:
    ok: bool
    tau: Word | None
    failing_generator: int | None
    images: tuple[Word, ...]


def _induced_image(cert: IsometryCertificate, chains: list, where: dict[int, tuple[int, int]],
                   images: dict[int, tuple[DirectedEdge, ...]], k: int) -> Word:
    """Image of the k-th source generator under the certificate's isometry:
    its loop at the least branch point, through `map_chains` from source
    segments (`chains`, `where`) to matched target steps (`images`).  Raises
    PathError when the segment map is not structurally consistent (possible
    for externally supplied data): the loop does not split into whole segment
    traversals, or the mapped segments do not chain or do not close."""
    x0 = min(cert.vertex_map)
    steps = map_chains(cert.basis1.generator_loop(k, x0).steps, chains, where, images)
    mapped = EdgePath(cert.basis2.graph, cert.vertex_map[x0], steps)
    if not mapped.is_closed():
        raise PathError("mapped generator loop does not close")
    return loop_class_word(cert.basis2, mapped)


def _tau_candidates(induced: tuple[Word, ...], hom: Hom) -> list[Word]:
    """Conjugator candidates for induced == tau hom(.) tau^-1.

    The discrepancy automorphism psi = induced o hom^-1 must send each target
    generator h to a word of reduced form rho h rho^-1; the conjugator equals
    rho for every generator family its last letter does not belong to, so the
    rho words are a complete candidate set.
    """
    if hom.inverse_images is None:
        return []
    induced_hom = Hom(hom.source, hom.target, induced)
    inv = hom.inverse()
    candidates = []
    for j in range(1, hom.target.rank + 1):
        image = apply_hom(induced_hom, apply_hom(inv, (j,)))
        core_w, conj = cyclic_reduce_word(image)
        if core_w != (j,):
            return []  # discrepancy is not an inner automorphism
        candidates.append(conj)
    return list(dict.fromkeys(candidates))


def verify_induces_hom(cert: IsometryCertificate, hom: Hom,
                       tau: Word | None = None) -> InducedHomCheck:
    """Check that the certificate's isometry induces the hom up to conjugation.

    Computes the induced generator images, finds the conjugating word (or
    checks a supplied one), and requires induced(g) == tau hom(g) tau^-1 as
    reduced words for every generator.
    """
    if cert.kind == "circle":
        expect: Word = (-1,) if cert.segment_map[0][2] else (1,)
        image = apply_hom(hom, (1,))
        t = invert_word(cyclic_reduce_word(image)[1]) if tau is None else tau
        if concat_words(t, image, invert_word(t)) == expect:
            return InducedHomCheck(True, t, None, (expect,))
        return InducedHomCheck(False, None, 1, (expect,))

    chains = [seg.path.steps for seg in cert.core1.segments]
    where = {step.edge: (idx, pos) for idx, chain in enumerate(chains)
             for pos, step in enumerate(chain)}
    segs = cert.core2.segments
    images = {i: (segs[j].path.reverse() if flag else segs[j].path).steps
              for i, j, flag in cert.segment_map}
    induced_list = []
    for k in range(1, hom.source.rank + 1):
        try:
            induced_list.append(_induced_image(cert, chains, where, images, k))
        except PathError:
            return InducedHomCheck(False, None, k, tuple(induced_list))
    induced = tuple(induced_list)
    targets = [apply_hom(hom, (k,)) for k in range(1, hom.source.rank + 1)]
    candidates = [tau] if tau is not None else _tau_candidates(induced, hom)
    failing = None
    for t in candidates:
        k = next((k for k, (ind, target) in enumerate(zip(induced, targets), start=1)
                  if ind != concat_words(t, target, invert_word(t))), None)
        if k is None:
            return InducedHomCheck(True, t, None, induced)
        failing = failing or k
    return InducedHomCheck(False, None, failing or 1, induced)


# -- full pipeline ---------------------------------------------------------

def _prefix_classes(rank: int, branch_count: int) -> int:
    """Classes swept before the pipeline: ceil(3S/2) at two queries each, about the
    pipeline's three per segment, for S = rank + branch_count - 1 core segments."""
    return (3 * (rank + branch_count - 1) + 1) // 2


def _first_of_class(w: Word) -> bool:
    """True iff `w` comes first in its class up to inversion in enumeration
    order.  A class's shortest words are the rotations of its cyclically
    reduced words and their inverses, so iff `w` is cyclically reduced and the
    least of these in the order g1 < g1^-1 < g2; it then starts with its least g_m."""
    if w[0] == -w[-1] or w[0] != min(map(abs, w)):
        return False
    key = [2 * abs(x) - (x > 0) for x in w]
    inv = [2 * abs(x) - (x < 0) for x in reversed(w)]
    return least_rotation_start(key) == 0 and key <= least_rotation(inv)


def _spectrum_sweep(basis1: Basis, basis2: Basis, hom: Hom, max_len: int,
                    start: int = 0, stop: int | None = None) -> None:
    """Check l2(hom(w)) == l1(w) on one word per conjugacy class up to
    inversion, its first word `w` in enumeration order: of the classes of
    words up to `max_len`, those with index in [start, stop) in that order.

    Skipping is exact.  The marked length spectrum is a class function,
    l(u w u^-1) = l(w), and l(w^-1) = l(w); a homomorphism sends conjugates
    to conjugates and inverses to inverses.  So a skipped word passes iff
    the first word of its class passed, the first failing word in
    enumeration order is always checked, and the `SpectrumMismatchError`
    witness is that word, as in an exhaustive sweep.  A sweep to `stop=q`
    followed by one from `start=q` checks the same words, in the same order,
    as one whole sweep; neither keeps any state.
    """
    classes = filter(_first_of_class, enumerate_reduced_words(basis1.rank, max_len))
    for w in islice(classes, start, stop):
        _check_spectrum(w, *marked_length(basis1, w).as_integer_ratio(),
                        *marked_length(basis2, apply_hom(hom, w)).as_integer_ratio())


def reconstruct(g1: MetricGraph, g2: MetricGraph, hom: Hom,
                sweep_len: int = 4) -> IsometryCertificate | ReconstructionFailure:
    """Run the full reconstruction pipeline.

    Returns an accepted certificate or the first structured failure.  The
    spectrum sweep checks each conjugacy class of words of length
    <= `sweep_len` once, up to inversion (0 disables it): the first
    `_prefix_classes` before the pipeline, the rest only when it does not
    accept.  Verdict and witness are those of a full sweep run up front: an
    accepted certificate is an isometry of the cores inducing `hom` up to
    conjugation, and an isometry keeps every loop length, so no class can
    fail after an ACCEPT, and any prefix gives the same.

    The sweep is a fast-fail convenience: no finite sweep determines a
    marked metric graph, so acceptance rests on the per-query checks and
    the exact ledgers, never on the sweep.
    """
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
        core1, core2 = compute_core(g1), compute_core(g2)
        if core1.is_empty or core2.is_empty:
            which = " ".join(name for name, c in (("first", core1), ("second", core2))
                             if c.is_empty)
            return ReconstructionFailure("empty-core", f"{which} graph is contractible")
        # A certified isomorphism keeps the rank, a rank-one core is a circle,
        # and an automorphism of the rank-one free group sends g1 to g1 or
        # g1^-1: the circles' isometry induces the hom itself, with empty tau.
        if hom.source.rank == 1:
            c1, c2 = is_circle(core1), is_circle(core2)
            if c1 != c2:
                return ReconstructionFailure("circle-circumference", f"{c1} vs {c2}")
            image = apply_hom(hom, (1,))
            return IsometryCertificate(
                kind="circle", core1=core1, core2=core2, basis1=hom.source, basis2=hom.target,
                vertex_map={}, segment_map=((0, 0, image == (-1,)),),
                length_ledger=((c1, c2),), distance_ledger=(), induced_images=(image,))
        prefix = _prefix_classes(hom.source.rank, len(core1.branch_points))
        _spectrum_sweep(hom.source, hom.target, hom, sweep_len, stop=prefix)
        try:
            branch = branch_point_map(core1, hom.source, core2, hom.target, hom)
            cert = extend_isometry(core1, hom.source, core2, hom.target, branch)
            check = verify_induces_hom(cert, hom)
            if not check.ok:
                raise RigidityError("induced-hom", f"generator g{check.failing_generator}")
        except Exception:
            # Not an ACCEPT: a mismatch in the rest of the sweep comes first,
            # as it would have had the whole sweep run before the pipeline.
            _spectrum_sweep(hom.source, hom.target, hom, sweep_len, start=prefix)
            raise
        return replace(cert, tau=check.tau, induced_images=check.images)
    except RigidityError as exc:
        return ReconstructionFailure(exc.code, exc.detail)

