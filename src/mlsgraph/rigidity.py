"""Certified isometry reconstruction from a length-preserving isomorphism.

Given two graphs and an isomorphism of their fundamental groups that
preserves the marked length spectrum, this module rebuilds an explicit
isometry between their cores and emits a certificate in which every claim
is an exact rational identity:

  * a distinguished path (between branch points, or a loop segment at one)
    is paired with two loops that agree exactly along it and separate at
    both ends, so its length is recoverable from three spectrum values
    (the loops close up along least shortest reduced routes, all read off
    one breadth-first tree of non-backtracking steps per first step);
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
from dataclasses import dataclass, replace
from fractions import Fraction

from .fungroup import (Basis, Hom, Word, apply_hom, canonical_cyclic_word, concat_words,
                       cyclic_reduce_word, enumerate_reduced_words, format_word, invert_word,
                       loop_class_word, loop_to_word, marked_length, word_to_loop)
from .graphs import DirectedEdge, GraphError, MetricGraph, require_valid
from .hull import CoreDecomposition, compute_core, is_circle
from .paths import (EdgePath, PathError, cyclic_reduce_based, format_path, is_reduced,
                    reduce_path, shortest_path)


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

    hold with exact equality (stored and verified in `cross_length`).
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


def _route_tree(core: MetricGraph, first: DirectedEdge) -> dict[DirectedEdge, DirectedEdge | None]:
    """Breadth-first tree of the reduced routes that start with `first`: every
    directed edge reached maps to the step before it (None for `first`).  As
    every step costs 1 and successors come in sorted order, each state is first
    reached along its lexicographically least shortest route."""
    parent: dict[DirectedEdge, DirectedEdge | None] = {first: None}
    queue = deque([first])
    while queue:
        state = queue.popleft()
        for nxt in core.next_steps(state):
            if nxt not in parent:
                parent[nxt] = state
                queue.append(nxt)
    return parent


def _frames(core: MetricGraph, firsts, lasts) -> list[tuple]:
    """(d, a, route) for every first step d and last step a, in that order,
    where route is the least shortest reduced route from d to a; pairs that
    no route joins are left out.  One route tree serves each d."""
    frames = []
    for d in firsts:
        parent = _route_tree(core, d)
        for a in lasts:
            if a not in parent:
                continue
            route = [a]
            while parent[route[-1]] is not None:
                route.append(parent[route[-1]])
            frames.append((d, a, tuple(reversed(route))))
    return frames


def _pair_candidates(core: CoreDecomposition, p: EdgePath):
    """Yield verified (loop1, loop2, frame) triples in deterministic order.

    A loop is `p` then a frame's route from a first step d that does not
    backtrack along `p` to a last step a that does not backtrack into it.
    A loop segment pairs its square with each frame; an arc pairs two frames
    with distinct d and distinct a."""
    cg = core.core
    x, y = p.start, p.end
    first_p, last_p = p.steps[0], p.steps[-1]
    into_x = sorted(s.reverse() for s in cg.out_steps(x))

    if p.is_closed():
        square = EdgePath(cg, x, p.steps + p.steps)
        firsts = [d for d in cg.out_steps(x) if d not in (last_p.reverse(), first_p)]
        lasts = [a for a in into_x if a not in (first_p.reverse(), last_p)]
        for d, a, route in _frames(cg, firsts, lasts):
            yield square, EdgePath(cg, x, p.steps + route), ("loop", d, a)
        return

    outs_y = [d for d in cg.out_steps(y) if d != last_p.reverse()]
    ins_x = [a for a in into_x if a != first_p.reverse()]
    frames = _frames(cg, outs_y, ins_x)
    for d1, a1, r1 in frames:
        for d2, a2, r2 in frames:
            if d1 == d2 or a1 == a2:
                continue
            loop1 = EdgePath(cg, x, p.steps + r1)
            loop2 = EdgePath(cg, x, p.steps + r2)
            yield loop1, loop2, ("arc", (d1, a1), (d2, a2))


def _is_cyclically_reduced_loop(loop: EdgePath) -> bool:
    if not loop.is_closed() or not is_reduced(loop):
        return False
    return not loop.steps or loop.steps[-1] != loop.steps[0].reverse()


def distinguishing_pair(core: CoreDecomposition, p: EdgePath, basis: Basis,
                        variant: int = 0) -> DistinguishedPair:
    """Construct and verify a distinguishing pair for a path in the core.

    `p` must be reduced, supported in the core, and either join two branch
    points or be a cyclically reduced loop segment based at one.  Extension
    steps are chosen deterministically (least directed edge first); `variant`
    selects later constructions for independence tests.
    """
    if not core.branch_points:
        raise RigidityError("circle-case", "core has no branch points")
    if p.is_empty():
        raise RigidityError("bad-path", "empty distinguished path")
    if not p.support() <= set(core.core.edge_ids):
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

    g = basis.graph
    seen = 0
    for loop1, loop2, frame in _pair_candidates(core, p):
        gamma1 = EdgePath(g, loop1.start, loop1.steps)
        gamma2 = EdgePath(g, loop2.start, loop2.steps)
        if not (_is_cyclically_reduced_loop(gamma1) and _is_cyclically_reduced_loop(gamma2)):
            continue
        cross = gamma1.reverse().then(gamma2)
        core_loop, _ = cyclic_reduce_based(cross)
        if core_loop.length != gamma1.length + gamma2.length - 2 * p.length:
            continue  # certificate identity failed, enumerate further
        if seen < variant:
            seen += 1
            continue
        return DistinguishedPair(
            path=p, loop1=gamma1, loop2=gamma2,
            word1=loop_class_word(basis, gamma1),
            word2=loop_class_word(basis, gamma2),
            frame=frame,
        )
    raise RigidityError("no-distinguishing-pair",
                        f"no verified pair for path {format_path(p)} (variant {variant})")


def recovered_length(l2, hom: Hom, pair: DistinguishedPair) -> Fraction:
    """Length of the pair's path as seen through target spectrum queries only."""
    a = l2(apply_hom(hom, pair.word1))
    b = l2(apply_hom(hom, pair.word2))
    c = l2(apply_hom(hom, pair.cross_word))
    return (a + b - c) / 2


# -- transporting distinguished paths -----------------------------------

def _check_pair_spectrum(basis2: Basis, hom: Hom, pair: DistinguishedPair) -> None:
    l1a, l1b = pair.loop_lengths
    queries = ((pair.word1, l1a), (pair.word2, l1b), (pair.cross_word, pair.cross_length))
    for w, expected in queries:
        got = marked_length(basis2, apply_hom(hom, w))
        if got != expected:
            raise SpectrumMismatchError(w, expected, got)


def transport_path(core2: CoreDecomposition, basis2: Basis, hom: Hom,
                   pair: DistinguishedPair) -> EdgePath:
    """Image of a distinguished path under the spectrum-preserving isomorphism.

    Realizes the two image loops in the target and aligns their basepoints
    via the conjugator containment property.  The image path is the common
    subpath of the aligned loops around the shared basepoint: the maximal
    common terminal run into it followed by the maximal common initial run
    out of it (either may be empty, since the basepoint may land anywhere on
    the image path).  Its length must equal the recovered length exactly.
    """
    _check_pair_spectrum(basis2, hom, pair)
    g2 = basis2.graph
    based = []
    conj = []
    for w in (pair.word1, pair.word2):
        loop = word_to_loop(basis2, apply_hom(hom, w))
        b, c = cyclic_reduce_based(loop)
        based.append(b)
        conj.append(c)

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
    L = len(other.steps)
    if L == 0 or len(anchor.steps) == 0:
        raise RigidityError("claim1-containment", "image loop collapsed to a point")
    if all(remainder[i] == other.steps[i % L] for i in range(len(remainder))):
        offset = len(remainder) % L
    elif all(remainder[i] == other.steps[(L - 1 - i) % L].reverse()
             for i in range(len(remainder))):
        offset = (L - (len(remainder) % L)) % L
    else:
        raise RigidityError("claim1-containment",
                            "conjugator remainder does not run along the other image loop")
    rot = other.steps[offset:] + other.steps[:offset]
    if g2.step_tail(rot[0]) != q:
        raise RigidityError("claim1-containment", "image loops do not share a basepoint")

    a, b = anchor.steps, rot
    prefix = []
    for s, t in zip(a, b):
        if s != t:
            break
        prefix.append(s)
    suffix = []
    for s, t in zip(reversed(a), reversed(b)):
        if s != t:
            break
        suffix.append(s)
    suffix.reverse()
    nu_steps = tuple(suffix) + tuple(prefix)
    start = g2.step_tail(suffix[0]) if suffix else q
    nu = EdgePath(g2, start, nu_steps)
    if nu.length != pair.path_length:
        raise RigidityError(
            "claim2-length",
            f"common subpath has length {nu.length}, expected {pair.path_length}")
    if not nu.support() <= set(core2.core.edge_ids):
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
    of the same length; the correspondence must be a bijection.
    """
    # (start, steps) of every target segment, forward and reversed, to its
    # (index, reversed) row; the first entry wins, as in a scan in j order.
    by_path: dict[tuple, tuple[int, bool]] = {}
    for j, target in enumerate(core2.segments):
        for path, flag in ((target.path, False), (target.path.reverse(), True)):
            by_path.setdefault((path.start, path.steps), (j, flag))
    seg_map = []
    ledger = []
    used: set[int] = set()
    for i, (seg, nu) in enumerate(zip(core1.segments, branch.images)):
        match = by_path.get((nu.start, nu.steps))
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


def _segment_traversals(cert: IsometryCertificate, where: dict[int, tuple[int, int]],
                        loop: EdgePath) -> list[tuple[int, bool]]:
    """Decompose a reduced core loop based at a branch point into whole
    directed segment traversals (segment index, traversed backward).
    `where` maps an edge id to (segment index, position along the segment)."""
    segments = cert.core1.segments
    out = []
    steps = loop.steps
    i = 0
    while i < len(steps):
        step = steps[i]
        if step.edge not in where:
            raise RigidityError("induced-hom", f"loop leaves the core at {step}")
        idx, pos = where[step.edge]
        seg = segments[idx]
        n = len(seg.path.steps)
        if seg.path.steps[pos] == step:
            if pos != 0 or steps[i:i + n] != seg.path.steps:
                raise RigidityError("induced-hom", "loop enters a segment mid-way")
            out.append((idx, False))
        else:
            rev = seg.path.reverse().steps
            if pos != n - 1 or steps[i:i + n] != rev:
                raise RigidityError("induced-hom", "loop enters a segment mid-way")
            out.append((idx, True))
        i += n
    return out


def _induced_image(cert: IsometryCertificate, where: dict[int, tuple[int, int]],
                   k: int) -> Word:
    """Image of the k-th source generator under the certificate's isometry.

    Raises RigidityError or PathError when the certificate's segment map is
    not structurally consistent (possible for externally supplied data).
    """
    basis1, basis2 = cert.basis1, cert.basis2
    x0 = min(cert.vertex_map)
    fx0 = cert.vertex_map[x0]
    s1 = basis1.tree_path(x0, basis1.basepoint)
    s2 = basis2.tree_path(basis2.basepoint, fx0)
    seg_image = {i: (j, flag) for i, j, flag in cert.segment_map}
    lam = word_to_loop(basis1, (k,))
    based = reduce_path(s1.then(lam).then(s1.reverse()))
    target_steps: list[DirectedEdge] = []
    for idx, backward in _segment_traversals(cert, where, based):
        j, flag = seg_image[idx]
        piece = cert.core2.segments[j].path
        if flag != backward:  # exactly one reversal flips the traversal
            piece = piece.reverse()
        target_steps.extend(piece.steps)
    mapped = EdgePath(basis2.graph, fx0, tuple(target_steps))
    return loop_to_word(basis2, reduce_path(s2.then(mapped).then(s2.reverse())))


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
        reversed_flag = cert.segment_map[0][2]
        expect: Word = ((-1,) if reversed_flag else (1,))
        image = apply_hom(hom, (1,))
        core_w, conj = cyclic_reduce_word(image)
        candidates = [invert_word(conj)] if tau is None else [tau]
        for t in candidates:
            if concat_words(t, image, invert_word(t)) == expect:
                return InducedHomCheck(True, t, None, (expect,))
        return InducedHomCheck(False, None, 1, (expect,))

    where = {step.edge: (idx, pos) for idx, seg in enumerate(cert.core1.segments)
             for pos, step in enumerate(seg.path.steps)}
    induced_list = []
    for k in range(1, hom.source.rank + 1):
        try:
            induced_list.append(_induced_image(cert, where, k))
        except (RigidityError, PathError):
            return InducedHomCheck(False, None, k, tuple(induced_list))
    induced = tuple(induced_list)
    targets = [apply_hom(hom, (k,)) for k in range(1, hom.source.rank + 1)]
    if tau is not None:
        candidates = [tau]
    else:
        candidates = _tau_candidates(induced, hom)
    failing = None
    for t in candidates:
        ok = True
        for k, (ind, target) in enumerate(zip(induced, targets), start=1):
            if ind != concat_words(t, target, invert_word(t)):
                ok = False
                if failing is None:
                    failing = k
                break
        if ok:
            return InducedHomCheck(True, t, None, induced)
    return InducedHomCheck(False, None, failing if failing is not None else 1, induced)


# -- full pipeline ---------------------------------------------------------

# Word length up to which `reconstruct` sweeps before the pipeline runs.
# Rejected inputs usually break the spectrum on a class this short, so they
# still fail before the costlier pipeline; longer classes are checked only
# when the pipeline does not accept.
SWEEP_PREFIX_LEN = 2


def _spectrum_sweep(basis1: Basis, basis2: Basis, hom: Hom, max_len: int,
                    checked: set[Word] | None = None) -> None:
    """Check l2(hom(w)) == l1(w) on one word per conjugacy class up to
    inversion, over the reduced words of length <= `max_len`.

    Skipping is exact.  The marked length spectrum is a class function,
    l(u w u^-1) = l(w), and l(w^-1) = l(w); a homomorphism sends conjugates
    to conjugates and inverses to inverses.  So a skipped word passes iff
    the earlier word of its class passed, the first failing word in
    enumeration order is always checked, and the `SpectrumMismatchError`
    witness is that word, as in an exhaustive sweep.

    `checked` holds the canonical words of the classes already checked and
    is updated in place.  Passing the set left by a shorter sweep resumes it:
    the shorter words are enumerated again but cost no query, so the two
    calls check the same classes, in the same order, as one sweep.
    """
    if checked is None:
        checked = set()
    for w in enumerate_reduced_words(basis1.rank, max_len):
        key = canonical_cyclic_word(w)
        if key in checked:
            continue
        checked.add(key)
        checked.add(canonical_cyclic_word(invert_word(key)))
        expected = marked_length(basis1, w)
        got = marked_length(basis2, apply_hom(hom, w))
        if got != expected:
            raise SpectrumMismatchError(w, expected, got)


def reconstruct(g1: MetricGraph, g2: MetricGraph, hom: Hom,
                sweep_len: int = 4) -> IsometryCertificate | ReconstructionFailure:
    """Run the full reconstruction pipeline.

    Returns an accepted certificate or the first structured failure.  The
    spectrum sweep checks each conjugacy class of words of length
    <= `sweep_len` once, up to inversion (0 disables it).  Classes of words
    up to length `SWEEP_PREFIX_LEN` are checked before the pipeline runs;
    the rest only when the pipeline does not accept.  Verdict and witness
    are those of a full sweep run up front: an accepted certificate is an
    isometry of the cores inducing `hom` up to conjugation, and an isometry
    keeps the length of every loop, so no class can fail after an ACCEPT.

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
        checked: set[Word] = set()
        _spectrum_sweep(hom.source, hom.target, hom, min(sweep_len, SWEEP_PREFIX_LEN),
                        checked)
        try:
            branch = branch_point_map(core1, hom.source, core2, hom.target, hom)
            cert = extend_isometry(core1, hom.source, core2, hom.target, branch)
            check = verify_induces_hom(cert, hom)
            if not check.ok:
                raise RigidityError("induced-hom", f"generator g{check.failing_generator}")
        except Exception:
            # Not an ACCEPT: a mismatch in the rest of the sweep comes first,
            # as it would have had the whole sweep run before the pipeline.
            _spectrum_sweep(hom.source, hom.target, hom, sweep_len, checked)
            raise
        return replace(cert, tau=check.tau, induced_images=check.images)
    except RigidityError as exc:
        return ReconstructionFailure(exc.code, exc.detail)

