"""Output checks made apart from the program.

Each check recomputes what it needs with its own code (leaf pruning for the
2-core, plain tuple comparison for paths) or reads the ground truth that
`disguise` recorded when it built the instance.  No check calls the pipeline
it checks.  Every check returns None when the output is right and a one-line
reason when it is not.
"""

from __future__ import annotations

from fractions import Fraction


def two_core(vertices, rows) -> set[int]:
    """Edge ids that survive iterated deletion of degree-1 vertices.

    `rows` are `(edge id, u, v, length)`; a self-loop adds 2 to its vertex's
    degree.  A tree prunes to the empty set.
    """
    degree = {v: 0 for v in vertices}
    incident: dict[int, list[int]] = {v: [] for v in vertices}
    alive = {}
    for eid, u, v, _ in rows:
        degree[u] += 1
        degree[v] += 1
        incident[u].append(eid)
        incident[v].append(eid)
        alive[eid] = (u, v)
    leaves = [v for v in vertices if degree[v] == 1]
    while leaves:
        x = leaves.pop()
        if degree[x] != 1:
            continue
        eid = next(e for e in incident[x] if e in alive)
        u, v = alive.pop(eid)
        other = v if u == x else u
        degree[x] -= 1
        degree[other] -= 1
        if degree[other] == 1:
            leaves.append(other)
    return set(alive)


def core_length(rows, core: set[int]) -> Fraction:
    return sum((Fraction(length) for eid, _, _, length in rows if eid in core), Fraction(0))


def core_shape(rows, core: set[int]) -> tuple[int, int]:
    """Branch points and segments of a non-empty 2-core.  Segments are edges
    minus degree-2 vertices, since each degree-2 vertex joins two edges into
    one arc; a circle is one segment."""
    degree: dict[int, int] = {}
    for eid, u, v, _ in rows:
        if eid in core:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
    branch = sum(1 for d in degree.values() if d >= 3)
    if not branch:
        return 0, 1
    return branch, len(core) - sum(1 for d in degree.values() if d == 2)


def cyclic_class(word) -> tuple[int, ...]:
    """Conjugacy class of a free-group word: freely reduce, strip inverse
    letters from both ends, take the least rotation."""
    stack: list[int] = []
    for letter in word:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    i, j = 0, len(stack)
    while j - i >= 2 and stack[i] == -stack[j - 1]:
        i += 1
        j -= 1
    core = tuple(stack[i:j])
    return min((core[k:] + core[:k] for k in range(len(core))), default=())


def _steps(path) -> tuple[tuple[int, bool], ...]:
    return tuple((s.edge, s.rev) for s in path.steps)


def _reversed_path(path) -> tuple[int, tuple[tuple[int, bool], ...]]:
    return path.end, tuple((e, not r) for e, r in reversed(_steps(path)))


def check_accept(item, cert) -> str | None:
    """An ACCEPT certificate for a disguise pair, against the disguise's truth.

    The branch map must equal the recorded one; each `segment i -> j
    [reversed]` row must be the disguise's own image of source segment `i`;
    the rows must be a bijection; the certificate's cores must be the 2-cores
    found by leaf pruning, and those must have the same total length.
    """
    if type(cert).__name__ != "IsometryCertificate":
        return f"expected ACCEPT, got {cert.report().strip()!r}"
    if cert.vertex_map != item.inst.branch_map:
        return "branch map differs from the disguise's truth"
    seg1, seg2 = cert.core1.segments, cert.core2.segments
    rows = cert.segment_map
    if sorted(i for i, _, _ in rows) != list(range(len(seg1))) or \
            sorted(j for _, j, _ in rows) != list(range(len(seg2))):
        return "segment rows are not a bijection"
    for i, j, flag in rows:
        image = item.inst.map_path(seg1[i].path)
        target = seg2[j].path
        want = _reversed_path(target) if flag else (target.start, _steps(target))
        if (image.start, _steps(image)) != want:
            return f"segment {i} -> {j}{' reversed' if flag else ''} is not the disguise's image"
    core1, core2 = two_core(*item.spec1), two_core(*item.spec2)
    if set(cert.core1.core.edge_ids) != core1 or set(cert.core2.core.edge_ids) != core2:
        return "certificate core differs from the leaf-pruned 2-core"
    if core_length(item.spec1[1], core1) != core_length(item.spec2[1], core2):
        return "leaf-pruned cores differ in total length"
    return None


def check_reject(code: int, stdout: str) -> str | None:
    """`mlsgraph reconstruct` on a negative: exit 1 and exactly one line,
    `verdict REJECT <code> ...`."""
    lines = stdout.splitlines()
    if code != 1:
        return f"exit code {code}, expected 1"
    if len(lines) != 1 or len(lines[0].split()) < 3 or \
            lines[0].split()[:2] != ["verdict", "REJECT"]:
        return f"expected one 'verdict REJECT <code>' line, got {stdout!r}"
    return None


def check_negative(spec_source, spec_perturbed, delta: Fraction) -> str | None:
    """A negative is a true one when its perturbed core is exactly `delta`
    longer than the source core: cores of different length are not isometric."""
    core1, core2 = two_core(*spec_source), two_core(*spec_perturbed)
    if core_length(spec_perturbed[1], core2) - core_length(spec_source[1], core1) != delta:
        return "perturbed core is not exactly delta longer"
    return None


def check_core(spec, decomp, agrees: bool) -> str | None:
    """`compute_core` and `core_loop_union_agrees` on one graph."""
    vertices, rows = spec
    if set(decomp.core.edge_ids) != two_core(vertices, rows):
        return "core edges differ from the leaf-pruned 2-core"
    if agrees is not True:
        return "core_loop_union_agrees did not return True"
    if decomp.is_empty != (len(rows) == len(vertices) - 1):
        return "is_empty does not match edges == vertices - 1"
    return None
