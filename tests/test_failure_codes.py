"""The certificate pipeline's failure codes, each pinned with its detail text.

On well-formed input the spectrum checks stop a wrong hom before these
sites, so the tests reach them around those checks:
`distinguishing_pair` is called directly on bad paths; `transport_path`
runs with `_check_spectrum` patched out, under homs that keep no lengths;
and `branch_point_map` and `reconstruct` run with `transport_path`
replaced by a table of chosen image paths.  An inventory test reads the
codes off `rigidity.py` and requires each one in some test's assertion and in
README's table of failure codes.
"""

import ast
import re
from pathlib import Path

import pytest

from mlsgraph import (Hom, MetricGraph, ReconstructionFailure, RigidityError, branch_point_map,
                      compute_core, distinguishing_pair, identity_hom, parse_path, reconstruct,
                      spanning_tree, transport_path)
from mlsgraph import rigidity

# Theta with its length-3 edge cut at vertex 2, of degree 2.
CUT_THETA = MetricGraph([0, 1, 2], [(0, 0, 1, 1), (1, 0, 1, 2), (2, 0, 2, 1), (3, 2, 1, 2)])
# Theta with its length-1 edge made length 2.
LONG_THETA = MetricGraph([0, 1], [(0, 0, 1, 2), (1, 0, 1, 2), (2, 0, 1, 3)])
CIRCLE = MetricGraph([0], [(0, 0, 0, 5)])


def failure(fn, *args) -> str:
    with pytest.raises(RigidityError) as err:
        fn(*args)
    return str(err.value)


# -- distinguishing_pair ------------------------------------------------------

@pytest.mark.parametrize("graph, path, at, detail", [
    ("theta", "", 0, "empty distinguished path"),
    ("pendant_theta", "e3", None, "path leaves the core"),
    ("theta", "e0 e0^-1", None, "path is not reduced"),
    ("cut_theta", "e3 e0^-1 e2", None, "loop segment is not based at a branch point"),
    ("dumbbell", "e2 e1 e2^-1", None, "loop segment is not cyclically reduced"),
    ("cut_theta", "e2", None, "path endpoints are not branch points"),
])
def test_distinguishing_pair_refuses_bad_paths(request, graph, path, at, detail):
    g = CUT_THETA if graph == "cut_theta" else request.getfixturevalue(graph)
    p = parse_path(g, path, at=at)
    assert failure(distinguishing_pair, compute_core(g), p, spanning_tree(g)) == \
        f"bad-path: {detail}"


def test_distinguishing_pair_runs_out_of_variants(theta):
    p = parse_path(theta, "e0")
    assert failure(distinguishing_pair, compute_core(theta), p, spanning_tree(theta), 99) == \
        "no-distinguishing-pair: no verified pair for path e0 (variant 99)"


# -- transport_path ------------------------------------------------------------

@pytest.mark.parametrize("target, images, detail", [
    # Both images are conjugated into the core, along e0 and along e1.
    (MetricGraph([0, 1, 2], [(0, 0, 1, 1), (1, 0, 2, 1), (2, 1, 1, 2), (3, 2, 2, 3)]),
     ((1,), (2,)), "claim1-containment: conjugators diverge: 'e0' vs 'e1'"),
    (None, ((), ()), "claim1-containment: image loop collapsed to a point"),
    # One image is conjugated along e0, the other is the loop e1 at the basepoint.
    (MetricGraph([0, 1], [(0, 0, 1, 1), (1, 0, 0, 2), (2, 1, 1, 3)]), ((2,), (1,)),
     "claim1-containment: conjugator remainder does not run along the other image loop"),
    (LONG_THETA, ((1,), (2,)), "claim2-length: common subpath has length 2, expected 1"),
])
def test_transport_path_failures(monkeypatch, theta, target, images, detail):
    monkeypatch.setattr(rigidity, "_check_spectrum", lambda *args: None)
    target = target or theta
    basis = spanning_tree(theta)
    pair = distinguishing_pair(compute_core(theta), parse_path(theta, "e0"), basis)
    hom = Hom(basis, spanning_tree(target), images)
    assert failure(transport_path, compute_core(target), hom.target, hom, pair) == detail


def test_transport_path_refuses_an_image_off_the_given_core(theta):
    """The image path is cut from cyclically reduced loops, which lie in the
    core of `basis2`'s graph; only a `core2` of another graph misses it."""
    basis = spanning_tree(theta)
    pair = distinguishing_pair(compute_core(theta), parse_path(theta, "e0"), basis)
    other = compute_core(MetricGraph([0, 1], [(1, 0, 1, 2), (2, 0, 1, 3)]))
    assert failure(transport_path, other, basis, identity_hom(basis), pair) == \
        "claim2-length: image path leaves the target core"


# -- branch_point_map and the induced hom ----------------------------------------

def transporting(images):
    """A `transport_path` that maps each source segment to `images[steps]`."""
    return lambda core2, basis2, hom, pair: images[pair.path.steps]


def test_branch_point_map_refuses_a_circle():
    basis = spanning_tree(CIRCLE)
    core = compute_core(CIRCLE)
    assert failure(branch_point_map, core, basis, core, basis, identity_hom(basis)) == \
        "circle-case: a core has no branch points"


K4 = MetricGraph(range(4), [(k, u, v, 1) for k, (u, v) in
                            enumerate([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])])


@pytest.mark.parametrize("target, images, detail", [
    (None, {0: ("e0", None), 1: ("e1^-1", 1), 2: ("e2", None)},
     "branch-point-inconsistent: segment ends at 0 map to [0, 1]"),
    (CUT_THETA, dict.fromkeys(range(3), ("e3", None)),
     "branch-point-inconsistent: image of 0 is 2, not a branch point"),
    (K4, dict.fromkeys(range(3), ("e0", None)), "branch-not-bijective: branch point counts differ"),
    (None, dict.fromkeys(range(3), ("e0 e1^-1", None)),
     "branch-not-bijective: two branch points share an image"),
    (LONG_THETA, {k: (f"e{k}", None) for k in range(3)},
     "distance-ledger: d(0,1) = 1 but d(0,1) = 2"),
])
def test_branch_point_map_failures(monkeypatch, theta, target, images, detail):
    """Theta's segments are e0, e1 and e2; segment k goes to `images[k]`."""
    target = target or theta
    core = compute_core(theta)
    monkeypatch.setattr(rigidity, "transport_path", transporting(
        {seg.path.steps: parse_path(target, *images[k]) for k, seg in enumerate(core.segments)}))
    basis, basis2 = spanning_tree(theta), spanning_tree(target)
    assert failure(branch_point_map, core, basis, compute_core(target), basis2,
                   Hom(basis, basis2, ((1,), (2,)))) == detail


def test_reconstruct_reports_a_branched_induced_hom_failure(monkeypatch, theta):
    """Swapping theta's segments e0 and e1 keeps the branch points and their
    distance, but the swap does not induce the identity hom."""
    e0, e1, e2 = (parse_path(theta, f"e{k}") for k in range(3))
    monkeypatch.setattr(rigidity, "transport_path", transporting(
        {e0.steps: e1, e1.steps: e0, e2.steps: e2}))
    assert reconstruct(theta, theta, identity_hom(spanning_tree(theta))) == \
        ReconstructionFailure("induced-hom", "generator g1")


# -- the failure-code inventory --------------------------------------------------

TESTS = Path(__file__).parent


def failure_codes() -> set[str]:
    """The code literal of every `RigidityError(...)` and
    `ReconstructionFailure(...)` built in `rigidity.py`, and of the
    `super().__init__(...)` call of each `RigidityError` subclass."""
    tree = ast.parse(Path(rigidity.__file__).read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) in ("RigidityError", "ReconstructionFailure")]
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and any(getattr(b, "id", None) == "RigidityError"
                                                 for b in cls.bases):
            calls += [node for node in ast.walk(cls) if isinstance(node, ast.Call)
                      and getattr(node.func, "attr", None) == "__init__"]
    return {call.args[0].value for call in calls
            if call.args and isinstance(call.args[0], ast.Constant)}


def asserted_strings() -> list[str]:
    """String literals in the `assert` statements of the test modules, and in
    the `pytest.mark.parametrize` tables that feed them."""
    out = []
    for path in sorted(TESTS.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "parametrize"):
                out += [c.value for c in ast.walk(node)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    return out


def readme_code_table() -> set[str]:
    """Codes in the first column of README's table of failure codes."""
    text = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    table = text[text.index("| code | phase | witness |"):].split("\n\n")[0]
    return set(re.findall(r"^\| `([a-z0-9-]+)` \|", table, re.MULTILINE))


def test_every_failure_code_is_asserted_and_documented():
    codes = failure_codes()
    assert "spectrum-mismatch" in codes and "induced-hom" in codes
    assert "circle-mismatch" not in codes
    strings = asserted_strings()
    unasserted = {code for code in codes if not any(
        re.search(rf"(?<![\w-]){re.escape(code)}(?![\w-])", s) for s in strings)}
    assert unasserted == set()
    assert readme_code_table() == codes
