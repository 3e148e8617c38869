"""The public surface: the names `import mlsgraph` exposes, and README's
library quick start run as written."""

import ast
import contextlib
import io
import re
import types
from fractions import Fraction
from pathlib import Path

import mlsgraph

README = Path(__file__).resolve().parent.parent / "README.md"

# Adding or removing a public name is a decision: make it here too.
PUBLIC_NAMES = [
    "Basis", "BudgetExceededError", "ConcatDecomposition", "CoreDecomposition", "CyclicPath",
    "DirectedEdge", "DisguiseError", "DisguisedInstance", "DistinguishedPair", "EdgePath",
    "GraphError", "Hom", "IsometryCertificate", "MetricGraph", "PathError",
    "ReconstructionFailure", "RigidityError", "Segment", "SpectrumMismatchError", "Word",
    "WordError", "apply_hom", "attach_tree", "branch_point_map", "brute_force_isometry",
    "compute_core", "concat_reduce", "core_equals_loop_union", "core_loop_union_agrees",
    "cyclically_reduce", "disguise", "distinguishing_pair", "enumerate_cyclic_loops",
    "extend_isometry", "format_length", "format_path", "format_word", "identity_hom",
    "is_circle", "is_reduced", "loop_to_word", "marked_length", "parse_length", "parse_path",
    "parse_word", "random_graph", "read_graph", "read_hom", "read_truth", "reconstruct",
    "recovered_length", "reduce_path", "retraction_check", "shortest_path", "spanning_tree",
    "spectra_agree_up_to", "spectrum_table", "subdivide_edge", "transport_path",
    "truth_comments", "validate_graph", "verify_induces_hom", "vertex_degree", "word_to_loop",
    "write_graph", "write_hom",
]


def test_public_names_are_pinned():
    names = sorted(n for n in dir(mlsgraph) if not n.startswith("_")
                   and not isinstance(getattr(mlsgraph, n), types.ModuleType))
    assert names == PUBLIC_NAMES


def test_readme_quick_start_runs_as_written():
    """Runs the block statement by statement and keeps the value of each bare
    expression, which is what its comment states."""
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    source = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace, values, out = {}, [], io.StringIO()
    with contextlib.redirect_stdout(out):
        for node in ast.parse(source).body:
            if isinstance(node, ast.Expr):
                code = compile(ast.Expression(node.value), "README.md", "eval")
                values.append(eval(code, namespace))
            else:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert values == [Fraction(3), Fraction(5), None]
    core = namespace["core"]
    assert core.branch_points == {0, 1} and len(core.segments) == 3
    assert out.getvalue().rstrip().endswith("\nverdict ACCEPT")
