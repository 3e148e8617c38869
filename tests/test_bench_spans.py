"""The benchmark's span names name real library code.

`bench/run.py` lists the traced spans a workload must exercise and the ones
whose calls and own time it reports, as `module.name` strings.  A span whose
function is deleted or renamed records no call, which the benchmark finds
only in a traced run.  This test reads those lists from the script's syntax
tree (nothing under `bench/` is imported) and resolves every name in
`mlsgraph`, so such a change fails here first.
"""

import ast
import importlib
import inspect
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "bench" / "run.py"
LISTS = ("EXERCISED", "SPAN_CALLS", "SPAN_SELF", "SETUP_SPANS")


def _span_names():
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id in LISTS:
            found[node.targets[0].id] = {
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str) and "." in c.value}
    return found


def test_every_span_name_resolves():
    found = _span_names()
    assert set(found) == set(LISTS)
    assert "paths.EdgePath" in found["SPAN_CALLS"]
    assert "rigidity.distinguishing_pair" in found["EXERCISED"]
    names = set().union(*found.values())
    unresolved = []
    for label in sorted(names):
        module, _, name = label.partition(".")
        obj = getattr(importlib.import_module(f"mlsgraph.{module}"), name, None)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            unresolved.append(label)
    assert not unresolved, f"bench/run.py names no mlsgraph function or class: {unresolved}"
