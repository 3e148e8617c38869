"""Reference figures for bench/README.md, measured once and not gated.

    python3 bench/reference.py [--seed 1]

Times one rank-8 default-sweep verdict, one rank-32 sweep-0 verdict and one
pass over c04's full family (up to 7 edges), each checked like the
workloads' verdicts.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run
from checks import check_accept, check_core
from workloads import core_and_oracle, disguise_pairs, reconstruct_pair, small_multigraphs


def timed(fn):
    t = time.perf_counter()
    result = fn()
    return time.perf_counter() - t, result


def require(problem, label: str) -> None:
    if problem is not None:
        raise SystemExit(f"reference: {label}: {problem}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, run.SRC)
    _, mods = run.fresh_import()
    lib = run.SimpleNamespace(**mods)
    figures = {}
    for label, vertices, extra, sweep in (("rank8_sweep4_s", 6, 8, 4),
                                          ("rank32_sweep0_s", 28, 32, 0)):
        item = disguise_pairs(lib, args.seed, 1, vertices, extra)[0]
        seconds, cert = timed(lambda: reconstruct_pair(lib, item, sweep))
        require(check_accept(item, cert), label)
        figures[label] = seconds
    total = 0.0
    graphs = 0
    for spec in small_multigraphs(4, 7):
        seconds, result = timed(lambda: core_and_oracle(lib, spec))
        require(check_core(spec, *result), "c04 family")
        total += seconds
        graphs += 1
    figures["c04_family_le7_pass_s"] = total
    figures["c04_family_le7_graphs"] = graphs
    print(json.dumps(figures))


if __name__ == "__main__":
    main()
