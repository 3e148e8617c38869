"""Command-line interface.

Subcommands: gen, disguise, core, spectrum, reduce, reconstruct, check-iso.
Exit codes are a stable contract: 0 for success/ACCEPT, 1 for REJECT, 2 for
usage or parse errors.  All output is deterministic; every file written here
parses back byte-identically.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .disguise import DisguiseError, disguise, truth_comments
from .fungroup import (WordError, format_spectrum_table, read_hom, spanning_tree,
                       spectrum_table, write_hom)
from .graphs import GraphError, MetricGraph, format_length, random_graph, read_graph, write_graph
from .hull import compute_core
from .oracle import BudgetExceededError, brute_force_isometry
from .paths import PathError, cyclically_reduce, format_path, parse_path, reduce_path
from .rigidity import ReconstructionFailure, reconstruct


def _load_graph(path: str) -> MetricGraph:
    return read_graph(Path(path).read_text(encoding="utf-8"))


def cmd_gen(args) -> int:
    g = random_graph(args.seed, args.vertices, args.extra, args.length_bound)
    text = write_graph(g)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_disguise(args) -> int:
    g = _load_graph(args.graph)
    try:
        inst = disguise(g, args.seed)
    except DisguiseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    Path(args.out_graph).write_text(
        write_graph(inst.graph, extra_comments=truth_comments(inst)), encoding="utf-8")
    Path(args.out_hom).write_text(write_hom(inst.hom), encoding="utf-8")
    return 0


def cmd_core(args) -> int:
    g = _load_graph(args.graph)
    decomp = compute_core(g)
    comments = [
        f"segment {s.x} {s.y} {format_length(s.length)}" for s in decomp.segments]
    out = write_graph(
        MetricGraph(decomp.core.vertex_ids,
                    ((eid, rec.u, rec.v, rec.length) for eid, rec in decomp.core.edges_sorted()),
                    name=f"{g.name}-core"),
        extra_comments=comments)
    sys.stdout.write(out)
    return 0


def cmd_spectrum(args) -> int:
    g = _load_graph(args.graph)
    basis = spanning_tree(g)
    sys.stdout.write(format_spectrum_table(spectrum_table(basis, args.max_len)))
    return 0


def cmd_reduce(args) -> int:
    g = _load_graph(args.graph)
    p = parse_path(g, args.path)
    reduced = reduce_path(p)
    print(format_path(reduced) or "-")
    if p.is_closed():
        core, conjugator = cyclically_reduce(p)
        print(f"cyclic {format_path(core) if core is not None else '-'}")
        print(f"conjugator {format_path(conjugator) or '-'}")
    return 0


def cmd_reconstruct(args) -> int:
    g1 = _load_graph(args.graph1)
    g2 = _load_graph(args.graph2)
    hom = read_hom(Path(args.hom).read_text(encoding="utf-8"),
                   spanning_tree(g1), spanning_tree(g2))
    result = reconstruct(g1, g2, hom, sweep_len=args.sweep)
    sys.stdout.write(result.report())
    return 1 if isinstance(result, ReconstructionFailure) else 0


def cmd_check_iso(args) -> int:
    d1 = compute_core(_load_graph(args.graph1))
    d2 = compute_core(_load_graph(args.graph2))
    if d1.is_empty or d2.is_empty:
        print("verdict REJECT empty-core")
        return 1
    witness = brute_force_isometry(d1.core, d2.core)
    if witness is None:
        print("verdict REJECT not-isometric")
        return 1
    vmap, pairs = witness
    for x in sorted(vmap):
        print(f"branch {x} -> {vmap[x]}")
    for i, j in pairs:
        print(f"segment {i} -> {j}")
    print("verdict ACCEPT")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlsgraph",
        description="Marked length spectra and certified isometry reconstruction "
                    "on finite metric graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random connected metric graph")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--extra", type=int, default=2, help="edges beyond a spanning tree")
    p.add_argument("--length-bound", type=int, default=10)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_gen, check=_check_gen)

    p = sub.add_parser("disguise", help="emit an isometric disguise with its hom and truth")
    p.add_argument("graph")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-hom", required=True)
    p.set_defaults(func=cmd_disguise)

    p = sub.add_parser("core", help="print the core with its segment block")
    p.add_argument("graph")
    p.set_defaults(func=cmd_core)

    p = sub.add_parser("spectrum", help="print the marked length spectrum table (TSV)")
    p.add_argument("graph")
    p.add_argument("--max-len", type=int, default=3)
    p.set_defaults(func=cmd_spectrum, check=_check_spectrum)

    p = sub.add_parser("reduce", help="reduce a path literal on a graph")
    p.add_argument("graph")
    p.add_argument("--path", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("reconstruct", help="reconstruct a certified core isometry")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("hom")
    p.add_argument("--sweep", type=int, default=4,
                   help="spectrum sweep: each conjugacy class of words up to this length is "
                        "checked once (0 disables), ceil(3S/2) of them (S core segments) before "
                        "the pipeline, about its own queries, and the rest only on a REJECT")
    p.set_defaults(func=cmd_reconstruct, check=_check_reconstruct)

    p = sub.add_parser("check-iso", help="brute-force isometry check between two cores")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.set_defaults(func=cmd_check_iso)
    return parser


def _check_gen(parser, args) -> None:
    if args.vertices <= 0 or args.extra < 0 or args.length_bound <= 0:
        parser.error("gen parameters must be positive")


def _check_spectrum(parser, args) -> None:
    if args.max_len < 1:
        parser.error("--max-len must be at least 1")


def _check_reconstruct(parser, args) -> None:
    if args.sweep < 0:
        parser.error("--sweep must be at least 0")


# Built by the first `main` call, not at import, and reused.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if [] in vars(args).values():  # argparse reads `--opt=--` as [], skipping its type
        parser.error("'--' is not an option value")
    check = getattr(args, "check", None)
    if check is not None:
        check(parser, args)
    try:
        return args.func(args)
    except (GraphError, PathError, WordError, BudgetExceededError, OSError,
            UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
