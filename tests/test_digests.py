"""Golden digests: outputs that a change must leave byte-identical.

`digests.json` holds one sha256 per group of outputs:
- the graph file (with its truth comments) and the hom file that `disguise`
  writes, for 60 `random_graph` seeds of mixed shapes, every third one
  relabelled to sparse ids first;
- `format_spectrum_table(spectrum_table(spanning_tree(g), 3))` for the same
  60 graphs;
- `report()` of the acceptance suite's 200 disguises (c07) and 200 negatives
  (c08), at sweep 0, 2, 3 and 4, with an ACCEPT's induced images;
- the same for 60 of those disguises with their hom composed with one
  elementary Nielsen move, at sweep 0, 2, 3 and 4;
- `mlsgraph core` stdout on the benchmark's core-oracle corpus at seed 1:
  c04's family up to 5 edges, then c04's 200 random graphs from seed 1000;
- the exit code and stdout of `mlsgraph reconstruct` on the benchmark's
  reject-cli corpus, 48 rank-12 negatives, at seeds 1 and 2;
- the same as for c07 for the seed-3 rank ladder, `disguise(g, 103)` of
  `g = random_graph(3, v, r, 10)` at (r, v) = (16, 14), (32, 24) and
  (64, 40), at sweep 0 and 4;
- the whole certificate, which `report()` prints only in part (its length
  ledger, distance ledger, tau and induced images as well), of c07 and of
  the ladder at sweep 0, and of eight rank-16 pairs built as the benchmark's
  certify-large corpus is, at seeds 1 and 2, at sweep 0.

The file is append-only.  This command adds the digests of groups it does
not hold yet, and writes nothing and exits 1, naming them, if a digest it
holds would change:

    PYTHONPATH=src python tests/test_digests.py --write

A change that alters one of these outputs on purpose deletes the changed
entries from `digests.json` by hand, runs the command, and names the changed
digests in `CHANGES.md`.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from helpers import c08_negative, disguise_instances, nielsen_homs
from test_acceptance import _connected_multigraphs, _random_corpus
from test_sweep_order import _rank12_negatives

from mlsgraph import (cli, compute_core, disguise, random_graph, reconstruct, spanning_tree,
                      write_graph)
from mlsgraph.disguise import truth_comments
from mlsgraph.fungroup import format_spectrum_table, format_word, spectrum_table, write_hom

DIGEST_FILE = Path(__file__).with_name("digests.json")


def _graphs():
    """(graph, disguise seed) for 60 seeds: 1 to 9 vertices, 1 to 5 extra
    edges; every third graph's ids become v -> 3v + 5 and e -> 7e + 2."""
    for seed in range(60):
        g = random_graph(seed, 1 + seed % 9, 1 + seed * 7 % 5, 3 + seed % 4)
        if seed % 3 == 0:
            g = g.relabeled({v: 3 * v + 5 for v in g.vertex_ids},
                            {e: 7 * e + 2 for e in g.edge_ids})
        yield g, seed + 500


def _report(result):
    images = getattr(result, "induced_images", ())
    return result.report() + "".join(f"image {format_word(w)}\n" for w in images)


def _certificate(result):
    """`_report` plus an ACCEPT's ledgers, rows in certificate order."""
    lines = [f"length {a} {b}\n" for a, b in getattr(result, "length_ledger", ())]
    lines += [f"distance {x} {y} {d1} {d2}\n"
              for x, y, d1, d2 in getattr(result, "distance_ledger", ())]
    return _report(result) + "".join(lines)


def _certify_large_pairs(seed, count=8):
    """The benchmark's certify-large construction: (graph, disguise) for rank-16
    `random_graph(., 14, 16, 10)` drawn until pair k's core has 11 branch
    points for even k and 12 for odd k."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_graph(rng.randrange(2**31), 14, 16, 10)
        if len(compute_core(g).branch_points) == 11 + len(out) % 2:
            out.append((g, disguise(g, rng.randrange(2**31))))
    return out


def _core_outputs():
    """`mlsgraph core` stdout, one graph file at a time."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        for g in [*_connected_multigraphs(4, 5), *_random_corpus(200, seed0=1000)]:
            path.write_text(write_graph(g), encoding="utf-8")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["core", str(path)]) == 0
            yield out.getvalue()


def _reject_cli_outputs(seed):
    """Exit code and stdout of `mlsgraph reconstruct` on each negative."""
    with tempfile.TemporaryDirectory() as tmp:
        for argv in _rank12_negatives(seed, 48, Path(tmp)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            yield f"exit {code}\n{out.getvalue()}"


LADDER = ((16, 14), (32, 24), (64, 40))


def compute_digests() -> dict[str, str]:
    hashes = {name: hashlib.sha256() for name in (
        "disguise-graph", "disguise-hom", "spectrum",
        "c07-sweep0", "c07-sweep4", "c08-sweep0", "c08-sweep4",
        "c07-sweep2", "c07-sweep3", "c08-sweep2", "c08-sweep3",
        "nielsen-sweep0", "nielsen-sweep2", "nielsen-sweep3", "nielsen-sweep4", "core-cli",
        "reject-cli-seed1", "reject-cli-seed2", "ladder-sweep0", "ladder-sweep4",
        "cert-c07-sweep0", "cert-ladder-sweep0", "cert-large-seed1", "cert-large-seed2")}
    for g, seed in _graphs():
        inst = disguise(g, seed)
        hashes["disguise-graph"].update(
            write_graph(inst.graph, extra_comments=truth_comments(inst)).encode())
        hashes["disguise-hom"].update(write_hom(inst.hom).encode())
        hashes["spectrum"].update(
            format_spectrum_table(spectrum_table(spanning_tree(g), 3)).encode())
    instances = disguise_instances(200)
    for k, (g, inst) in enumerate(instances):
        g2p, hom = c08_negative(g, inst, k)
        for sweep in (0, 2, 3, 4):
            result = reconstruct(g, inst.graph, inst.hom, sweep)
            hashes[f"c07-sweep{sweep}"].update(_report(result).encode())
            if sweep == 0:
                hashes["cert-c07-sweep0"].update(_certificate(result).encode())
            hashes[f"c08-sweep{sweep}"].update(_report(reconstruct(g, g2p, hom, sweep)).encode())
    for g1, g2, hom in nielsen_homs(instances[:60]):
        for sweep in (0, 2, 3, 4):
            hashes[f"nielsen-sweep{sweep}"].update(_report(reconstruct(g1, g2, hom, sweep)).encode())
    for text in _core_outputs():
        hashes["core-cli"].update(text.encode())
    for seed in (1, 2):
        for text in _reject_cli_outputs(seed):
            hashes[f"reject-cli-seed{seed}"].update(text.encode())
    for rank, vertices in LADDER:
        g = random_graph(3, vertices, rank, 10)
        inst = disguise(g, 103)
        for sweep in (0, 4):
            result = reconstruct(g, inst.graph, inst.hom, sweep)
            hashes[f"ladder-sweep{sweep}"].update(_report(result).encode())
            if sweep == 0:
                hashes["cert-ladder-sweep0"].update(_certificate(result).encode())
    for seed in (1, 2):
        for g, inst in _certify_large_pairs(seed):
            hashes[f"cert-large-seed{seed}"].update(
                _certificate(reconstruct(g, inst.graph, inst.hom, 0)).encode())
    return {name: h.hexdigest() for name, h in hashes.items()}


def test_outputs_match_the_golden_digests():
    assert compute_digests() == json.loads(DIGEST_FILE.read_text(encoding="utf-8"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_digests.py --write")
    held = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    computed = compute_digests()
    changed = [name for name, digest in held.items() if computed.get(name, digest) != digest]
    if changed:
        sys.exit(f"digests would change: {', '.join(changed)}; delete them from "
                 f"{DIGEST_FILE.name} by hand to rewrite them")
    DIGEST_FILE.write_text(json.dumps({**held, **computed}, indent=2) + "\n", encoding="utf-8")
