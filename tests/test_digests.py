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
  c04's family up to 5 edges, then c04's 200 random graphs from seed 1000.

A change that alters one of these outputs on purpose rewrites the file in
the same change and names the changed digest in `CHANGES.md`:

    PYTHONPATH=src python tests/test_digests.py --write
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from helpers import c08_negative, disguise_instances, nielsen_compose
from test_acceptance import _connected_multigraphs, _random_corpus

from mlsgraph import cli, disguise, random_graph, reconstruct, spanning_tree, write_graph
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


def _nielsen_homs(instances):
    """(graph, disguise, hom) for each disguise: its hom composed with a
    Nielsen move that cycles through generators, signs and sides."""
    for n, (g, inst) in enumerate(instances):
        rank = inst.hom.source.rank
        yield g, inst.graph, nielsen_compose(inst.hom, 1 + n % rank, 1 + (n // 2) % rank,
                                             1 if n % 3 else -1, n % 2 == 0)


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


def compute_digests() -> dict[str, str]:
    hashes = {name: hashlib.sha256() for name in (
        "disguise-graph", "disguise-hom", "spectrum",
        "c07-sweep0", "c07-sweep4", "c08-sweep0", "c08-sweep4",
        "c07-sweep2", "c07-sweep3", "c08-sweep2", "c08-sweep3",
        "nielsen-sweep0", "nielsen-sweep2", "nielsen-sweep3", "nielsen-sweep4", "core-cli")}
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
            hashes[f"c07-sweep{sweep}"].update(
                _report(reconstruct(g, inst.graph, inst.hom, sweep)).encode())
            hashes[f"c08-sweep{sweep}"].update(_report(reconstruct(g, g2p, hom, sweep)).encode())
    for g1, g2, hom in _nielsen_homs(instances[:60]):
        for sweep in (0, 2, 3, 4):
            hashes[f"nielsen-sweep{sweep}"].update(_report(reconstruct(g1, g2, hom, sweep)).encode())
    for text in _core_outputs():
        hashes["core-cli"].update(text.encode())
    return {name: h.hexdigest() for name, h in hashes.items()}


def test_outputs_match_the_golden_digests():
    assert compute_digests() == json.loads(DIGEST_FILE.read_text(encoding="utf-8"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_digests.py --write")
    DIGEST_FILE.write_text(json.dumps(compute_digests(), indent=2) + "\n", encoding="utf-8")
