"""Golden digests: outputs that a change must leave byte-identical.

`digests.json` holds one sha256 per group of outputs:
- the graph file (with its truth comments) and the hom file that `disguise`
  writes, for 60 `random_graph` seeds of mixed shapes, every third one
  relabelled to sparse ids first;
- `format_spectrum_table(spectrum_table(spanning_tree(g), 3))` for the same
  60 graphs;
- `report()` of the acceptance suite's 200 disguises (c07) and 200 negatives
  (c08), at sweep 0 and at sweep 4, with an ACCEPT's induced images.

A change that alters one of these outputs on purpose rewrites the file in
the same change and names the changed digest in `CHANGES.md`:

    PYTHONPATH=src python tests/test_digests.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

from helpers import c08_negative, disguise_instances

from mlsgraph import disguise, random_graph, reconstruct, spanning_tree, write_graph
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


def compute_digests() -> dict[str, str]:
    hashes = {name: hashlib.sha256() for name in (
        "disguise-graph", "disguise-hom", "spectrum",
        "c07-sweep0", "c07-sweep4", "c08-sweep0", "c08-sweep4")}
    for g, seed in _graphs():
        inst = disguise(g, seed)
        hashes["disguise-graph"].update(
            write_graph(inst.graph, extra_comments=truth_comments(inst)).encode())
        hashes["disguise-hom"].update(write_hom(inst.hom).encode())
        hashes["spectrum"].update(
            format_spectrum_table(spectrum_table(spanning_tree(g), 3)).encode())
    for k, (g, inst) in enumerate(disguise_instances(200)):
        g2p, hom = c08_negative(g, inst, k)
        for sweep in (0, 4):
            hashes[f"c07-sweep{sweep}"].update(
                _report(reconstruct(g, inst.graph, inst.hom, sweep)).encode())
            hashes[f"c08-sweep{sweep}"].update(_report(reconstruct(g, g2p, hom, sweep)).encode())
    return {name: h.hexdigest() for name, h in hashes.items()}


def test_outputs_match_the_golden_digests():
    assert compute_digests() == json.loads(DIGEST_FILE.read_text(encoding="utf-8"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_digests.py --write")
    DIGEST_FILE.write_text(json.dumps(compute_digests(), indent=2) + "\n", encoding="utf-8")
