"""mlsgraph benchmark: one seeded workload, run as a closed loop in this process.

    python3 bench/run.py --workload certify-large [--seed 1] [--seconds 25] [--trace 0]

A run does a fixed number of whole rounds over its corpus: `--seconds`
divided by the workload's nominal round length.  Every round runs on a
freshly imported package, so no library state survives from one round to the
next.  Set-up (import, building the corpus, one warm-up verdict) is done
`SETUPS` times, spread over the rounds, and its median reported.  Each
verdict is timed alone and checked right after, outside its timing.  An
item's verdict time is the fastest of its rounds: on a shared machine other
load only ever slows a verdict down.  The last line of stdout is one JSON
object: `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
with `--trace 0`, per-layer ones with `--trace 1`).  A raw record of the run
goes to `bench/out/`.
"""

from __future__ import annotations

import argparse
import array
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from types import SimpleNamespace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUPS = 7

from checks import cyclic_class  # noqa: E402
from spans import MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Span names that must record calls on a workload that exercises them, in the
# timed rounds and in set-up; a traced run that finds one silent fails.
EXERCISED = {
    "certify-large": (("graphs.MetricGraph", "graphs.require_valid", "hull.compute_core",
                       "paths.EdgePath", "paths.shortest_path", "paths.cyclic_reduce_based",
                       "rigidity.distinguishing_pair", "rigidity.transport_path",
                       "rigidity.branch_point_map", "rigidity.extend_isometry",
                       "rigidity.verify_induces_hom"), ("disguise.disguise",)),
    "sweep-default": (("fungroup.marked_length", "fungroup.word_to_loop", "fungroup.apply_hom",
                       "paths.cyclically_reduce", "rigidity.transport_path",
                       "rigidity.branch_point_map"), ("disguise.disguise",)),
    "reject-cli": (("cli.main", "graphs.read_graph", "fungroup.read_hom",
                    "fungroup.spanning_tree", "graphs.require_valid", "hull.compute_core",
                    "fungroup.marked_length"), ("disguise.disguise",)),
    "core-oracle": (("graphs.MetricGraph", "hull.compute_core", "hull.core_loop_union_agrees",
                     "oracle._enumerate_loop_codes", "oracle.covering_loop_depth"), ()),
}

# Per-layer metrics of the traced run.  `.calls` and `.self_ms` are per
# verdict over the timed rounds; `disguise.*` are per set-up.
SPAN_CALLS = ("rigidity.distinguishing_pair", "rigidity.transport_path", "paths.shortest_path",
              "paths.EdgePath", "paths.cyclic_reduce_based", "fungroup.marked_length",
              "fungroup.word_to_loop", "fungroup.apply_hom", "paths.cyclically_reduce",
              "graphs.read_graph", "fungroup.spanning_tree", "hull.compute_core",
              "graphs.MetricGraph")
SPAN_SELF = SPAN_CALLS + ("cli.main", "fungroup.read_hom", "hull.core_loop_union_agrees",
                          "oracle._enumerate_loop_codes", "oracle.covering_loop_depth")
PHASE_MS = ("branch_map", "segment_map", "induced_hom", "sweep", "parse", "basis",
            "validate", "core")
SETUP_SPANS = ("disguise.disguise",)


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in output order."""
    units = {}
    for label in SPAN_CALLS:
        units[f"{label}.calls"] = "calls/verdict"
    for label in SPAN_SELF:
        units[f"{label}.self_ms"] = "ms/verdict"
    for phase in PHASE_MS:
        units[f"phase.{phase}_ms"] = "ms/verdict"
    units["rigidity.transports_per_segment"] = "1/segment"
    units["phase.sweep_queries_per_class"] = "1/class"
    for label in SETUP_SPANS:
        units[f"{label}.calls"] = "calls/setup"
        units[f"{label}.self_ms"] = "ms/setup"
    return units


def fresh_import():
    """Import mlsgraph and its modules anew, so each set-up pays for import."""
    for name in [n for n in sys.modules if n == "mlsgraph" or n.startswith("mlsgraph.")]:
        del sys.modules[name]
    pkg = importlib.import_module("mlsgraph")
    if os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__))) != SRC:
        raise SystemExit(f"bench: imported mlsgraph from {pkg.__file__}, not from {SRC}")
    return pkg, {m: importlib.import_module(f"mlsgraph.{m}") for m in MODULES}


def git_revision() -> str | None:
    """HEAD of the checkout the benchmark runs from; None outside a git
    checkout (git is kept from finding a repository above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def layer_metrics(timed: dict, setup: dict, classes: int, verdicts: int, setups: int,
                  segments: int) -> dict:
    spans, phases = timed["spans"], timed["phases_ns"]
    zero = {"calls": 0, "self_ns": 0}
    values = {}
    for label in SPAN_CALLS:
        values[f"{label}.calls"] = spans.get(label, zero)["calls"] / verdicts
    for label in SPAN_SELF:
        values[f"{label}.self_ms"] = spans.get(label, zero)["self_ns"] / 1e6 / verdicts
    for phase in PHASE_MS:
        values[f"phase.{phase}_ms"] = phases[phase] / 1e6 / verdicts
    transports = spans.get("rigidity.transport_path", zero)["calls"]
    values["rigidity.transports_per_segment"] = transports / segments if segments else 0
    queries = timed["edges"].get(("fungroup.marked_length", "rigidity.reconstruct"), 0)
    values["phase.sweep_queries_per_class"] = queries / classes if classes else 0
    for label in SETUP_SPANS:
        values[f"{label}.calls"] = setup["spans"].get(label, zero)["calls"] / setups
        values[f"{label}.self_ms"] = setup["spans"].get(label, zero)["self_ns"] / 1e6 / setups
    units = per_layer_units()
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run(workload_name: str, seed: int, seconds: float, traced: bool, workdir: str):
    workload = WORKLOADS[workload_name]
    verdict, check = workload.verdict, workload.check
    tracer = Tracer() if traced else None
    rounds = max(1, int(seconds // workload.round_s))
    # Set-up k runs before round k * rounds // SETUPS, so the set-ups are spread
    # over the run like the rounds are.
    setup_before = [k * rounds // SETUPS for k in range(SETUPS)]
    setups: list[float] = []
    problems = []
    setup_ranges, round_ranges, swept_ranges = [], [], []
    lib = items = None
    times = best = None
    attempted = failed = segments = 0

    for r in range(rounds):
        for _ in range(setup_before.count(r)):
            lib = items = None
            gc.collect()
            lo = len(tracer) if tracer is not None else 0
            t0 = time.perf_counter()
            pkg, mods = fresh_import()
            if tracer is not None:
                tracer.install(pkg, mods)
            lib = SimpleNamespace(**mods)
            items, warm = workload.build(lib, seed, workdir)
            warm_result = workload.verdict(lib, warm)
            setups.append(time.perf_counter() - t0)
            if tracer is not None:
                setup_ranges.append((lo, len(tracer)))
            problem = check(warm, warm_result)
            if problem is not None:
                problems.append(problem)
        if r not in setup_before:
            lib = None
            gc.collect()
            pkg, mods = fresh_import()
            if tracer is not None:
                tracer.install(pkg, mods)
            lib = SimpleNamespace(**mods)
        if times is None:
            times = array.array("d", bytes(8 * rounds * len(items)))
            best = [math.inf] * len(items)
        gc.collect()
        swept_lo = len(tracer.swept_words) if tracer is not None else 0
        for i, item in enumerate(items):
            attempted += 1
            segments += getattr(item, "segments", 0)
            lo = len(tracer) if tracer is not None else 0
            t = time.perf_counter()
            try:
                result = verdict(lib, item)
            except Exception:
                failed += 1
                if failed == 1:
                    traceback.print_exc(file=sys.stderr)
                continue
            dt = time.perf_counter() - t
            times[r * len(items) + i] = dt
            best[i] = min(best[i], dt)
            if tracer is not None:
                # Spans of the checks fall outside the timed ranges.
                if round_ranges and round_ranges[-1][1] == lo:
                    lo = round_ranges.pop()[0]
                round_ranges.append((lo, len(tracer)))
            problem = check(item, result)
            if problem is not None:
                problems.append(problem)
            result = None
        if tracer is not None:
            swept_ranges.append((swept_lo, len(tracer.swept_words)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    best = [b for b in best if b != math.inf]
    if not best:
        raise SystemExit(f"bench: all {attempted} verdicts of {workload_name} failed")
    for p in sorted(set(problems)):
        print(f"bench: check failed ({problems.count(p)}x): {p}", file=sys.stderr)
    verdicts_per_s = len(best) / sum(best)
    verdict_ms = sorted(t * 1e3 for t in times if t > 0)
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "python": sys.version, "implementation": platform.python_implementation(),
        "platform": platform.platform(), "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(), "rounds": rounds, "setup_s": setups,
        "round_ms": [sum(times[r * len(items):(r + 1) * len(items)]) * 1e3
                     for r in range(rounds)],
        "best_ms": [round(t * 1e3, 4) for t in best], "verdicts_per_s": verdicts_per_s,
        "reference": {f"p{q}": statistics.quantiles(verdict_ms, n=100)[q - 1]
                      for q in (50, 90, 99)} if len(verdict_ms) >= 100 else {},
    }
    if tracer is None:
        metrics = {
            "verdicts_per_s": {"value": verdicts_per_s, "unit": "1/s"},
            "verdict_ms_p50": {"value": statistics.median(best) * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        timed = tracer.summarize(round_ranges)
        setup = tracer.summarize(setup_ranges)
        for region, summary, labels in (("timed rounds", timed, EXERCISED[workload_name][0]),
                                        ("set-up", setup, EXERCISED[workload_name][1])):
            silent = [label for label in labels
                      if summary["spans"].get(label, {"calls": 0})["calls"] == 0]
            if silent:
                raise SystemExit(f"bench: traced {workload_name} recorded no call to "
                                 f"{', '.join(silent)} in its {region}")
        classes = sum(len({cyclic_class(w) for w in words})
                      for lo, hi in swept_ranges for words in tracer.swept_words[lo:hi])
        metrics = layer_metrics(timed, setup, classes, attempted, len(setups), segments)
        record["spans"] = {"names": tracer.names, "setup_ranges": setup_ranges,
                           "round_ranges": round_ranges, "timed": timed["spans"],
                           "setup": setup["spans"],
                           "call_graph": [[c, p, n] for (c, p), n in timed["edges"].items()]}
    record["metrics"] = metrics
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, record, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mlsgraph", "__init__.py")):
        print(f"bench: no mlsgraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        result, record, tracer = run(args.workload, args.seed, args.seconds,
                                     bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                                 f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    if tracer is not None:
        tracer.write(stem + ".spans.gz")
        record["spans"]["file"] = os.path.basename(stem + ".spans.gz")
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(record, f)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
