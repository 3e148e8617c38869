"""One traced round of each benchmark workload, as the benchmark runs it.

`python3 bench/run.py --workload W --seconds 0 --trace 1` does a single
traced round over W's corpus.  It fails when an output check fails or when
a span the workload must exercise records no call, which a renamed or
bypassed function causes.  This test runs it for every workload, so either
shows up here before a benchmark run.  Its raw records go to the git-ignored
`bench/out/`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["certify-large", "sweep-default", "reject-cli",
                                      "core-oracle"])
def test_one_traced_round_passes(workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "0",
         "--trace", "1"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
