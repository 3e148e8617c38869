"""Outputs do not depend on the interpreter's hash seed.

Step tables, cores and complements are built by iterating dicts and sets of
ints, whose order does not depend on the seed; a set of strings would.  The
golden digest check is run once more, in a fresh interpreter under a fixed
seed other than the one this process may have.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

CHECK = """
import json
from test_digests import DIGEST_FILE, compute_digests
held = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
computed = compute_digests()
print(" ".join(name for name in held if computed.get(name) != held[name]))
"""


def test_digests_hold_under_another_hash_seed():
    env = {**os.environ, "PYTHONHASHSEED": "987654", "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join([str(TESTS), str(TESTS.parent / "src")])}
    run = subprocess.run([sys.executable, "-c", CHECK], cwd=TESTS, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "", f"digests that change: {run.stdout.strip()}"
