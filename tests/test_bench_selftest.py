"""The benchmark's self-test passes on the program as it stands.

bench/selftest.py runs the benchmark's small workloads through their
oracles, checks that deliberately wrong outputs fail them and that traced
counts repeat exactly, so a change under src/ that breaks an oracle, the
failure accounting or traced determinism fails here. It runs in its own
process, as the benchmark does.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("0 failure(s)")
