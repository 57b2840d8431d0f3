"""Memory and output guard for the criterion at p = 1000003.

Runs `python -m windsym criterion --p 1000003 --d 1 --l 3` in a child
process and fails (exit 1) when its exit code is not 0, when its stdout's
sha256 differs from the pinned digest, or when the child's peak resident
set (getrusage RUSAGE_CHILDREN, KiB on Linux) exceeds LIMIT_MB.  The flat
array P^1 and presentation keep this level near 70 MB; the list-based ones
took about 240 MB.

    python .github/scripts/criterion_memory_guard.py [SRC_DIR]

SRC_DIR defaults to the repository's src/.
"""

import hashlib
import os
import resource
import subprocess
import sys
from pathlib import Path

COMMAND = ["criterion", "--p", "1000003", "--d", "1", "--l", "3"]
DIGEST = "841dfc8117e26b2698c88325cff5e7bcd21aa2f975394438df4371a2b6f5e3af"
LIMIT_MB = 120


def main() -> int:
    src = sys.argv[1] if len(sys.argv) > 1 else str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "windsym", *COMMAND],
                          capture_output=True, env=env, check=False)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    digest = hashlib.sha256(proc.stdout).hexdigest()
    print(f"exit {proc.returncode}, stdout sha256 {digest}, peak RSS {peak_mb:.1f} MB")
    failures = []
    if proc.returncode != 0:
        failures.append(f"exit code {proc.returncode}: {proc.stderr.decode().strip()}")
    if digest != DIGEST:
        failures.append(f"stdout digest differs from {DIGEST}")
    if peak_mb > LIMIT_MB:
        failures.append(f"peak RSS {peak_mb:.1f} MB exceeds {LIMIT_MB} MB")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
