"""Memory and output guard for the largest documented runs.

Runs each command of CASES as `python -m windsym ...` in its own child
process and fails (exit 1) when a child's exit code is not 0, when its
stdout's sha256 differs from the pinned digest, or when its peak resident
set (ru_maxrss from os.wait4 on that child, KiB on Linux) exceeds the case's
limit in MB.  Each case's peak RSS is printed beside its limit, so a case
near its limit shows in every log, and its wall time beside both, for
information only: no time is a gate.

The criterion limit sits between the peak of a table-free run and that of
a run that builds a dense sigma, so the guard fails when the criterion
reads a permutation again; each homology limit sits between the table-free
peak and that of a dense sigma, so it fails when the record reads a
permutation, and the `--smith` limit sits between its list of ones
written as it is encoded and that list encoded in one piece, so it fails
when the output is joined in memory again (or the relation rows come
back).

- The criterion at p = 1000003 with d = 1, where the walk below decides,
  and at the first primes past the d = 2 and d = 3 thresholds
  65 (2d)^6 = 266240 and 3032640, p = 266261 (rank 4 of 4 over F_5) and
  p = 3032641 (rank 6 of 6 over F_5).  Those two are decided by one search
  of their pivot edges, the edge of each T_r on which the paper's proof
  rests: 10,872 and 49,929 crossings, with no component label and no
  elimination.  The search reads no permutation, holds in its
  frontier only the far points of edges not yet crossed, and marks the
  region already joined in a bitset of |P^1|/8 bytes, so all three stay
  within 2.1 MB of the interpreter's 17.4 MB.  The dense sigma, tau and
  spanning tree they replaced peaked at 45, 25 and 126 MB.
- The criterion at p = 1000003 with d = 2 (rank 4 of 4 over F_3): the
  pivot search decides it in 26,761 crossings at about 18.6 MB.  Labelling
  the components there, with a 4-byte label of |P^1| entries, took
  25.5 MB, so its limit of 21 MB fails when the pivots stop deciding and
  the labels are built.
- The criterion at p = 266261 with d = 2 for every prime l <= 100: the
  images and the pivot search are redone for each of the 25 primes, so it
  stays near 17.6 MB like one l, but takes about 0.6 s in a child process
  against 0.1 s for `--l 5`; the printed wall time is the cost of that
  repeated search.
- The criterion at p = 9999991 with d = 1 (rank 2 of 2 over F_3): in the
  guaranteed regime its one pivot edge between distinct vertices is joined
  by a walk of O(log p) sigma and tau steps, about 17.5 MB and 0.13 s in a
  child process, against 39.6 MB and 0.9 s for the graph search (203,064
  crossings), so its limit of 25 MB fails when the walk stops closing.
- The criterion at p = 9999991 (d = 2, rank 4 of 4 over F_3), the largest
  admitted prime, where that bitset is largest (1.25 MB): its pivot search
  makes 139,852 crossings at about 29.0 MB, against 93 MB with a dense
  sigma built at that level, so its limit of 30 MB also fails on the
  4-byte label array of |P^1| entries.
- `p1 --verify` at p = 1000003, the one command that builds the dense
  permutations: sigma_perm and tau_perm are 4-byte arrays of |P^1| entries,
  4 MB each, and the run peaks at about 24.8 MB and 1.7-2.6 s in a child
  process.  Its limit of 28 MB fails when one more such array is held
  beside them, or when either permutation is a list of ints.
- The homology record at p = 1000003: its shape is counted from the
  elliptic points, so it builds no permutation and stays at the
  interpreter's 17.4 MB; counting it off a dense sigma took 24.3 MB, and
  building tau and the spanning tree as well about 60 MB.
- The homology record at p = 10000019, past MAX_P1_SIZE: it runs because
  it reads no permutation, and stays at the interpreter's 17.4 MB.
- `homology --smith` at p = 1000003: its list is relation_rank ~ 5|P^1|/6
  ones read off the counts, written in batches as json encodes it, about
  23 MB; the same bytes encoded in one piece by json.dumps took 86 MB, and
  building the relation rows and certifying them (invariant_generators and
  smith_invariants, with both dense permutations) 356 MB.
- `paths sweep --pn 101 --r-max 200`, the documented MAX_HECKE_R run:
  Sigma_r grows by T_r{0,oo} alone, so each of T_1..T_200{0,oo} is listed
  once, in about 5.5 s and 17.7 MB in a child process; listing Sigma_r
  afresh for each r took 223 s.  Its limit is the homology cases' 21 MB.
- The relation checks at order 20000 over 100 trials: a block holds one
  trial there, so it stays at 19.0-19.1 MB (2.7-3.2 s in a child process);
  packing all trials into one block took about 36 MB.  It holds no index
  array, so its limit is not between two measured peaks.
- The relation checks at order 300 over 1000 trials, the documented
  MAX_QEXP_TRIALS run: 37 blocks of 27 trials and one of 1, each drawn as
  one list of 32-bit lanes from a table and read by one int.from_bytes per
  coefficient, so it stays at 17.4-17.8 MB, about the interpreter's own
  peak, in 0.20-0.24 s in a child process; its limit is
  the homology cases' 21 MB.  Its digest pins the verdicts, not the
  series: the command prints no drawn value unless a check fails, so the
  draw itself is pinned by digest in tests/test_qexp_hecke.py.

    python .github/scripts/memory_guard.py [SRC_DIR]

SRC_DIR defaults to the repository's src/.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# (argv, stdout sha256, peak RSS limit in MB)
CASES = [
    (["criterion", "--p", "1000003", "--d", "1", "--l", "3"],
     "841dfc8117e26b2698c88325cff5e7bcd21aa2f975394438df4371a2b6f5e3af", 22),
    (["criterion", "--p", "266261", "--d", "2", "--l", "5"],
     "5485130389c083525a412dd59b6991e2db6d3d02a195e50005a371fa32d717d7", 22),
    (["criterion", "--p", "3032641", "--d", "3", "--l", "5"],
     "f15d0a8abd43e4bd4ec86eeaf5d29819c7af9e56447550520e5b1d6c16152e06", 22),
    (["criterion", "--p", "1000003", "--d", "2", "--l", "3"],
     "76f1708ed896f89a435ab42c7026ccc61475d5147db65a4855f45e1e6dc63367", 21),
    (["criterion", "--p", "266261", "--d", "2", "--all-l-up-to", "100"],
     "025d2ac3839d8867e2391fc16837550a4f17609611c4970bd479dd523eece3eb", 22),
    (["criterion", "--p", "9999991", "--d", "1", "--l", "3"],
     "18ef157d37d936f1ecfab95376394c80e98c541c588d037a9a888e77e7ee9f0c", 25),
    (["criterion", "--p", "9999991", "--d", "2", "--l", "3"],
     "4f5473b7cc1c8da399ec83624a3a19adf9149b7ce711a7541bfcc8f1ff183bb6", 30),
    (["p1", "--p", "1000003", "--verify"],
     "798fc9f3f3163fb89d5ec54c9511e39dbf41417304ee75d6b28a6007f5c14866", 28),
    (["homology", "--p", "1000003", "--l", "3"],
     "039d8812475d752d50b3aac83bb8d823892ce2e31ebf87f16df70bb2638075f8", 21),
    (["homology", "--p", "10000019", "--l", "3"],
     "251c92ab624731862941822e82cd034df3821dda07367f18c92db9e9a97a2f67", 21),
    (["homology", "--p", "1000003", "--l", "3", "--smith"],
     "44bb20d77d9a8170c5ac8353c6ef781ef704cb4825305025a741486dbd06fd06", 40),
    (["paths", "sweep", "--pn", "101", "--r-max", "200"],
     "0213c6d8595a162ac0e3cb3ec8c0f0166a160543cbdf28ae5e91adde8f478eaf", 21),
    (["qexp", "verify-relations", "--order", "20000", "--trials", "100", "--seed", "0"],
     "cf38919af26eb1573da0e49fb0e61c64114302313d72a672605dfcdf5ba0c92f", 30),
    (["qexp", "verify-relations", "--order", "300", "--trials", "1000", "--seed", "0"],
     "7dd51e68b1a87dce7fe606b1dcac26c696b54ea6d73e7c6407a70f9f0de94e67", 21),
]


def run(argv: list, env: dict) -> tuple:
    """(exit code, stdout sha256, stderr, peak RSS in MB) of one child.

    A child's ru_maxrss starts from the guard's own peak, since the child
    is spawned from the guard's memory before it execs, so stdout is hashed
    as it is read and never held: holding the 5.8 MB of `homology --smith`
    raised every later case's reading to 23 MB."""
    digest = hashlib.sha256()
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-m", "windsym", *argv],
                                stdout=subprocess.PIPE, stderr=err, env=env)
        while chunk := proc.stdout.read(1 << 16):
            digest.update(chunk)
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, digest.hexdigest(), err.read().decode(), usage.ru_maxrss / 1024


def main() -> int:
    src = sys.argv[1] if len(sys.argv) > 1 else str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    failures = []
    for argv, want, limit_mb in CASES:
        start = time.perf_counter()
        code, digest, err, peak_mb = run(argv, env)
        wall_s = time.perf_counter() - start
        name = " ".join(argv)
        print(f"{name}: exit {code}, stdout sha256 {digest}, "
              f"wall {wall_s:.2f} s, peak RSS {peak_mb:.1f} MB of {limit_mb} MB")
        if code != 0:
            failures.append(f"{name}: exit code {code}: {err.strip()}")
        if digest != want:
            failures.append(f"{name}: stdout digest differs from {want}")
        if peak_mb > limit_mb:
            failures.append(f"{name}: peak RSS {peak_mb:.1f} MB exceeds {limit_mb} MB")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
