"""Paired cold runs of one command line from two source trees: peak RSS and
wall time of each side, and how many pairs each side won.

    python tests/paired_peaks.py TREE_A TREE_B [--pairs N] -- ARGV...

for example

    python tests/paired_peaks.py ../base ../work --pairs 10 -- fisher-scan \\
        --omega 1 --b0 1 --theta 1.5 --omega0 2 --axis b0:0.1:5:500 \\
        --axis theta:0.01:3.13:500 --out scan.csv

Each run is ``python -m rabi_est.cli ARGV`` in a fresh interpreter, with the
tree's ``src`` on PYTHONPATH, RABI_EST_THREADS=1 and no bytecode written, so
every run compiles the modules it loads, as the benchmark's ops do. It runs
in a working directory of its side, which relative output paths in ARGV
land in. The runs go pair by pair, and the side that runs first alternates.
Each run is forked from this process, which imports no numpy: Linux counts
the resident memory of the process a child was forked from in the child's
peak RSS (ru_maxrss).

Printed: each side's median and quartiles of peak RSS (MB) and wall time
(s), the pairs in which B was lower on each, and whether the two sides wrote
the same bytes. Trees whose paths differ in length are refused: the length
of the path alone moves a run's peak RSS by up to ~0.6 MB, more than the
differences this measures. The exit status is 1 if any run failed.

The name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def run(tree: Path, argv: list, cwd: str) -> tuple[int, float, float]:
    """Exit status, wall seconds and peak RSS in MB of one run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), RABI_EST_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "rabi_est.cli", *argv], env=env, cwd=cwd,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    return os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss / 1024.0


def digest(directory: str) -> str:
    """sha256 over the names and bytes of the files in ``directory``, read
    by pieces: a whole output read at once would raise this process's peak
    RSS, and with it that of every run forked after."""
    h = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        h.update(path.name.encode() + b"\0")
        with open(path, "rb") as fp:
            while piece := fp.read(1 << 16):
                h.update(piece)
    return h.hexdigest()


def spread(values: list) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {median:.3f} (quartiles {q1:.3f}, {q3:.3f})"


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("argv", nargs="+", help="the command line, after --")
    args = parser.parse_args(argv)
    trees = [args.tree_a.resolve(), args.tree_b.resolve()]
    if len(str(trees[0])) != len(str(trees[1])):
        parser.error(f"tree paths differ in length: {trees[0]} ({len(str(trees[0]))}), "
                     f"{trees[1]} ({len(str(trees[1]))})")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    rss, wall, outputs, failed = ([], []), ([], []), [set(), set()], 0
    with tempfile.TemporaryDirectory() as a_dir, tempfile.TemporaryDirectory() as b_dir:
        dirs = (a_dir, b_dir)
        for pair in range(args.pairs):
            for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                status, seconds, peak = run(trees[side], args.argv, dirs[side])
                failed += status != 0
                wall[side].append(seconds)
                rss[side].append(peak)
                outputs[side].add(digest(dirs[side]))
    for side, name in enumerate("AB"):
        print(f"{name} {trees[side]}: peak RSS MB {spread(rss[side])}; wall s {spread(wall[side])}")
    for label, values in (("peak RSS", rss), ("wall time", wall)):
        won = sum(b < a for a, b in zip(*values))
        print(f"B lower {label} in {won} of {args.pairs} pairs")
    same = len(outputs[0]) == len(outputs[1]) == 1 and outputs[0] == outputs[1]
    print(f"outputs: {'identical' if same else 'DIFFER'}; failed runs: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
