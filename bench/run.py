#!/usr/bin/env python3
"""End-to-end benchmark of the rabi_est command line.

    python3 bench/run.py --workload {posterior,trials,landscapes} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root. One client runs the workload's ops (see
workloads.py) one at a time, each as ``python -m rabi_est.cli`` in a fresh
interpreter with ``RABI_EST_THREADS=1``, and checks every output (see
checks.py). Lines starting with "#" report the machine, each op and the
workload's own figures; the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` and ``failed`` count one pass of the workload; an op fails when
it exits non-zero, gives a wrong answer, or (bayes-scan) has an ``error:*``
cell. ``correct`` is false when any answer is wrong or an op's output is not
byte-identical across its executions.

--trace 0 runs passes over the ops for S seconds of the ops' own time:
another pass starts only while, at the pace of the passes so far, it ends
within S (after a single pass, one quick op runs again for the byte check).
Set-up samples, and in the workloads of workloads.REFERENCE_TIMED the ops
too, are timed between runs of REFERENCE and reported in reference seconds
(see scaled); the other ops in seconds. It reports the end-to-end metrics:

- wall_s: seconds for one pass of the workload, each op counted at its
  median execution in the run (see op_seconds);
- setup_s: median reference seconds for a fresh interpreter to import
  rabi_est.cli, sampled SETUP_SAMPLES times, evenly over the ops' time;
- peak_rss_mb: the largest peak RSS of any op;
- ok_share: 1 - failed / attempted.

--trace 1 runs one plain pass, then the same ops through tracer.py, then the
process-pool ops once more with two workers, and reports the per-layer
metrics (see tracer.PER_LAYER).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import REFERENCE_TIMED, WORKLOADS, ops_for  # noqa: E402

SETUP_SAMPLES = 10    # set-up samples per run, spread over the ops' time

# The reference: a fixed computation that uses no rabi_est code. A fresh
# interpreter imports numpy and runs a small mixed Python and numpy loop, as
# the ops do. On a quiet machine with 2 cores it takes about REFERENCE_S.
REFERENCE_S = 0.2
REFERENCE = """\
import math
import numpy as np
x = np.linspace(0.1, 5.0, 201)
s = 0.0
for i in range(2000):
    y = np.sin(x * (1.0 + 1e-4 * i)) ** 2
    s += float(np.sum(y)) * math.exp(-1e-4 * i)
    for j in range(50):
        s += math.sqrt(i + j)
print(repr(s))
"""
OP_TIMEOUT = 120.0    # seconds before an op is killed and counted as failed
RUN_BUDGET = 160.0    # seconds after which no op starts; the run must end by 180 s
RERUN_UNDER = 3.0     # after a single pass, one op faster than this runs again

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
)


class Launcher:
    """Client of launcher.py, which starts every timed process."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-S", str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def spawn(self, cmd, env, cwd, timeout, stderr, stdout=None):
        """Run cmd to completion; return (exit code, seconds, peak RSS in MB)."""
        request = {"cmd": cmd, "env": env, "cwd": str(cwd), "timeout": timeout,
                   "stdout": stdout and str(Path(cwd) / stdout), "stderr": str(Path(cwd) / stderr)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher.py stopped")
        reply = json.loads(reply)
        return reply["rc"], reply["seconds"], reply["rss_mb"]

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Context:
    """What the checks may use besides an op's output."""

    def __init__(self, workdir: Path, env: dict, seed: int):
        self.workdir = workdir
        self.env = env
        self.seed = seed
        self.golden_dir = GOLDEN
        self._counts = {}

    def trial_counts(self, field, truth, n, count) -> list:
        """Photon counts of trials 0..count-1, from the public simulate_dataset."""
        key = (field, truth, n, count)
        if key not in self._counts:
            code = (
                "import json, sys\n"
                "from rabi_est.dynamics import FieldConfig\n"
                "from rabi_est.montecarlo import simulate_dataset\n"
                "omega, b0, theta, truth, n, seed, count = json.loads(sys.argv[1])\n"
                "cfg = FieldConfig(omega=omega, b0=b0, theta=theta)\n"
                "json.dump([simulate_dataset(cfg, truth, n, seed, stream=i).k"
                " for i in range(count)], sys.stdout)\n"
            )
            arg = json.dumps([*field, truth, n, self.seed, count])
            out = subprocess.run([sys.executable, "-c", code, arg], env=self.env, cwd=self.workdir,
                                 capture_output=True, text=True, timeout=60, check=True)
            self._counts[key] = json.loads(out.stdout)
        return self._counts[key]


class Runner:
    """Executes ops, checks their outputs and keeps per-op outcomes."""

    def __init__(self, ctx: Context, launcher: Launcher, ops: list, deadline: float,
                 calibrate: bool = False):
        self.ctx = ctx
        self.launcher = launcher
        self.ops = ops
        self.deadline = deadline
        self.failed = {op.id: 0 for op in ops}
        self.verdicts = {}  # op id -> (output digest, verdict) of its first checked output
        self.wrong = []
        self.setup = []      # set-up samples, in reference seconds
        self.measured = 0.0  # seconds of plain op executions so far
        # Set-up samples are timed between two runs of REFERENCE. With
        # calibrate, each op is started right after a run of REFERENCE and
        # scaled once the next one has ended (see scaled).
        self.calibrate = calibrate
        self.reference = []  # seconds of every run of REFERENCE
        self._unscaled = []  # (timing, seconds of the run of REFERENCE before it)

    def _timed(self, cmd, env, timeout, stderr):
        """Run an op's process; returns its exit code and its timing, the list
        [seconds, peak RSS in MB, scaled seconds]. Without calibrate the scaled
        seconds are the seconds; with it they are None until the next run of
        REFERENCE."""
        before = self.time_reference() if self.calibrate else None
        rc, seconds, rss = self.launcher.spawn(cmd, env, self.ctx.workdir, timeout, stderr)
        timing = [seconds, rss, seconds]
        if self.calibrate:
            timing[2] = None
            self._unscaled.append((timing, before))
        return rc, timing

    def time_reference(self) -> float:
        """Seconds of one run of REFERENCE in a fresh interpreter; scales the
        timings that waited for it."""
        rc, seconds, _ = self.launcher.spawn([sys.executable, "-c", REFERENCE], self.ctx.env,
                                             self.ctx.workdir, 60, stderr="reference.stderr")
        if rc != 0:
            raise SystemExit(f"bench: the reference computation failed with exit {rc}")
        self.reference.append(seconds)
        for timing, before in self._unscaled:
            timing[2] = scaled(timing[0], before, seconds)
        self._unscaled = []
        return seconds

    def end_timing(self) -> None:
        """Scale the timings still waiting for a run of REFERENCE."""
        if self._unscaled:
            self.time_reference()

    def execute(self, op, label: str, traced: bool = False, threads: int = 1):
        """Run one op; returns its timing (see _timed), or None if not started."""
        work = self.ctx.workdir
        for name in op.outputs:
            (work / name).unlink(missing_ok=True)
        left = self.deadline - time.perf_counter()
        if left <= 0:
            print(f"# {label} {op.id}: not started, run budget spent")
            self.failed[op.id] = op.attempts
            return None
        argv = [*op.argv, "--out", op.out]
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), f"{op.id}.trace.json", op.id, "--", *argv]
        else:
            cmd = [sys.executable, "-m", "rabi_est.cli", *argv]
        env = dict(self.ctx.env, RABI_EST_THREADS=str(threads))
        rc, timing = self._timed(cmd, env, min(OP_TIMEOUT, left), stderr=f"{op.id}.stderr")
        seconds, rss = timing[:2]
        verdict = checks.Verdict(attempts=op.attempts, failed=op.attempts)
        if rc == 0:
            verdict = self._judge(op)
        self.failed[op.id] = max(self.failed[op.id], min(verdict.failed, op.attempts))
        self.wrong += [f"{op.id}: {w}" for w in verdict.wrong if f"{op.id}: {w}" not in self.wrong]
        note = ""
        if rc != 0:
            lines = (work / f"{op.id}.stderr").read_text(errors="replace").strip().splitlines()
            note = f" ({lines[-1][:160]})" if lines else ""
        ref = f" (after REFERENCE {self.reference[-1]:.3f} s)" if self.calibrate else ""
        print(f"# {label} {op.id}: exit {rc}, {seconds:.3f} s{ref}, {rss:.0f} MB, "
              f"failed {verdict.failed}/{op.attempts}{note}")
        return timing

    def _judge(self, op):
        """Check an op's output; a byte-identical repeat reuses the first verdict."""
        work = self.ctx.workdir
        missing = [name for name in op.outputs if not (work / name).exists()]
        if missing:
            return checks.Verdict(attempts=op.attempts).fail(f"no output file {missing}")
        digest = hashlib.sha256()
        for name in op.outputs:
            digest.update((work / name).read_bytes())
        if op.id in self.verdicts:
            first, verdict = self.verdicts[op.id]
            if first != digest.hexdigest():
                return checks.Verdict(attempts=op.attempts).fail("output differs between executions")
            return verdict
        try:
            verdict = op.check((work / op.out).read_text(encoding="utf-8"), self.ctx)
        except Exception as exc:  # a malformed output is a wrong answer
            verdict = checks.Verdict(attempts=op.attempts).fail(f"check failed: {exc!r}")
        self.verdicts[op.id] = (digest.hexdigest(), verdict)
        return verdict

    def sample_setup(self) -> None:
        """Time a fresh interpreter importing rabi_est.cli, between two runs
        of REFERENCE (see setup_s)."""
        code = "import sys, rabi_est.cli; sys.stdout.write(rabi_est.cli.__file__)"
        before = self.time_reference()
        rc, seconds, _ = self.launcher.spawn([sys.executable, "-c", code], self.ctx.env,
                                             self.ctx.workdir, 60, stderr="setup.stderr",
                                             stdout="setup.txt")
        after = self.time_reference()
        if rc != 0:
            raise SystemExit(f"bench: importing rabi_est.cli failed with exit {rc}")
        where = Path((self.ctx.workdir / "setup.txt").read_text()).resolve()
        if SRC.resolve() not in where.parents:
            raise SystemExit(f"bench: rabi_est imported from {where}, not from {SRC}")
        self.setup.append(scaled(seconds, before, after))

    def run_pass(self, label: str, traced: bool = False, setup_every: float = 0.0) -> dict:
        """Run every op once. With ``setup_every`` > 0, a set-up sample is
        taken before an op whenever another ``setup_every`` seconds of plain
        op time have passed since the run began."""
        timing = {}
        for op in self.ops:
            while setup_every and self.measured >= len(self.setup) * setup_every:
                self.sample_setup()
            timing[op.id] = self.execute(op, label, traced)
            if timing[op.id] and not traced:
                self.measured += timing[op.id][0]
        return timing

    @property
    def attempted(self) -> int:
        return sum(op.attempts for op in self.ops)

    @property
    def failed_total(self) -> int:
        return sum(self.failed.values())


def scaled(seconds: float, before: float, after: float) -> float:
    """Seconds of a process in reference seconds: what they would be on a
    machine where REFERENCE takes REFERENCE_S, judged by the runs of
    REFERENCE just before and just after the process. Each core of a shared
    host runs 40% slower or more, for seconds to minutes, while other
    tenants are busy; those runs slow down by about as much, so the ratio
    holds where the raw time does not."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)


def op_seconds(ops: list, passes: list) -> dict:
    """Seconds (scaled, see Runner) of each op's median execution over the
    passes; an op the run budget left no time for counts as OP_TIMEOUT.
    Unlike the fastest execution, the median does not fall as a faster
    program fits in more passes."""
    return {op.id: statistics.median([t[op.id][2] for t in passes if t[op.id]] or [OP_TIMEOUT])
            for op in ops}


def figures(ops: list, seconds: dict) -> dict:
    """The workload's own figures: seconds, or work units per second."""
    sums = {}
    for op in ops:
        s, w = sums.get(op.metric, (0.0, 0))
        sums[op.metric] = (s + seconds[op.id], w + op.work)
    return {m: (w / s, "1/s") if w else (s, "s") for m, (s, w) in sums.items()}


def pass_seconds(timing: dict) -> float:
    return sum(t[0] for t in timing.values() if t)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit an unsigned 64-bit integer")
    if not (SRC / "rabi_est" / "cli.py").is_file() or not GOLDEN.is_dir():
        print(f"bench: run from the repository root; {SRC / 'rabi_est'} or {GOLDEN} is missing",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    launcher = Launcher()
    try:
        return _run(args, workdir, launcher, started)
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path, launcher: Launcher, started: float) -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC), RABI_EST_THREADS="1")
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} RABI_EST_THREADS=1")
    ctx = Context(workdir, env, args.seed)
    ops = ops_for(args.workload, args.seed)
    random.Random(args.seed).shuffle(ops)
    calibrate = not args.trace and args.workload in REFERENCE_TIMED
    runner = Runner(ctx, launcher, ops, started + RUN_BUDGET, calibrate)

    if args.trace:
        runner.sample_setup()
    every = 0.0 if args.trace else args.seconds / SETUP_SAMPLES
    plain = [runner.run_pass("pass 1", setup_every=every)]
    if args.trace:
        traced = runner.run_pass("traced", traced=True)
        pool = {}
        for op in ops:
            if op.pool and plain[0][op.id]:
                pool[op.id] = runner.execute(op, "2 workers", threads=2)
        values = _layer_values(workdir, ops, plain[0], traced, pool)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracer.PER_LAYER}
    else:
        while runner.measured * (len(plain) + 1) / len(plain) <= args.seconds:
            if time.perf_counter() - started + pass_seconds(plain[-1]) > RUN_BUDGET:
                break
            plain.append(runner.run_pass(f"pass {len(plain) + 1}", setup_every=every))
        if len(plain) == 1:
            _rerun_one(runner, plain[0], args.seed)
        runner.end_timing()
        seconds = op_seconds(ops, plain)
        for metric, (value, unit) in figures(ops, seconds).items():
            print(f"# {metric} {value:.6g} {unit}")
        rss = max((t[1] for timing in plain for t in timing.values() if t), default=0.0)
        print(f"# {len(plain)} passes, {len(runner.setup)} set-up samples")
        if calibrate:
            raw = sum(statistics.median([t[op.id][0] for t in plain if t[op.id]] or [OP_TIMEOUT])
                      for op in ops)
            print(f"# in reference seconds; unscaled wall_s {raw:.6g} s, REFERENCE took "
                  f"{statistics.median(runner.reference):.6g} s (median of {len(runner.reference)}) "
                  f"against REFERENCE_S = {REFERENCE_S:g} s")
        values = {
            "wall_s": sum(seconds.values()),
            "setup_s": statistics.median(runner.setup),
            "peak_rss_mb": rss,
            "ok_share": 1.0 - runner.failed_total / runner.attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(f"# fail_share {runner.failed_total / runner.attempted:.6g} share "
          f"({runner.failed_total}/{runner.attempted})")
    for line in runner.wrong:
        print(f"# WRONG {line}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed_total,
        "metrics": metrics,
    }))
    return 0


def _rerun_one(runner: Runner, timing: dict, seed: int) -> None:
    """Execute one quick op (else the fastest) again, so that its output is
    compared byte for byte with the first execution's."""
    ran = sorted((t[0], op_id) for op_id, t in timing.items() if t)
    quick = [op_id for seconds, op_id in ran if seconds < RERUN_UNDER] or [op_id for _, op_id in ran[:1]]
    if quick:
        op_id = random.Random(seed).choice(quick)
        runner.execute(next(op for op in runner.ops if op.id == op_id), "repeat")


def _layer_values(workdir: Path, ops: list, plain: dict, traced: dict, pool: dict) -> dict:
    traces = []
    for op in ops:
        path = workdir / f"{op.id}.trace.json"
        if path.exists():
            traces.append(json.loads(path.read_text()))
    values, absent = tracer.layer_metrics(traces)
    for name in absent:
        print(f"# absent from rabi_est, reported as 0: {name}")
    untraced = pass_seconds(plain)
    values["trace.overhead_share"] = pass_seconds(traced) / untraced - 1.0 if untraced else 0.0
    one = sum(plain[op_id][0] for op_id, t in pool.items() if t)
    two = sum(t[0] for t in pool.values() if t)
    values["scan.pool_speedup"] = one / two if two else 0.0
    return values


if __name__ == "__main__":
    sys.exit(main())
