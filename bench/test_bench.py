"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import FIGURES, Op  # noqa: E402


@pytest.fixture
def recorder():
    """A tracer installed in this process; the wrapped names are restored after."""
    import rabi_est.cli  # noqa: F401  (loads every module the tracer wraps)
    saved = {name: dict(vars(mod)) for name, mod in sys.modules.items()
             if name.startswith("rabi_est")}
    from rabi_est.scan import GridTable
    to_csv = GridTable.to_csv
    rec = tracer.Recorder("test")
    tracer.install(rec)
    yield rec
    for name, namespace in saved.items():
        vars(sys.modules[name]).update(namespace)
    GridTable.to_csv = to_csv


def test_integrate_evals_count_every_integrand_point(recorder):
    from rabi_est import numerics

    seen = []

    def f(x):
        seen.append(np.size(x))
        return np.sin(x) ** 2

    value = numerics.integrate(f, 0.0, np.pi)
    assert value == pytest.approx(np.pi / 2, rel=1e-9)
    [span] = [s for s in recorder.spans if s[0] == "numerics.integrate"]
    assert span[6] == sum(seen) > 0
    values, absent = tracer.layer_metrics([recorder.dump()])
    assert values["numerics.integrate.calls"] == 1
    assert values["numerics.integrate.evals"] == sum(seen)
    assert values["numerics.integrate.wasted_evals_share"] == 0.0
    assert absent == []


def test_evals_of_a_failed_integrate_are_wasted(recorder):
    from rabi_est import numerics
    from rabi_est.errors import DomainError

    with pytest.raises(DomainError):
        numerics.integrate(lambda x: np.where(x > 0.5, np.inf, x), 0.0, 1.0)
    values, _ = tracer.layer_metrics([recorder.dump()])
    assert values["numerics.integrate.failed"] == 1
    assert values["numerics.integrate.wasted_evals_share"] == 1.0


def test_tracer_reports_a_missing_name_instead_of_failing(recorder, monkeypatch):
    monkeypatch.setattr(tracer, "SPANS", tracer.SPANS + (("fisher", "cfi_merged_away"),))
    rec = tracer.Recorder("missing")
    tracer.install(rec)
    values, absent = tracer.layer_metrics([rec.dump()])
    assert absent == ["fisher.cfi_merged_away"]
    assert values["numerics.integrate.calls"] == 0


@pytest.mark.parametrize("name, command, reference, tolerances", FIGURES)
def test_comparator_flags_a_perturbed_golden_cell(name, command, reference, tolerances):
    golden = (ROOT / "tests" / "golden" / reference).read_text(encoding="utf-8")
    is_json = reference.endswith(".json")
    assert checks.compare_golden(golden, golden, tolerances, is_json) == []
    tol = tolerances["*"]
    if is_json:
        data = json.loads(golden)
        data["roots"][0]["value"] *= 1.0 + 10 * tol
        bumped = json.dumps(data)
        data["roots"][0]["value"] = json.loads(golden)["roots"][0]["value"] * (1.0 + 0.1 * tol)
        nudged = json.dumps(data)
    else:
        lines = golden.splitlines()
        cells = lines[5].split(",")
        value = float(cells[1])
        bumped = "\n".join([*lines[:5], ",".join([cells[0], repr(value + 10 * tol * max(1.0, abs(value))), *cells[2:]]), *lines[6:]])
        nudged = "\n".join([*lines[:5], ",".join([cells[0], repr(value + 0.1 * tol * max(1.0, abs(value))), *cells[2:]]), *lines[6:]])
    assert len(checks.compare_golden(bumped, golden, tolerances, is_json)) == 1
    assert checks.compare_golden(nudged, golden, tolerances, is_json) == []


FAKE_CLI = """\
import sys
args = sys.argv[1:]
out = args[args.index("--out") + 1]
if args[0] == "0":
    with open(out, "w") as fp:
        fp.write(args[1].replace(";", "\\n"))
    open(out + ".manifest.json", "w").close()
sys.exit(int(args[0]))
"""

ALL_ERROR_SCAN = ("b0,omega,bayes_cfi,bayes_qfi,bayes_gap,status;"
                  "0.5,3,nan,nan,nan,error:NonConvergence;"
                  "3,3,nan,nan,nan,error:NonConvergence;"
                  "3,-3,nan,nan,nan,error:NonConvergence;")


def test_fail_share_counts_exit_codes_and_error_cells(tmp_path):
    package = tmp_path / "fake" / "rabi_est"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(FAKE_CLI)
    work = tmp_path / "work"
    work.mkdir()
    env = {"PYTHONPATH": str(package.parent), "PATH": "/usr/bin:/bin"}
    bayes = lambda text, ctx: checks.bayes_scan(text, ctx, field=(1.0, 1.0, 1.5), window=(1.5, 5.0), n=8)
    ok = lambda text, ctx: checks.Verdict()
    ops = [
        Op("exit2", ("2",), "a.json", ok, "x_s"),
        Op("exit3", ("3",), "b.json", ok, "x_s"),
        Op("cells", ("0", ALL_ERROR_SCAN), "c.csv", bayes, "x_s",
           files=("c.csv.manifest.json",), attempts=3),
        Op("fine", ("0", "{}"), "d.json", ok, "x_s"),
    ]
    launcher = run.Launcher()
    try:
        runner = run.Runner(run.Context(work, env, seed=0), launcher, ops, deadline=float("inf"))
        runner.run_pass("test")
    finally:
        launcher.close()
    assert runner.attempted == 6
    assert runner.failed == {"exit2": 1, "exit3": 1, "cells": 3, "fine": 0}
    assert runner.failed_total == 5
    assert runner.wrong == []


def test_calibrated_times_are_scaled_by_the_reference_runs_around_them(tmp_path):
    package = tmp_path / "fake" / "rabi_est"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(FAKE_CLI)
    env = {"PYTHONPATH": str(package.parent), "PATH": "/usr/bin:/bin"}
    ok = lambda text, ctx: checks.Verdict()
    ops = [Op("one", ("0", "{}"), "a.json", ok, "x_s"), Op("two", ("0", "{}"), "b.json", ok, "x_s")]
    launcher = run.Launcher()
    try:
        runner = run.Runner(run.Context(tmp_path, env, seed=0), launcher, ops,
                            deadline=float("inf"), calibrate=True)
        timing = runner.run_pass("test")
        assert timing["two"][2] is None  # waits for the next run of REFERENCE
        runner.end_timing()
    finally:
        launcher.close()
    refs = runner.reference
    assert len(refs) == 3
    for i, op_id in enumerate(("one", "two")):
        seconds, _, scaled = timing[op_id]
        assert scaled == pytest.approx(seconds * run.REFERENCE_S * 2 / (refs[i] + refs[i + 1]))
