import argparse
import ast
import functools
import gc
import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from rabi_est import cli
from rabi_est.cli import main
from rabi_est.dynamics import FieldConfig, prob_detect
from rabi_est.fisher import cfi_values

FIELD = ["--omega", "1", "--b0", "1", "--theta", "1.5707963267948966"]
CFG = FieldConfig(omega=1.0, b0=1.0, theta=math.pi / 2)


def run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    rc = main([*argv, "--out", str(out)])
    return rc, (json.loads(out.read_text(encoding="utf-8")) if rc == 0 else None)


class TestExitCodes:
    def test_usage_error(self, tmp_path):
        # --n is required.
        assert main(["estimate", "ml", *FIELD, "--k", "4", "--out", str(tmp_path / "x")]) == 1
        assert main(["no-such-command"]) == 1
        # MAP's candidates come from the posterior's fixed grid; the old
        # --grid-points flag is unknown, also from a config file.
        argv = ["estimate", "map", *FIELD, "--n", "10", "--k", "4", "--prior", "uniform",
                "--window-lower", "0.5", "--window-upper", "5"]
        assert run_json([*argv, "--grid-points", "4001"], tmp_path)[0] == 1
        config = tmp_path / "defaults.conf"
        config.write_text("grid_points = 4001\n", encoding="utf-8")
        assert run_json([*argv, "--config", str(config)], tmp_path)[0] == 1

    def test_numerical_failure(self, tmp_path):
        # The resonance omega0 = 1 lies in the window, so the Jeffreys prior
        # information diverges and the van Trees bound of the run with it.
        argv = ["simulate", *FIELD, "--omega0-true", "2", "--n", "20", "--trials", "3",
                "--seed", "1", "--estimator", "mmse", "--prior", "jeffreys",
                "--window-lower", "0.5", "--window-upper", "5"]
        assert run_json(argv, tmp_path)[0] == 2

    def test_large_n_on_wide_window(self, tmp_path):
        # At n = 1e8 the posterior is ~3e-4 wide, far narrower than the mass
        # grid's cells; the closed-form peak regions resolve it.
        n, k = 100_000_000, 48784078
        width = 1.0 / math.sqrt(n * float(cfi_values(CFG, 3.0)))
        for mode in ("mmse", "map"):
            argv = ["estimate", mode, *FIELD, "--n", str(n), "--k", str(k), "--prior", "uniform",
                    "--window-lower", "0.1", "--window-upper", "100"]
            rc, payload = run_json(argv, tmp_path)
            assert rc == 0
            assert abs(payload["estimate"] - 3.0) < 5.0 * width

    @pytest.mark.parametrize("flag,value", [
        ("--omega", "nan"), ("--b0", "inf"), ("--theta", "-inf"), ("--theta-deg", "nan"),
        ("--k", "nan"), ("--prior-mean", "inf"), ("--prior-sigma", "inf"),
        ("--window-upper", "inf"), ("--axis", "omega0:0.1:inf:3")])
    def test_non_finite_flag(self, flag, value, tmp_path):
        # Each flag once, after the valid flags it would override.
        argv = ["estimate", "mmse", *FIELD, "--n", "10", "--k", "4", "--prior", "gaussian",
                "--prior-mean", "3", "--prior-sigma", "1", "--window-lower", "0.1",
                "--window-upper", "100"]
        if flag == "--axis":
            argv = ["map-curve", *FIELD, "--n", "8", "--prior", "uniform", "--window-lower", "0.1",
                    "--window-upper", "100"]
        elif flag == "--theta-deg":
            argv = [a for a in argv if a not in ("--theta", "1.5707963267948966")]
        assert main([*argv, flag, value, "--out", str(tmp_path / "out")]) == 1
        assert not list(tmp_path.iterdir())

    def test_sinc_domain_violation(self, tmp_path):
        # sqrt(0.9) exceeds b0 sin(theta) = 0.5.
        argv = ["estimate", "ml", "--omega", "1", "--b0", "0.5", "--theta", "1.5707963267948966",
                "--n", "10", "--k", "9"]
        assert run_json(argv, tmp_path)[0] == 3

    @pytest.mark.parametrize("mode", ["mmse", "map", "mmse-curve"])
    @pytest.mark.parametrize("n", ["1e306", "1e308"])
    def test_n_beyond_the_likelihood_range(self, mode, n, capsys):
        # ln n! overflows a float above n ~ 2.5e305, where estimate ml still
        # answers; the posterior estimators name n instead of a traceback,
        # and the curve fails cell by cell, as its batch of posteriors does.
        if mode == "mmse-curve":
            argv = ["mmse-curve", *FIELD, "--n", n, "--priors", "uniform", *WIDE_FLAGS,
                    "--axis", "xbar:0:1:3", "--out", "-"]
            assert main(argv) == 0
            rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
            assert [row[1:] for row in rows[1:]] == [["nan", "error:DomainError"]] * 3
            return
        argv = ["estimate", mode, *FIELD, "--n", n, "--k", "4", "--prior", "uniform",
                "--window-lower", "0.1", "--window-upper", "100", "--out", "-"]
        assert main(argv) == 3
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert err.startswith("rabi-est: DomainError: trial count n = ") and f"{float(n):g}" in err


FIELD_FLAGS = ["--omega", "--b0", "--theta", "--theta-deg"]
PRIOR_FLAGS = ["--prior", "--window-lower", "--window-upper", "--prior-mean", "--prior-sigma"]
COMMAND_FLAGS = {
    "fisher-scan": [*FIELD_FLAGS, "--omega0", "--axis", "--accuracy"],
    "ml-roots": [*FIELD_FLAGS, "--axis"],
    "bayes-scan": [*FIELD_FLAGS, *PRIOR_FLAGS, "--axis", "--n"],
    "mmse-curve": [*FIELD_FLAGS, "--priors", *PRIOR_FLAGS[1:], "--n", "--axis"],
    "map-curve": [*FIELD_FLAGS, *PRIOR_FLAGS, "--n", "--axis"],
    "estimate": [*FIELD_FLAGS, "--n", "--k", *PRIOR_FLAGS],
    "simulate": [*FIELD_FLAGS, "--omega0-true", "--n", "--trials", "--seed", "--estimator", *PRIOR_FLAGS],
}


class TestParser:
    """The parser lists every command but fills in only the invoked one's
    arguments; help and usage errors read as if it held them all."""

    def test_top_level_help_lists_every_command(self, capsys):
        assert main(["--help"]) == 0
        listed = re.findall(r"^    (\S+) +\S", capsys.readouterr().out, re.M)
        assert listed == list(COMMAND_FLAGS)

    def test_unknown_command_is_a_usage_error(self, capsys):
        assert main(["no-such-command", "--help"]) == 1
        assert "invalid choice: 'no-such-command'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_command_help_names_its_flags(self, command, capsys):
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert set(re.findall(r"--[a-z0-9-]+", text)) == {*COMMAND_FLAGS[command], "--help", "--out",
                                                          "--config"}
        assert ("positional arguments:\n  {ml,mmse,map}\n" in text) == (command == "estimate")

    # sha256 of the help text at 80 columns: the top level's (None) and each
    # command's. A change to the parser's layout must leave them unchanged.
    HELP_SHA256 = {
        None: "71d2f88463d3c6737dc7864ff5f35179e9dee1e1412111fb6dadcc85d07e2f72",
        "fisher-scan": "327d26f0a4f152d1b8053f44aaccd67f6c5d66d512ef2cdf238330f5ba93d7f3",
        "ml-roots": "4b1a6f1aaa99486ff9cd621bc68a81366a9b62ae09f24cecccb2f397dc741e0a",
        "bayes-scan": "c59733e5f978a808eef81791592174e705985077cd65d8b3de8e91ac3f2bd57d",
        "mmse-curve": "72bcbd3ecb39ad87d225b94f99284a2c035c30d1e3764554a45a01491dc48b24",
        "map-curve": "c8ae00e38983865e41c9ea6e80a661ac8793d3311e102c19e2f4fa90c84b55a6",
        "estimate": "09d6aa3aedd37b5c2ee7e3824c47bfdd479bd5239270a68507bf6c6e863959dd",
        "simulate": "e6503904e80117997d27de11656b6353040dfb4e0bea4c060e64dee4e08a7545",
    }

    @pytest.mark.parametrize("command", list(HELP_SHA256), ids=str)
    def test_help_text_is_pinned(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert main([command, "--help"] if command else ["--help"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == self.HELP_SHA256[command]

    def test_only_the_invoked_command_is_filled_in(self):
        parser = cli._build_parser("estimate")
        sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert [name for name, p in sub.choices.items() if len(p._actions) > 1] == ["estimate"]


# simulate reports at the benchmark's field, truth, n and priors with fewer
# trials, pinned byte for byte (sha256 of the whole output) together with
# their report fields.
WIDE_FLAGS = ["--window-lower", "0.1", "--window-upper", "100"]
PINNED_SIMULATE = {
    "ml": (
        ["--trials", "2000", "--estimator", "ml"],
        "650142f967953969791eb126b58389da81df5f736dddc38bd31879208cfe2298",
        dict(mean_estimate=2.288739860651671, bias=0.2887398606516709, variance=0.03573086143632651,
             crb=0.1639746107834753, vantrees_bound=None, degenerate_count=227, ambiguous_count=802,
             included_trials=971, prng_algorithm="philox4x64"),
    ),
    "mmse": (
        ["--trials", "100", "--estimator", "mmse", "--prior", "uniform", *WIDE_FLAGS],
        "a3588211cd02235a1a71c2f16c43cecee4ede49ff3ab78edf3293ef42cde9c93",
        dict(mean_estimate=1.5497281207729665, bias=-0.4502718792270335, variance=0.16756695438468952,
             crb=0.1639746107834753, vantrees_bound=0.9573422302413008, degenerate_count=0,
             ambiguous_count=0, included_trials=100, prng_algorithm="philox4x64"),
    ),
    "map": (
        ["--trials", "10", "--estimator", "map", "--prior", "gaussian", "--prior-mean", "2",
         "--prior-sigma", "1", *WIDE_FLAGS],
        "d527e2dbd74e4cf4f9518b757960f5dad15b91cc1441ecefd443b350c9cc652f",
        dict(mean_estimate=1.9753745142100907, bias=-0.024625485789909307, variance=0.13849779297918074,
             crb=0.1639746107834753, vantrees_bound=0.12039487118269114, degenerate_count=0,
             ambiguous_count=0, included_trials=10, prng_algorithm="philox4x64"),
    ),
}


@pytest.mark.parametrize("estimator", list(PINNED_SIMULATE))
def test_simulate_report_is_pinned(estimator, capsys):
    flags, digest, report = PINNED_SIMULATE[estimator]
    argv = ["simulate", *FIELD, "--omega0-true", "2", "--n", "100", "--seed", "7", *flags, "--out", "-"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert json.loads(text)["report"] == report
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_config_values_lose_to_flags(tmp_path):
    config = tmp_path / "defaults.conf"
    config.write_text("# drive\nomega = 1\nb0 = 0.5\ntheta = 1.5707963267948966\nn = 10\n",
                      encoding="utf-8")
    argv = ["estimate", "ml", "--config", str(config), "--b0", "1", "--k", "4"]
    rc, payload = run_json(argv, tmp_path)
    assert rc == 0
    assert payload["config"]["b0"] == 1.0
    assert payload["config"]["omega"] == 1.0
    assert payload["config"]["n"] == 10


def test_config_with_equals_sign_is_read(tmp_path):
    # argparse accepts --config=PATH as well; the file's n and k are the
    # only ones given, so the run fails with usage error 1 unless it is read.
    config = tmp_path / "defaults.conf"
    config.write_text("n = 10\nk = 4\n", encoding="utf-8")
    argv = ["estimate", "ml", *FIELD, f"--config={config}", "--b0", "2"]
    rc, payload = run_json(argv, tmp_path)
    assert rc == 0
    assert payload["config"]["n"] == 10
    assert payload["config"]["k"] == 4.0
    assert payload["config"]["b0"] == 2.0
    assert "--config" not in payload["manifest"]["command_line"]


class TestIntegerFlags:
    """Integer flags take integral literals exactly, 1e10 and 5.0 among them,
    and a refusal names its flag."""

    ESTIMATE = ["estimate", "ml", *FIELD, "--k", "1"]
    SIMULATE = ["simulate", *FIELD, "--omega0-true", "2", "--n", "10", "--trials", "5", "--seed", "1"]
    FISHER = ["fisher-scan", *FIELD, "--omega0", "2", "--axis", "theta:0.1:3:3"]
    MMSE = ["estimate", "mmse", *FIELD, "--k", "4", "--prior", "uniform", *WIDE_FLAGS]
    CURVE = ["mmse-curve", *FIELD, "--priors", "uniform", *WIDE_FLAGS, "--axis", "xbar:0:1:3"]

    @pytest.mark.parametrize("base, flag, text, value", [
        (ESTIMATE, "--n", "1e10", 10**10),
        (ESTIMATE, "--n", "12345678901234567890123456789e3", 12345678901234567890123456789000),
        (ESTIMATE, "--n", "100.0", 100),
        (ESTIMATE, "--n", "2.5E1", 25),
        (SIMULATE, "--trials", "1e3", 1000),
        (SIMULATE, "--seed", "7.0", 7),
        (SIMULATE, "--seed", "18446744073709551615", 2**64 - 1),
    ])
    def test_integral_literals(self, base, flag, text, value):
        args = cli._build_parser(base[0]).parse_args([*base, flag, text, "--out", "-"])
        parsed = getattr(args, flag[2:])
        assert type(parsed) is int and parsed == value

    def test_axis_count(self):
        args = cli._build_parser("fisher-scan").parse_args(
            [*self.FISHER, "--axis", "b0:0.1:5:5.0", "--out", "-"])
        assert args.axis[1].count == 5 and type(args.axis[1].count) is int

    @pytest.mark.parametrize("base, flag, text", [
        (ESTIMATE, "--n", "2.5"), (ESTIMATE, "--n", "1e-1"), (ESTIMATE, "--n", "nan"),
        (ESTIMATE, "--n", "inf"), (ESTIMATE, "--n", "0"), (ESTIMATE, "--n", "0e5"),
        (ESTIMATE, "--n", "ten"), (ESTIMATE, "--n", "1e999999999"), (SIMULATE, "--trials", "1.5"),
        (SIMULATE, "--seed", "1.5"), (SIMULATE, "--seed", "seven"), (ESTIMATE, "--omega", "abc"),
        (ESTIMATE, "--b0", "-1"), (ESTIMATE, "--k", "four"),
        (FISHER, "--axis", "b0:0.1:5:5.5"), (FISHER, "--axis", "b0:0.1:5:five"),
        # Integral, but beyond what a float holds.
        (ESTIMATE, "--n", "1e400"), (MMSE, "--n", "1e400"), (CURVE, "--n", "1e400"),
    ])
    def test_refusal_names_the_flag(self, base, flag, text, capsys):
        argv = [*base, flag, text, "--out", "-"]
        if flag != "--n" and base is self.ESTIMATE:
            argv[-2:-2] = ["--n", "10"]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert err.startswith(f"rabi-est {base[0]}: error: argument {flag}: ")
        name, text = ("axis b0 count", text.rsplit(":", 1)[1]) if flag == "--axis" else (flag, text)
        assert f"{name} must be " in err and err.endswith(f", got {text}")
        assert "invalid" not in err and "convert" not in err


@pytest.mark.parametrize("n", ["1e19", "1e306"])
def test_simulate_refuses_n_past_a_64_bit_count_at_once(n, capsys):
    # Such an n used to run the draw loop ~n / 8192 times: it is refused
    # before any draw, as a domain error.
    argv = ["simulate", *FIELD, "--omega0-true", "2", "--n", n, "--trials", "2", "--seed", "1", "--out", "-"]
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 1.0
    assert "n must be below 2**63" in capsys.readouterr().err


@pytest.mark.parametrize("ns", [0, 1_760_000_000_000_000_000, 1_760_000_000_123_456_789,
                                1_760_000_000_000_001_999, 4_102_444_799_999_999_999])
def test_started_stamp_reads_as_isoformat(ns, monkeypatch):
    # The same text as datetime.now(timezone.utc).isoformat(): no fraction
    # when the microseconds are 0.
    monkeypatch.setattr(time, "time_ns", lambda: ns)
    expect = (datetime.fromtimestamp(0, timezone.utc) + timedelta(microseconds=ns // 1000)).isoformat()
    assert cli._utc_stamp() == expect


def test_started_line_goes_to_stderr(capsys):
    assert main(["estimate", "ml", *FIELD, "--n", "100", "--k", "41", "--out", "-"]) == 0
    err = capsys.readouterr().err
    assert re.fullmatch(r"rabi-est estimate started \d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d{6})?\+00:00\n", err)


class TestTheta:
    BASE = ["estimate", "ml", "--omega", "1", "--b0", "1", "--n", "100", "--k", "41"]

    def test_mutually_exclusive(self, tmp_path):
        argv = [*self.BASE, "--theta", "1.5707963267948966", "--theta-deg", "90"]
        assert run_json(argv, tmp_path)[0] == 1

    def test_one_required(self, tmp_path):
        assert run_json(self.BASE, tmp_path)[0] == 1

    def test_degrees_convert(self, tmp_path):
        rc, payload = run_json([*self.BASE, "--theta-deg", "90"], tmp_path)
        assert rc == 0
        assert payload["config"]["theta"] == math.radians(90.0)


def test_sidecar_manifest_is_byte_identical(tmp_path):
    out = tmp_path / "scan.csv"
    argv = ["fisher-scan", *FIELD, "--omega0", "2", "--axis", "b0:0.5:2:4",
            "--axis", "theta:0.5:2.5:3", "--out", str(out)]
    runs = []
    for _ in range(2):
        assert main(argv) == 0
        sidecar = tmp_path / "scan.csv.manifest.json"
        runs.append((out.read_bytes(), sidecar.read_bytes()))
    assert runs[0] == runs[1]
    manifest = json.loads(runs[0][1])
    assert manifest["operation"] == "fisher_scan"
    assert manifest["manifest"]["seed"] is None


# The benchmark's 3x3 Jeffreys bayes-scan.
BAYES_SCAN_3X3 = ["bayes-scan", *FIELD, "--prior", "jeffreys", "--window-lower", "1.5",
                  "--window-upper", "5", "--n", "8", "--axis", "b0:0.5:3:3", "--axis", "omega:-3:3:3"]


def test_import_loads_no_process_pool(tmp_path):
    # Every CLI run pays for its imports, and no command runs a process pool:
    # neither importing the CLI nor a bayes-scan loads one.
    probe = "\nprint(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    scan = TestImports.cli_code([*BAYES_SCAN_3X3, "--out", str(tmp_path / "scan.csv")])
    env = {key: value for key, value in os.environ.items() if key != "RABI_EST_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    for code in ("import sys, rabi_est.cli", scan):
        out = subprocess.run([sys.executable, "-c", code + probe], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        assert out.stdout.strip() == "[]"


def loaded_modules(code):
    """The rabi_est modules loaded after running ``code`` in a new interpreter."""
    code += "\nprint(' '.join(sorted(m for m in sys.modules if m.startswith('rabi_est'))))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    return set(out.stdout.split())


class TestImports:
    """A run loads only the modules of its command, and the package root none."""

    ESTIMATE = ["rabi_est", "rabi_est.cli_estimate", "rabi_est.dynamics", "rabi_est.errors",
                "rabi_est.frequentist", "rabi_est.numerics"]
    # No MAP module and, but for a Jeffreys prior, no Fisher kernel.
    BAYES = ["rabi_est.posterior", "rabi_est.priors"]
    MAP = [*BAYES, "rabi_est.map_estimator"]

    # What every table needs: the table module, its number formatter and
    # the modules those import; a scan or curve module adds its kernels.
    TABLE = ["rabi_est", "rabi_est.cli_sweeps", "rabi_est.dynamics", "rabi_est.errors", "rabi_est.format17g",
             "rabi_est.table"]
    SCAN = [*TABLE, "rabi_est.scan"]
    CURVE = [*TABLE, "rabi_est.curves"]

    @staticmethod
    def cli_code(argv):
        """Code that runs the command line as ``python -m rabi_est.cli`` does."""
        return (f"import runpy, sys\nsys.argv = {['rabi-est', *argv]!r}\n"
                "try:\n    runpy.run_module('rabi_est.cli', run_name='__main__')\n"
                "except SystemExit as exc:\n    assert exc.code == 0, exc.code")

    @pytest.mark.parametrize("mode, extra", [("ml", []), ("mmse", BAYES), ("map", MAP)])
    def test_estimate_loads_only_its_modules(self, mode, extra):
        argv = ["estimate", mode, *FIELD, "--n", "10", "--k", "4", "--prior", "uniform",
                "--window-lower", "0.5", "--window-upper", "5", "--out", os.devnull]
        assert loaded_modules(self.cli_code(argv)) == {*self.ESTIMATE, *extra}

    @pytest.mark.parametrize("mode, prior, extra", [
        ("mmse", "gaussian", BAYES), ("map", "gaussian", MAP),
        ("mmse", "jeffreys", [*BAYES, "rabi_est.fisher"]), ("map", "jeffreys", [*MAP, "rabi_est.fisher"]),
    ])
    def test_only_jeffreys_estimates_load_the_fisher_kernels(self, mode, prior, extra):
        argv = ["estimate", mode, *FIELD, "--n", "10", "--k", "4", "--prior", prior, "--prior-mean", "3",
                "--prior-sigma", "1", "--window-lower", "0.5", "--window-upper", "5", "--out", os.devnull]
        assert loaded_modules(self.cli_code(argv)) == {*self.ESTIMATE, *extra}

    @pytest.mark.parametrize("argv, modules", [
        (["fisher-scan", *FIELD, "--omega0", "2", "--axis", "b0:0.1:5:3", "--axis", "theta:0.1:3:3"],
         [*SCAN, "rabi_est.fisher"]),
        (["ml-roots", *FIELD, "--axis", "b0:0.1:5:3", "--axis", "xbar:0.1:0.9:3"],
         [*SCAN, "rabi_est.frequentist", "rabi_est.numerics"]),
        (["map-curve", *FIELD, "--n", "8", "--prior", "jeffreys", *WIDE_FLAGS,
          "--axis", "omega0:0.15:12.15:5"],
         [*CURVE, "rabi_est.fisher", "rabi_est.numerics", "rabi_est.priors"]),
        (["map-curve", *FIELD, "--n", "8", "--prior", "gaussian", "--prior-mean", "3", "--prior-sigma", "1",
          *WIDE_FLAGS, "--axis", "omega0:0.15:12.15:5"],
         [*CURVE, "rabi_est.numerics", "rabi_est.priors"]),
        (["mmse-curve", *FIELD, "--n", "8", "--priors", "uniform", *WIDE_FLAGS, "--axis", "xbar:0:1:3"],
         [*CURVE, "rabi_est.frequentist", "rabi_est.numerics", "rabi_est.posterior", "rabi_est.priors"]),
        (["simulate", *FIELD, "--omega0-true", "2", "--n", "10", "--trials", "5", "--seed", "1",
          "--estimator", "ml"],
         ["rabi_est", "rabi_est.cli_sweeps", "rabi_est.dynamics", "rabi_est.errors", "rabi_est.fisher",
          "rabi_est.frequentist", "rabi_est.montecarlo", "rabi_est.numerics"]),
    ], ids=["fisher-scan", "ml-roots", "map-curve", "map-curve-gaussian", "mmse-curve-uniform", "simulate-ml"])
    def test_command_loads_only_its_modules(self, argv, modules, tmp_path):
        # The closed-form scans and ML trials load no Bayesian module; the
        # Fisher landscape loads its kernels and what its table needs, and
        # the ML root surfaces no Fisher kernel. The curves load no landscape
        # scan, and the MAP curve none of the posterior or the ML estimator.
        # Only a Jeffreys prior loads the Fisher kernels.
        code = self.cli_code([*argv, "--out", str(tmp_path / "out")])
        assert loaded_modules(code) == set(modules)

    # Ceilings on the non-blank source lines that a run compiles: those of
    # the package modules it loads and of cli.py, which ``python -m`` runs
    # as __main__. A run that writes no bytecode compiles every one of them.
    # Each ceiling is its run's count, so every added line is counted.
    UNIFORM = ["--prior", "uniform", *WIDE_FLAGS]
    GAUSSIAN = ["--prior", "gaussian", "--prior-mean", "3", "--prior-sigma", "1", *WIDE_FLAGS]
    FIG5 = [*FIELD, "--n", "8", *WIDE_FLAGS]
    RUNS = {
        "estimate-mmse": (["estimate", "mmse", *FIELD, "--n", "100", "--k", "49", *UNIFORM], 1709),
        "estimate-map": (["estimate", "map", *FIELD, "--n", "100", "--k", "49", *UNIFORM], 1889),
        "estimate-ml": (["estimate", "ml", *FIELD, "--n", "100", "--k", "41"], 1068),
        "mmse-curve": (["mmse-curve", *FIG5, "--priors", "uniform,jeffreys,gaussian", "--prior-mean", "10",
                        "--prior-sigma", "2", "--axis", "xbar:0:1:3"], 2359),
        "map-curve": (["map-curve", *FIG5, "--prior", "jeffreys", "--axis", "omega0:0.15:12.15:5"], 1744),
        "fisher-scan": (["fisher-scan", *FIELD, "--omega0", "2", "--axis", "b0:0.1:5:3", "--axis",
                         "theta:0.1:3:3"], 1335),
        "ml-roots": (["ml-roots", *FIELD, "--axis", "b0:0.1:5:3", "--axis", "xbar:0.1:0.9:3"], 1714),
        "bayes-scan": (BAYES_SCAN_3X3, 2420),
    }

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def compiled_lines(argv: tuple) -> int:
        with tempfile.TemporaryDirectory() as out:
            modules = loaded_modules(TestImports.cli_code([*argv, "--out", os.path.join(out, "out")]))
        package = Path(cli.__file__).parent
        files = ["cli.py", *(f"{m.partition('.')[2] or '__init__'}.py" for m in modules)]
        return sum(1 for name in files for line in (package / name).read_text(encoding="utf-8").splitlines()
                   if line.strip())

    @pytest.mark.parametrize("run", list(RUNS))
    def test_run_compiles_at_most_its_ceiling(self, run):
        argv, ceiling = self.RUNS[run]
        assert self.compiled_lines(tuple(argv)) <= ceiling

    def test_posterior_workload_compiles_at_most_its_ceiling(self):
        # The benchmark's posterior workload: the Fig. 5 MMSE curve, the
        # Gaussian and Jeffreys MAP curves, the worked ML estimate, and MMSE
        # and MAP estimates under the uniform and Gaussian priors at six
        # decades of n. A run's modules follow from its command, mode and
        # prior family, not from n, so each decade compiles what n = 100 does.
        gaussian_curve = ["map-curve", *self.FIG5, "--prior", "gaussian", "--prior-mean", "10",
                          "--prior-sigma", "2", "--axis", "omega0:0.15:12.15:5"]
        figures = [self.RUNS["mmse-curve"][0], self.RUNS["map-curve"][0], gaussian_curve,
                   self.RUNS["estimate-ml"][0]]
        sweep = [["estimate", mode, *FIELD, "--n", "100", "--k", "49", *prior]
                 for mode in ("mmse", "map") for prior in (self.UNIFORM, self.GAUSSIAN)]
        total = sum(map(self.compiled_lines, map(tuple, figures))) + 6 * sum(
            map(self.compiled_lines, map(tuple, sweep)))
        assert total <= 50_026

    # Standard modules that no command needs. numpy's core imports datetime
    # on every run, so that one is kept out of the package's own imports.
    UNUSED = ("dataclasses", "fractions", "decimal")

    @pytest.mark.parametrize("argv", [
        ["estimate", "mmse", *FIELD, "--n", "10", "--k", "4", "--prior", "uniform",
         "--window-lower", "0.5", "--window-upper", "5"],
        ["fisher-scan", *FIELD, "--omega0", "2", "--axis", "b0:0.1:5:3", "--axis", "theta:0.1:3:3"],
    ], ids=["estimate-mmse", "fisher-scan"])
    def test_command_loads_no_unused_standard_module(self, argv, tmp_path):
        code = self.cli_code([*argv, "--out", str(tmp_path / "out")])
        code += f"\nprint(sorted(m for m in {self.UNUSED!r} if m in sys.modules))"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("path", sorted(Path(cli.__file__).parent.glob("*.py")), ids=lambda p: p.name)
    def test_package_does_not_import_datetime(self, path):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert "datetime" not in [m.partition(".")[0] for m in modules], f"{path.name}:{node.lineno}"

    def test_package_import_loads_no_submodule(self):
        # dir() lists every export before any is loaded.
        code = "import sys, rabi_est\nassert set(rabi_est.__all__) <= set(dir(rabi_est))"
        assert loaded_modules(code) == {"rabi_est"}

    def test_exports_resolve_to_their_submodules(self):
        import rabi_est

        for name in rabi_est.__all__:
            assert name in dir(rabi_est)
            if name != "__version__":
                module = importlib.import_module(f"rabi_est.{rabi_est._EXPORTS[name]}")
                assert getattr(rabi_est, name) is getattr(module, name)
        with pytest.raises(AttributeError, match="NoSuchName"):
            getattr(rabi_est, "NoSuchName")


def test_mmse_curve_is_reproducible(tmp_path):
    # The golden Fig. 5 curve, twice in one process: the second run reads
    # the posterior grids the first one cached and writes the same bytes.
    out = tmp_path / "curve.csv"
    argv = ["mmse-curve", *FIELD, "--n", "8", "--priors", "uniform,jeffreys,gaussian",
            "--window-lower", "0.1", "--window-upper", "100", "--prior-mean", "10",
            "--prior-sigma", "2", "--axis", "xbar:0:1:101", "--out", str(out)]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append((out.read_bytes(), (tmp_path / "curve.csv.manifest.json").read_bytes()))
    assert outputs[0] == outputs[1]


# sha256 of the CSV and manifest of BAYES_SCAN_3X3, run in the output's
# directory so that the manifest's command line is fixed.
PINNED_BAYES_SCAN = (
    "9654c9e880b25cdc624cb0126f359438e2261a2de4e0274a0472f6650bb686f2",
    "092465312d1487a1dede74f4f646f8af2c383f39b3854811ad3f04c02e93a575",
)


def test_bayes_scan_is_pinned(tmp_path, monkeypatch):
    # RABI_EST_THREADS once set a process count; the scan no longer reads it.
    monkeypatch.chdir(tmp_path)
    for threads in (None, "x"):
        if threads is None:
            monkeypatch.delenv("RABI_EST_THREADS", raising=False)
        else:
            monkeypatch.setenv("RABI_EST_THREADS", threads)
        assert main([*BAYES_SCAN_3X3, "--out", "scan.csv"]) == 0
        assert PINNED_BAYES_SCAN == tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                                          for name in ("scan.csv", "scan.csv.manifest.json"))


# Posterior estimates at the benchmark's field, k = round(n p(3)), pinned byte
# for byte (sha256 of the whole JSON output): MMSE and MAP with uniform and
# Gaussian(3, 1) priors on (0.1, 100) at n = 100 and 1e10, and MMSE with a
# Jeffreys prior on (1.5, 5) at n = 100.
_PIN_PRIORS = {
    "uniform": ["--prior", "uniform", *WIDE_FLAGS],
    "gaussian": ["--prior", "gaussian", "--prior-mean", "3", "--prior-sigma", "1", *WIDE_FLAGS],
    "jeffreys": ["--prior", "jeffreys", "--window-lower", "1.5", "--window-upper", "5"],
}
PINNED_ESTIMATES = {
    ("mmse", "uniform", 100): "a2bb7c9d4245b66e07e022fb7c3f25c313ffd62a4dc36b8c36c7253bb7a14a24",
    ("mmse", "uniform", 10**10): "ed429a271a60721f07b65e595bec892480b4698fbc27defe4d3a968e8d7881c5",
    ("mmse", "gaussian", 100): "f01cbb46e267e0743290b69ecdfa5e7f5ab1930ae8ca07189d06ae22121131f4",
    ("mmse", "gaussian", 10**10): "e9357c777246261d11bd7ba516bae997bb92a6e6bbfec2097c9b95e18c6c1be4",
    ("map", "uniform", 100): "b37e0dbcb1b9ca28f1c172375ce6730bb1b58174d91ad87cc9197a4021e5192b",
    ("map", "uniform", 10**10): "4d44e2eae130a10b04dfece4cfb73fd12b612cb9a2dff262d2e0d5e6eba7effd",
    ("map", "gaussian", 100): "35326f27b92f7577024e82713680516ceed2f4e01f73e1d84a3552f138f26a3f",
    ("map", "gaussian", 10**10): "4238234b9b24e7b4ff01b613382a75c31e6af5f22cc52d8a687c6e89ccb4d030",
    ("mmse", "jeffreys", 100): "383e38b4255358a5fe9755456322e070e2bca5f9b55968c747331d65ff3c3de4",
}


@pytest.mark.parametrize("mode, prior, n", list(PINNED_ESTIMATES))
def test_posterior_estimate_is_pinned(mode, prior, n, capsys):
    k = round(n * float(prob_detect(CFG, 3.0)))
    argv = ["estimate", mode, *FIELD, "--n", str(n), "--k", str(k), *_PIN_PRIORS[prior], "--out", "-"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_ESTIMATES[mode, prior, n]


# The golden Fig. 5 MMSE curve, run in the output's directory: sha256 of the
# CSV and manifest.
PINNED_MMSE_CURVE = (
    "e5fecffac8c132057ee424f81739b316ab8c17983c0c98d5f35edeebc32d558d",
    "950509a21f1edcfb7b877f3c552e2e4bb2b3c2cfbe70d1e0f4c6b066b92e1804",
)


def test_mmse_curve_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["mmse-curve", *FIELD, "--n", "8", "--priors", "uniform,jeffreys,gaussian",
            "--window-lower", "0.1", "--window-upper", "100", "--prior-mean", "10",
            "--prior-sigma", "2", "--axis", "xbar:0:1:101", "--out", "curve.csv"]
    assert main(argv) == 0
    assert PINNED_MMSE_CURVE == tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                                      for name in ("curve.csv", "curve.csv.manifest.json"))


def test_mmse_curve_keeps_k_within_n(capsys):
    # float(n) rounds above this n, so n * 1.0 did too and the count of the
    # xbar = 1 cell fell outside [0, n]. Its posterior peaks at the maximum
    # of p, the resonance omega0 = 1.
    argv = ["mmse-curve", *FIELD, "--n", "99999999999999999", "--priors", "uniform",
            *WIDE_FLAGS, "--axis", "xbar:0:1:3", "--out", "-"]
    assert main(argv) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["xbar", "mmse_uniform", "status"]
    assert [row[2] for row in rows[1:]] == ["ok", "ok", "ok"]
    assert rows[-1][0] == "1" and float(rows[-1][1]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("priors, header", [
    ("uniform,uniform", "xbar,mmse_uniform,mmse_uniform_2,status"),
    ("uniform,gaussian,uniform,uniform",
     "xbar,mmse_uniform,mmse_gaussian,mmse_uniform_2,mmse_uniform_3,status"),
])
def test_mmse_curve_numbers_repeated_priors(priors, header, capsys):
    argv = ["mmse-curve", *FIELD, "--n", "8", "--priors", priors, *WIDE_FLAGS, "--prior-mean", "10",
            "--prior-sigma", "2", "--axis", "xbar:0:1:3", "--out", "-"]
    assert main(argv) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert ",".join(rows[0]) == header
    # Equal priors, equal columns.
    uniform = [j for j, name in enumerate(rows[0]) if name.startswith("mmse_uniform")]
    assert all(len({row[j] for j in uniform}) == 1 for row in rows[1:])


MMSE_ESTIMATE = ["estimate", "mmse", *FIELD, "--n", "10", "--k", "4"]
MMSE_CURVE = ["mmse-curve", *FIELD, "--n", "8", *WIDE_FLAGS]
FISHER_SCAN = ["fisher-scan", *FIELD, "--omega0", "2", "--axis", "b0:0.1:5:3"]


@pytest.mark.parametrize("argv, flag, message", [
    (FISHER_SCAN, "--axis", "exactly two --axis specifications required, got 1"),
    ([*FISHER_SCAN, "--axis", "theta:0.1:3:3", "--axis", "omega:-1:1:3"], "--axis",
     "exactly two --axis specifications required, got 3"),
    ([*MMSE_CURVE, "--priors", " , ", "--axis", "xbar:0:1:3"], "--priors",
     "--priors must name at least one prior family"),
    ([*MMSE_CURVE, "--priors", "uniform,flat", "--axis", "xbar:0:1:3"], "--priors",
     "unknown prior family 'flat' in --priors"),
    ([*MMSE_CURVE, "--priors", "uniform", "--axis", "b0:0.5:3:3"], "--axis",
     "--axis for mmse-curve must be an xbar axis"),
    (["map-curve", *FIELD, "--n", "8", "--prior", "gaussian", "--prior-mean", "10", "--prior-sigma", "2",
      *WIDE_FLAGS, "--axis", "xbar:0:1:3"], "--axis", "--axis for map-curve must be an omega0 axis"),
    (["simulate", *FIELD, "--omega0-true", "2", "--n", "10", "--trials", "5", "--seed", str(2**64)], "--seed",
     f"--seed must fit an unsigned 64-bit integer, got {2**64}"),
    (["estimate", "ml", "--omega", "1", "--b0", "1", "--theta-deg", "180", "--n", "100", "--k", "41"],
     "--theta", f"--theta must lie strictly inside (0, pi), got {math.pi}"),
    ([*MMSE_ESTIMATE, *WIDE_FLAGS], "--prior", "--prior is required for this command"),
    ([*MMSE_ESTIMATE, "--prior", "uniform", "--window-lower", "0.1"], "--window-upper",
     "--window-lower and --window-upper are required with a prior"),
    ([*MMSE_ESTIMATE, "--prior", "uniform", "--window-lower", "5", "--window-upper", "1"], "--window-lower",
     "--window-lower must be smaller than --window-upper"),
    ([*MMSE_ESTIMATE, "--prior", "gaussian", "--prior-mean", "3", *WIDE_FLAGS], "--prior-sigma",
     "--prior-mean and --prior-sigma are required for the gaussian prior"),
], ids=["one-axis", "three-axes", "empty-priors", "unknown-prior", "mmse-curve-axis", "map-curve-axis",
        "seed", "theta", "prior", "window", "reversed-window", "gaussian-sigma"])
def test_refusal_names_its_flag(argv, flag, message, capsys):
    assert main([*argv, "--out", "-"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "error" in line] == [f"rabi-est: error: {message}"]
    assert flag in message


def test_malformed_config_line_is_a_domain_error(tmp_path, capsys):
    config = tmp_path / "defaults.conf"
    config.write_text("n = 100\nomega 1\n", encoding="utf-8")
    assert main(["estimate", "ml", "--config", str(config), "--out", "-"]) == 3
    assert capsys.readouterr().err.splitlines() == ["rabi-est: DomainError: config line is not 'key = value': "
                                                    "'omega 1'"]


class TestEstimateCountAtN:
    """--k = --n where float(n) rounds above n: an integral --k compares with
    --n exactly and enters as min(float(k), n), as mmse-curve's counts do."""

    N = "99999999999999999"

    def run(self, mode, k, capsys):
        argv = ["estimate", mode, *FIELD, "--n", self.N, "--k", k, "--prior", "uniform",
                *WIDE_FLAGS, "--out", "-"]
        rc = main(argv)
        out, err = capsys.readouterr()
        return rc, (json.loads(out) if rc == 0 else err.strip().splitlines()[-1])

    @pytest.mark.parametrize("k", [N, "99999999999999998"])
    @pytest.mark.parametrize("mode, estimate", [("mmse", 0.9999999999999997), ("map", 0.9999999999999999)])
    def test_posterior_estimates_take_k_at_n(self, mode, estimate, k, capsys):
        # Both counts round to float(n): the count rate is 1, and the
        # posterior peaks at the maximum of p, the resonance omega0 = 1.
        rc, payload = self.run(mode, k, capsys)
        assert rc == 0
        assert payload["estimate"] == estimate and payload["xbar"] == 1.0
        assert payload["config"]["k"] == payload["manifest"]["parameters"]["k"] == 1e17

    @pytest.mark.parametrize("k", [N, "99999999999999998"])
    def test_ml_has_no_real_root_at_k_n(self, k, capsys):
        assert self.run("ml", k, capsys) == (3, "rabi-est: NoRealRoot: S^2 - b0^2 sin^2(theta) <= 0; "
                                                 "estimates are not real and distinct")

    @pytest.mark.parametrize("mode", ["ml", "mmse", "map"])
    @pytest.mark.parametrize("k", ["100000000000000000", "1e17", "-1"])
    def test_k_outside_zero_to_n_is_refused(self, mode, k, capsys):
        rc, err = self.run(mode, k, capsys)
        assert rc == 1 and "--k must lie in [0, --n]" in err


# The closed-form scans over grids of more than one block of cells each: sha256
# of the CSV and manifest, both run in the output's directory. In the two blocks
# of "fisher-omega-blocks", omega = 1 and then 1.5: the scaled columns share the
# raw columns' text in the first block only, so the second reuses the writer's
# text slots for other columns.
PINNED_SCANS = {
    "fisher-omega-theta": (
        ["fisher-scan", *FIELD, "--omega0", "2", "--axis", "omega:-1:1:93", "--axis", "theta:0.5:2.5:95"],
        "880b25e748d97566c7b141bf894d9732d096079632349a3507f35e3fbd167135",
        "11769f2d370e825cfecbe9f588cad835becea528664f715a0d232ae4b80938c5",
    ),
    "fisher-omega-blocks": (
        ["fisher-scan", *FIELD, "--omega0", "2", "--axis", "omega:1:1.5:2", "--axis", "theta:0.01:3.13:8192"],
        "44d764002132ce872e44a2fd19319c2de5bccce177113c5d1c6f7e9506d89bef",
        "45ad7776bcf5f6812ab3f7ec9e2f6442adaab62a1530cf9676085ecde427a810",
    ),
    "ml-roots-b0-xbar": (
        ["ml-roots", *FIELD, "--axis", "b0:0.1:5:93", "--axis", "xbar:0.001:0.999:95"],
        "9fa6c3eb48339959c755ce0f8a046afa1386f4bd81481dab9902b76e9c690bcc",
        "f2860c91e32aaf06b09616b93c6056c39bf8aa282c579b7545bbc43eb47454ec",
    ),
    "ml-roots-xbar-omega": (
        ["ml-roots", *FIELD, "--axis", "xbar:0.001:0.999:93", "--axis", "omega:-3:3:95"],
        "e9666587a1656a33ac4daea776b59c5bf40ff982d7cc22ad1209a2c52b5aa3f2",
        "332994da38762e4f9221722cc10b1ce8d5020e9c09329d4077db2706d5748c06",
    ),
}


@pytest.mark.parametrize("case", list(PINNED_SCANS))
def test_closed_form_scan_is_pinned(case, tmp_path, monkeypatch):
    argv, *digests = PINNED_SCANS[case]
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "scan.csv"]) == 0
    assert digests == [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                       for name in ("scan.csv", "scan.csv.manifest.json")]


class TestStrictJson:
    """JSON outputs hold no NaN or Infinity token, which RFC 8259 parsers
    reject: a non-finite float is written as null."""

    @staticmethod
    def parse_strict(path):
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)

    def test_map_with_boundary_maxima(self, tmp_path):
        # Boundary maxima have no second derivative or stationarity residual.
        argv = ["estimate", "map", "--omega", "1", "--b0", "1", "--theta", "1.5707963267948966",
                "--n", "1", "--k", "0", "--prior", "uniform",
                "--window-lower", "0.1", "--window-upper", "100", "--out", str(tmp_path / "map.json")]
        assert main(argv) == 0
        payload = self.parse_strict(tmp_path / "map.json")
        boundary = [m for m in payload["maxima"] if m["boundary"]]
        assert boundary
        assert all(m["second_derivative"] is None and m["stationarity_residual"] is None
                   for m in boundary)

    def test_scan_manifest_with_infinite_accuracy(self, tmp_path):
        # A non-finite flag is a usage error, so no manifest ever has to
        # write one: the scan writes nothing.
        out = tmp_path / "scan.csv"
        argv = ["fisher-scan", *FIELD, "--omega0", "2", "--axis", "b0:0.1:5:3",
                "--axis", "theta:0.1:3:3", "--accuracy", "inf", "--out", str(out)]
        assert main(argv) == 1
        assert not list(tmp_path.iterdir())

    def test_one_trial_simulate(self, tmp_path):
        argv = ["simulate", *FIELD, "--omega0-true", "2", "--n", "100", "--trials", "1",
                "--seed", "3", "--out", str(tmp_path / "sim.json")]
        assert main(argv) == 0
        report = self.parse_strict(tmp_path / "sim.json")["report"]
        assert report["included_trials"] == 1
        assert report["variance"] is None


def run_module(argv, **kwargs):
    """``python -m rabi_est.cli argv`` in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-m", "rabi_est.cli", *argv], env=env, capture_output=True,
                          timeout=120, **kwargs)


class TestProcessEntry:
    """``python -m rabi_est.cli`` and the ``rabi-est`` script enter through
    ``cli.run``, which freezes the loaded objects out of the collector's
    walks; exit codes, output and finalization stay as ``main`` gives them."""

    EXIT_CODES = {
        "ok": (["estimate", "ml", *FIELD, "--n", "10", "--k", "4"], 0),
        "bad-flag": (["estimate", "ml", *FIELD, "--n", "10", "--k", "4", "--no-such-flag"], 1),
        # The Jeffreys prior information diverges (the resonance is inside).
        "non-convergence": (["simulate", *FIELD, "--omega0-true", "2", "--n", "20", "--trials", "3",
                             "--seed", "1", "--estimator", "mmse", "--prior", "jeffreys",
                             "--window-lower", "0.5", "--window-upper", "5"], 2),
        # p underflows to 0 on the whole window, so k = 4 has no likelihood.
        "evidence-underflow": (["estimate", "mmse", "--omega", "1", "--b0", "1e-200", "--theta",
                                "1.5707963267948966", "--n", "10", "--k", "4", "--prior", "uniform",
                                "--window-lower", "0.5", "--window-upper", "5"], 2),
        # sqrt(0.9) exceeds b0 sin(theta) = 0.5.
        "domain-error": (["estimate", "ml", "--omega", "1", "--b0", "0.5", "--theta",
                          "1.5707963267948966", "--n", "10", "--k", "9"], 3),
    }

    @pytest.mark.parametrize("case", list(EXIT_CODES))
    def test_exit_code(self, case):
        argv, code = self.EXIT_CODES[case]
        out = run_module([*argv, "--out", "-"], text=True)
        assert out.returncode == code, out.stderr
        assert "Traceback" not in out.stderr
        if case == "evidence-underflow":
            assert "posterior density vanishes everywhere" in out.stderr
        if code == 0:
            assert json.loads(out.stdout)["roots"]

    def test_piped_output_equals_file_output(self, tmp_path):
        # Two cell blocks of CSV text, all flushed to the pipe before exit.
        argv, digest, _ = PINNED_SCANS["fisher-omega-theta"]
        piped = run_module([*argv, "--out", "-"], check=True).stdout
        run_module([*argv, "--out", "scan.csv"], check=True, cwd=tmp_path)
        assert piped == (tmp_path / "scan.csv").read_bytes()
        assert hashlib.sha256(piped).hexdigest() == digest

    def test_collector_stays_enabled_and_exit_finalizes(self):
        # An atexit hook still runs, and sees the collector on and objects frozen.
        code = ("import atexit, gc, runpy, sys\n"
                "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0))\n"
                f"sys.argv = {['rabi-est', *self.EXIT_CODES['ok'][0], '--out', os.devnull]!r}\n"
                "runpy.run_module('rabi_est.cli', run_name='__main__')")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "True True\n"

    def test_main_leaves_the_collector_alone(self):
        before = gc.isenabled(), gc.get_freeze_count()
        assert main([*self.EXIT_CODES["ok"][0], "--out", os.devnull]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    def test_script_and_module_share_the_entry(self):
        root = Path(cli.__file__).resolve().parents[2]
        script = re.search(r'^rabi-est = "rabi_est\.cli:(\w+)"$',
                           (root / "pyproject.toml").read_text(encoding="utf-8"), re.M).group(1)
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        block = next(node for node in tree.body if isinstance(node, ast.If)
                     and ast.unparse(node.test) == "__name__ == '__main__'")
        assert ast.unparse(block) == f"if __name__ == '__main__':\n    {script}()"
        assert script != "main" and callable(getattr(cli, script))
