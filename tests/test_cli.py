import importlib
import json
import math
import os
import subprocess
import sys

import pytest

from rabi_est.cli import main
from rabi_est.dynamics import FieldConfig
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

    def test_sinc_domain_violation(self, tmp_path):
        # sqrt(0.9) exceeds b0 sin(theta) = 0.5.
        argv = ["estimate", "ml", "--omega", "1", "--b0", "0.5", "--theta", "1.5707963267948966",
                "--n", "10", "--k", "9"]
        assert run_json(argv, tmp_path)[0] == 3


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


def test_import_loads_no_process_pool():
    # Every CLI run pays for its imports; only a pooled scan needs the pool.
    code = ("import sys, rabi_est.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
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

    ESTIMATE = ["rabi_est", "rabi_est.dynamics", "rabi_est.errors", "rabi_est.frequentist",
                "rabi_est.numerics"]
    BAYES = ["rabi_est.fisher", "rabi_est.posterior", "rabi_est.priors"]

    SCAN = ["rabi_est", "rabi_est.dynamics", "rabi_est.errors", "rabi_est.fisher", "rabi_est.scan"]

    @staticmethod
    def cli_code(argv):
        """Code that runs the command line as ``python -m rabi_est.cli`` does."""
        return (f"import runpy, sys\nsys.argv = {['rabi-est', *argv]!r}\n"
                "try:\n    runpy.run_module('rabi_est.cli', run_name='__main__')\n"
                "except SystemExit as exc:\n    assert exc.code == 0, exc.code")

    @pytest.mark.parametrize("mode, extra", [("ml", []), ("mmse", BAYES), ("map", BAYES)])
    def test_estimate_loads_only_its_modules(self, mode, extra):
        argv = ["estimate", mode, *FIELD, "--n", "10", "--k", "4", "--prior", "uniform",
                "--window-lower", "0.5", "--window-upper", "5", "--out", os.devnull]
        assert loaded_modules(self.cli_code(argv)) == {*self.ESTIMATE, *extra}

    @pytest.mark.parametrize("argv, modules", [
        (["fisher-scan", *FIELD, "--omega0", "2", "--axis", "b0:0.1:5:3", "--axis", "theta:0.1:3:3"],
         SCAN),
        (["ml-roots", *FIELD, "--axis", "b0:0.1:5:3", "--axis", "xbar:0.1:0.9:3"],
         [*SCAN, "rabi_est.frequentist", "rabi_est.numerics"]),
        (["simulate", *FIELD, "--omega0-true", "2", "--n", "10", "--trials", "5", "--seed", "1",
          "--estimator", "ml"],
         [*ESTIMATE, "rabi_est.fisher", "rabi_est.montecarlo"]),
    ], ids=["fisher-scan", "ml-roots", "simulate-ml"])
    def test_command_loads_only_its_modules(self, argv, modules, tmp_path):
        # The closed-form scans and ML trials load no Bayesian module.
        code = self.cli_code([*argv, "--out", str(tmp_path / "out")])
        assert loaded_modules(code) == set(modules)

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


def test_mmse_curve_ignores_the_worker_count(tmp_path, monkeypatch):
    # The golden Fig. 5 curve: each prior's column is one batch in this
    # process, whatever RABI_EST_THREADS says.
    out = tmp_path / "curve.csv"
    argv = ["mmse-curve", *FIELD, "--n", "8", "--priors", "uniform,jeffreys,gaussian",
            "--window-lower", "0.1", "--window-upper", "100", "--prior-mean", "10",
            "--prior-sigma", "2", "--axis", "xbar:0:1:101", "--out", str(out)]
    outputs = []
    for threads in (None, "1", "2"):
        if threads is None:
            monkeypatch.delenv("RABI_EST_THREADS", raising=False)
        else:
            monkeypatch.setenv("RABI_EST_THREADS", threads)
        assert main(argv) == 0
        outputs.append((out.read_bytes(), (tmp_path / "curve.csv.manifest.json").read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


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
        # The scan echoes its accuracy into the CSV's manifest, where
        # infinity becomes null; the command-line parameters keep its text.
        out = tmp_path / "scan.csv"
        argv = ["fisher-scan", *FIELD, "--omega0", "2", "--axis", "b0:0.1:5:3",
                "--axis", "theta:0.1:3:3", "--accuracy", "inf", "--out", str(out)]
        assert main(argv) == 0
        manifest = self.parse_strict(tmp_path / "scan.csv.manifest.json")
        assert manifest["accuracy"] is None
        assert manifest["manifest"]["parameters"]["accuracy"] == "inf"

    def test_one_trial_simulate(self, tmp_path):
        argv = ["simulate", *FIELD, "--omega0-true", "2", "--n", "100", "--trials", "1",
                "--seed", "3", "--out", str(tmp_path / "sim.json")]
        assert main(argv) == 0
        report = self.parse_strict(tmp_path / "sim.json")["report"]
        assert report["included_trials"] == 1
        assert report["variance"] is None
