import json
import math
import os
import subprocess
import sys

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
