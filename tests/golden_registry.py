"""Golden regression fixtures.

Each case pins down a set of reproduction values: the package recomputes
them (either through the CLI or through a named producer function) and the
result is compared cell by cell against a committed golden file that was
generated by independent oracle arithmetic (finite differences, dense-grid
quadrature, exhaustive enumeration). Golden files are regenerated only by an
explicit oracle target (tests/make_golden.py), never as a side effect of the
build or the test run.

Comparison semantics: numeric entries pass when
|produced - golden| <= tol * max(1, |golden|); NaN in a golden cell means
"not checked"; strings must match exactly. Failures list the first ten
offending cells.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shlex
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from oracles import (
    Bracket,
    density_state,
    find_root_bracketed,
    log_likelihood,
    required_samples,
    sld_matrix,
)
from rabi_est.cli import main
from rabi_est.dynamics import FieldConfig, dprob_domega0, prob_detect, q_factor
from rabi_est.errors import EstimationError
from rabi_est.fisher import cfi_values, qfi_values
from rabi_est.frequentist import Dataset, _sinc_inverse, ml_estimate
from rabi_est.numerics import integrate, inv_sinc_values, local_maxima
from rabi_est.posterior import PosteriorSpec, bayes_fisher, mmse
from rabi_est.priors import Prior, SupportWindow, jeffreys_normalizer, log_density, prior_fisher

__all__ = ["GoldenCase", "GoldenReport", "MissingGolden", "REGISTRY", "produce", "verify_golden"]


class MissingGolden(EstimationError):
    """A golden fixture file referenced by a case does not exist."""


_FIG5_CFG = FieldConfig(omega=1.0, b0=1.0, theta=math.pi / 2)
_FIG5_WINDOW = SupportWindow(0.1, 100.0)

# Shared CLI fragments for the curve reproduction runs.
_FIG5_FLAGS = "--omega 1 --b0 1 --theta 1.5707963267948966 --n 8"
MMSE_CURVE_FIG5 = (
    f"mmse-curve {_FIG5_FLAGS} --priors uniform,jeffreys,gaussian "
    "--window-lower 0.1 --window-upper 100 --prior-mean 10 --prior-sigma 2 "
    "--axis xbar:0:1:101"
)
MAP_CURVE_GAUSSIAN = (
    f"map-curve {_FIG5_FLAGS} --prior gaussian "
    "--window-lower 0.1 --window-upper 100 --prior-mean 10 --prior-sigma 2 "
    "--axis omega0:0.15:12.15:241"
)
MAP_CURVE_JEFFREYS = (
    f"map-curve {_FIG5_FLAGS} --prior jeffreys "
    "--window-lower 0.1 --window-upper 100 "
    "--axis omega0:0.15:12.15:241"
)
ESTIMATE_ML_WORKED = (
    "estimate ml --omega 1 --b0 1 --theta 1.5707963267948966 --n 100 --k 41"
)


@dataclass(frozen=True)
class GoldenCase:
    """One reproduction recipe: how to produce values and where truth lives."""

    id: str
    command: str
    expected_file: str
    tolerances: dict = dataclass_field(default_factory=dict)

    def tolerance_for(self, name: str) -> float:
        for key, tol in self.tolerances.items():
            if key != "*" and (name == key or name.startswith(key + ".")):
                return tol
        return self.tolerances.get("*", 1e-9)


@dataclass
class GoldenReport:
    case_id: str
    passed: bool
    checked: int
    failures: list[str]


def _numerics_points() -> dict:
    maxima = local_maxima(np.sin, 0.0, 3 * math.pi, 301)
    return {
        "integral_sin_squared": integrate(lambda x: np.sin(x) ** 2, 0.0, math.pi),
        "root_of_cosine": find_root_bracketed(math.cos, Bracket(1.0, 2.0)),
        "inv_sinc_two_over_pi": float(inv_sinc_values(2.0 / math.pi)),
        "sine_maxima": [m.x for m in maxima],
    }


def _dynamics_points() -> dict:
    cfg = _FIG5_CFG
    state = density_state(cfg, 2.0)
    omega0_pi = 1.0 + 2.0 * math.sqrt(math.pi**2 / 4.0 - 1.0)
    return {
        "q_offresonance": float(q_factor(cfg, 2.0)),
        "rho00_offresonance": state.rho00,
        "rho01_offresonance_re": state.rho01.real,
        "rho01_offresonance_im": state.rho01.imag,
        "prob_resonant_unit_coupling": float(prob_detect(cfg, 1.0)),
        "prob_at_pi_rabi_angle": float(prob_detect(cfg, omega0_pi)),
        "dprob_offresonance": float(dprob_domega0(cfg, 2.0)),
        "dprob_detuned_tilted": float(
            dprob_domega0(FieldConfig(omega=5.0, b0=2.0, theta=math.pi / 3), 1.0)
        ),
    }


def _fisher_points() -> dict:
    cfg = _FIG5_CFG
    cfi_off = float(cfi_values(cfg, 2.0))
    qfi_off = float(qfi_values(cfg, 2.0))
    res_half_pi = FieldConfig(omega=1.0, b0=math.pi / 2, theta=math.pi / 2)
    high = FieldConfig(omega=-25.0, b0=8.0, theta=math.pi / 2)
    sld = sld_matrix(cfg, 2.0)
    return {
        "cfi_offresonance": cfi_off,
        "qfi_offresonance": qfi_off,
        "gap_offresonance": qfi_off - cfi_off,
        "cfi_highinfo_region": float(cfi_values(high, 1.0)),
        "qfi_resonance_half_pi": float(qfi_values(res_half_pi, 1.0)),
        "sld_offdiag_re": sld[0, 1].real,
        "sld_offdiag_im": sld[0, 1].imag,
        "scaled_cfi_unit_drive": float(cfi_off * cfg.omega**2),
        "samples_for_accuracy": required_samples(40.0, 0.001),
    }


def _frequentist_points() -> dict:
    cfg = _FIG5_CFG
    xbar = 4.0 / math.pi**2
    result = ml_estimate(xbar, cfg)
    s_value, _ = _sinc_inverse(np.asarray(xbar), cfg)
    # Analytic moments of the count-rate estimator for n = 6, p = 0.37; the
    # golden side recomputes them by exhaustive enumeration of all outcomes.
    p1 = 0.37
    return {
        "ml_root_plus": result.roots[0].value,
        "ml_root_minus": result.roots[1].value,
        "ml_ambiguity": result.ambiguity.value,
        "validity_s_value": float(s_value),
        "xbar_mean_n6": p1,
        "xbar_variance_n6": p1 * (1.0 - p1) / 6.0,
        "score_expectation_n6": 0.0,
        "loglik_fig5_point": float(log_likelihood(Dataset(8, 5), cfg, 2.0)),
    }


def _posterior_points() -> dict:
    cfg = _FIG5_CFG
    gaussian = Prior.gaussian(_FIG5_WINDOW, mean=10.0, sigma=2.0)
    uniform_wide = Prior.uniform(_FIG5_WINDOW)
    uniform_fig4 = Prior.uniform(SupportWindow(1.5, 5.0))
    jeffreys_narrow = Prior.jeffreys(SupportWindow(1.5, 3.0), cfg)
    bf = bayes_fisher(cfg, uniform_fig4, 8)
    return {
        "mmse_nodata_gaussian": mmse(
            PosteriorSpec(data=Dataset(0, 0), cfg=cfg, prior=gaussian)
        ),
        "mmse_uniform_n8_k4": mmse(
            PosteriorSpec(data=Dataset(8, 4), cfg=cfg, prior=uniform_wide)
        ),
        "mmse_gaussian_n8_k0": mmse(
            PosteriorSpec(data=Dataset(8, 0), cfg=cfg, prior=gaussian)
        ),
        "bayes_cfi_fig4_point": bf.bayes_cfi,
        "bayes_qfi_fig4_point": bf.bayes_qfi,
        "bayes_gap_fig4_point": bf.bayes_gap,
        "jeffreys_normalizer_fig5": jeffreys_normalizer(cfg, _FIG5_WINDOW),
        "jeffreys_log_density_at_2": float(
            log_density(Prior.jeffreys(_FIG5_WINDOW, cfg), 2.0)
        ),
        "jeffreys_prior_fisher_narrow": prior_fisher(jeffreys_narrow),
    }


_PRODUCERS = {
    "numerics_points": _numerics_points,
    "dynamics_points": _dynamics_points,
    "fisher_points": _fisher_points,
    "frequentist_points": _frequentist_points,
    "posterior_points": _posterior_points,
}


REGISTRY: tuple[GoldenCase, ...] = (
    GoldenCase(
        id="numerics-points",
        command="producer:numerics_points",
        expected_file="numerics_points.json",
        tolerances={"*": 1e-9, "sine_maxima": 1e-8},
    ),
    GoldenCase(
        id="dynamics-points",
        command="producer:dynamics_points",
        expected_file="dynamics_points.json",
        tolerances={"*": 1e-9, "dprob_offresonance": 1e-6, "dprob_detuned_tilted": 1e-6},
    ),
    GoldenCase(
        id="fisher-points",
        command="producer:fisher_points",
        expected_file="fisher_points.json",
        tolerances={"*": 1e-6, "samples_for_accuracy": 1e-12, "gap_offresonance": 1e-6},
    ),
    GoldenCase(
        id="frequentist-points",
        command="producer:frequentist_points",
        expected_file="frequentist_points.json",
        tolerances={"*": 1e-9, "xbar_mean_n6": 1e-12, "xbar_variance_n6": 1e-12,
                     "score_expectation_n6": 1e-12, "loglik_fig5_point": 1e-10},
    ),
    GoldenCase(
        id="posterior-points",
        command="producer:posterior_points",
        expected_file="posterior_points.json",
        tolerances={"*": 1e-6, "mmse_nodata_gaussian": 1e-3},
    ),
    GoldenCase(
        id="mmse-curve-fig5",
        command=MMSE_CURVE_FIG5,
        expected_file="mmse_curve_fig5.csv",
        tolerances={"*": 1e-6},
    ),
    GoldenCase(
        id="map-curve-fig6-gaussian",
        command=MAP_CURVE_GAUSSIAN,
        expected_file="map_curve_gaussian.csv",
        tolerances={"*": 1e-5, "xbar_n_inf": 1e-10},
    ),
    GoldenCase(
        id="map-curve-fig6-jeffreys",
        command=MAP_CURVE_JEFFREYS,
        expected_file="map_curve_jeffreys.csv",
        tolerances={"*": 1e-5, "xbar_n_inf": 1e-10},
    ),
    GoldenCase(
        id="estimate-ml-worked",
        command=ESTIMATE_ML_WORKED,
        expected_file="estimate_ml_worked.json",
        tolerances={"*": 1e-9},
    ),
)


def produce(case: GoldenCase, out_path: Path) -> None:
    """Recompute the case's values through the package and write them."""
    if case.command.startswith("producer:"):
        payload = _PRODUCERS[case.command.split(":", 1)[1]]()
        out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return
    argv = shlex.split(case.command) + ["--out", str(out_path)]
    rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"golden case {case.id}: command exited with {rc}")


def _flatten(obj, prefix: str = "") -> dict:
    out = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            out.update(_flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            out.update(_flatten(value, f"{prefix}.{i}" if prefix else str(i)))
    else:
        out[prefix] = obj
    return out


def _match(produced, golden, tol: float) -> bool:
    if isinstance(golden, str) or isinstance(produced, str):
        return produced == golden
    if golden is None or produced is None:
        return produced == golden
    g = float(golden)
    p = float(produced)
    if math.isnan(g):
        return True
    if math.isnan(p) or math.isinf(g) or math.isinf(p):
        return (math.isnan(p) and math.isnan(g)) or p == g
    return abs(p - g) <= tol * max(1.0, abs(g))


def _compare_json(case: GoldenCase, produced_text: str, golden_text: str) -> GoldenReport:
    produced = _flatten(json.loads(produced_text))
    golden = _flatten(json.loads(golden_text))
    failures = []
    for name, expected in golden.items():
        got = produced.get(name)
        if got is None and expected is not None:
            failures.append(f"{name}: missing (expected {expected!r})")
        elif not _match(got, expected, case.tolerance_for(name)):
            failures.append(f"{name}: got {got!r}, expected {expected!r}")
    return GoldenReport(case.id, not failures, len(golden), failures[:10])


def _read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise MissingGolden("empty CSV")
    return rows[0], rows[1:]


def _compare_csv(case: GoldenCase, produced_text: str, golden_text: str) -> GoldenReport:
    p_header, p_rows = _read_csv(produced_text)
    g_header, g_rows = _read_csv(golden_text)
    failures = []
    if p_header != g_header:
        failures.append(f"header: got {p_header}, expected {g_header}")
        return GoldenReport(case.id, False, 0, failures)
    if len(p_rows) != len(g_rows):
        failures.append(f"row count: got {len(p_rows)}, expected {len(g_rows)}")
        return GoldenReport(case.id, False, 0, failures)
    checked = 0
    for i, (prow, grow) in enumerate(zip(p_rows, g_rows)):
        for name, pval, gval in zip(g_header, prow, grow):
            checked += 1
            try:
                ok = _match(float(pval), float(gval), case.tolerance_for(name))
            except ValueError:
                ok = pval == gval
            if not ok:
                failures.append(f"row {i} column {name}: got {pval}, expected {gval}")
                if len(failures) >= 10:
                    return GoldenReport(case.id, False, checked, failures)
    return GoldenReport(case.id, not failures, checked, failures)


def verify_golden(case: GoldenCase, golden_dir: Path, work_dir: Path) -> GoldenReport:
    """Produce the case's values and compare them against the golden file."""
    golden_path = Path(golden_dir) / case.expected_file
    if not golden_path.exists():
        raise MissingGolden(f"golden file {golden_path} does not exist")
    out_path = Path(work_dir) / ("produced_" + case.expected_file)
    produce(case, out_path)
    produced_text = out_path.read_text(encoding="utf-8")
    golden_text = golden_path.read_text(encoding="utf-8")
    if case.expected_file.endswith(".json"):
        return _compare_json(case, produced_text, golden_text)
    return _compare_csv(case, produced_text, golden_text)
