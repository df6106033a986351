"""Output checks: one function per kind of op output.

Each check reads the file an op wrote and returns a :class:`Verdict`. A
wrong answer counts against the op as a failure and is also listed in
``wrong``, which makes the whole run incorrect. A typed failure the program
reports itself (an ``error:*`` cell of a bayes-scan) is a failure but not a
wrong answer. References come from tests/golden/ (built by independent
oracles) or from :mod:`oracles`, never from the program's own output.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

import oracles

# Relative tolerances, |got - ref| <= tol * max(1, |ref|) unless noted.
SWEEP_TOL = 1e-6          # MMSE against the dense-grid posterior mean
MAP_LOG_TOL = 1e-6        # nats a MAP answer may fall below the dense-grid maximum
WIDTHS = 5.0              # posterior widths allowed around the ML root above n = 1e6
REPORT_TOL = 1e-6         # Monte Carlo report moments and bounds
FISHER_TOL = 1e-7         # closed-form CFI/QFI cells
ROOT_TOL = 1e-8           # ML root surfaces
BAYES_TOL = 1e-6          # prior-averaged Fisher cells (relative to the value)
BORDER = 1e-9             # sinc-argument and discriminant band where statuses may flip


@dataclass
class Verdict:
    attempts: int = 1
    failed: int = 0
    wrong: list = field(default_factory=list)

    def fail(self, message: str) -> "Verdict":
        self.wrong.append(message)
        self.failed = self.attempts
        return self


def close(got: float, ref: float, tol: float) -> bool:
    return abs(got - ref) <= tol * max(1.0, abs(ref))


# --- golden files ----------------------------------------------------------
# Restated from the golden registry's comparison rules: numeric cells pass
# when |produced - golden| <= tol * max(1, |golden|), a NaN golden cell is not
# checked, strings must match exactly, and a column's tolerance comes from its
# own key or from a key it extends with "." before the "*" default.


def tolerance_for(tolerances: dict, name: str) -> float:
    for key, tol in tolerances.items():
        if key != "*" and (name == key or name.startswith(key + ".")):
            return tol
    return tolerances.get("*", 1e-9)


def _match(got, ref, tol: float) -> bool:
    if isinstance(ref, str) or isinstance(got, str) or ref is None or got is None:
        return got == ref
    g, r = float(got), float(ref)
    if math.isnan(r):
        return True
    if math.isnan(g) or math.isinf(g) or math.isinf(r):
        return g == r
    return abs(g - r) <= tol * max(1.0, abs(r))


def _flatten(obj, prefix: str = "") -> dict:
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {prefix: obj}
    out = {}
    for key, value in items:
        out.update(_flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def compare_golden(produced: str, golden: str, tolerances: dict, is_json: bool) -> list:
    """Mismatching cells of a produced output against its golden file."""
    if is_json:
        got, ref = _flatten(json.loads(produced)), _flatten(json.loads(golden))
        return [
            f"{name}: got {got.get(name)!r}, expected {value!r}"
            for name, value in ref.items()
            if not _match(got.get(name), value, tolerance_for(tolerances, name))
        ]
    got_rows = list(csv.reader(io.StringIO(produced)))
    ref_rows = list(csv.reader(io.StringIO(golden)))
    if not got_rows or got_rows[0] != ref_rows[0]:
        return [f"header: got {got_rows[:1]}, expected {ref_rows[0]}"]
    if len(got_rows) != len(ref_rows):
        return [f"row count: got {len(got_rows) - 1}, expected {len(ref_rows) - 1}"]
    bad = []
    header = ref_rows[0]
    for i, (grow, rrow) in enumerate(zip(got_rows[1:], ref_rows[1:])):
        for name, g, r in zip(header, grow, rrow):
            try:
                ok = _match(float(g), float(r), tolerance_for(tolerances, name))
            except ValueError:
                ok = g == r
            if not ok:
                bad.append(f"row {i} column {name}: got {g}, expected {r}")
    return bad


def golden(text: str, ctx, reference: str, tolerances: dict) -> Verdict:
    ref = (ctx.golden_dir / reference).read_text(encoding="utf-8")
    bad = compare_golden(text, ref, tolerances, reference.endswith(".json"))
    return Verdict().fail(f"{len(bad)} cells off golden, first: {bad[0]}") if bad else Verdict()


# --- posterior sweep -------------------------------------------------------


def sweep(text: str, ctx, field: tuple, mode: str, n: int, k: int, window: tuple,
          prior: tuple) -> Verdict:
    """Up to n = 1e6 an MMSE answer must match the dense-grid posterior mean
    and a MAP answer must reach the dense-grid maximum of the log posterior
    (a value test, since at small n several maxima can tie). Above that the
    grid cannot resolve the posterior, and the answer must lie within a few
    posterior widths of the closed-form ML root."""
    est = float(json.loads(text)["estimate"])
    lower, upper = window
    if not lower <= est <= upper:
        return Verdict().fail(f"estimate {est} outside the window")
    if n > 10**6:
        root = float(oracles.ml_roots(field, k / n)[0])
        width = oracles.posterior_width(field, n, root)
        if abs(est - root) > WIDTHS * width:
            return Verdict().fail(f"estimate {est} is {abs(est - root) / width:.3g} widths from {root}")
        return Verdict()
    if mode == "mmse":
        ref = oracles.posterior_mean(field, n, k, lower, upper, prior)
        if not close(est, ref, SWEEP_TOL):
            return Verdict().fail(f"mmse {est!r}, dense-grid mean {ref!r}")
        return Verdict()
    top = oracles.posterior_max(field, n, k, lower, upper, prior)
    got = float(oracles.log_joint(field, n, k, np.asarray(est), prior))
    if got < top - MAP_LOG_TOL:
        return Verdict().fail(f"map {est!r} has log posterior {got - top:.3g} below the maximum")
    return Verdict()


# --- Monte Carlo trials ----------------------------------------------------


def _ml_trial(field, n, k):
    """Outcome of one ML trial: an estimate, 'degenerate' or 'ambiguous'."""
    if k == 0:
        return "degenerate"
    plus, minus, _, _ = oracles.ml_roots(field, k / n)
    if not np.isfinite(plus):
        return "degenerate"
    accepted = [float(r) for r in (plus, minus) if r > 0.0]
    if len(accepted) == 2:
        return "ambiguous"
    return accepted[0] if accepted else "degenerate"


def trials(text: str, ctx, field: tuple, estimator: str, truth: float, n: int,
           count: int, window: tuple, prior: tuple | None) -> Verdict:
    """Recompute the report from the per-trial counts that the public
    simulate_dataset returns, with one reference estimate per distinct k."""
    report = json.loads(text)["report"]
    ks = ctx.trial_counts(field, truth, n, count)
    per_k = {}
    for k in sorted(set(ks)):
        if estimator == "ml":
            per_k[k] = _ml_trial(field, n, k)
        elif estimator == "mmse":
            per_k[k] = oracles.posterior_mean(field, n, k, *window, prior)
        else:
            per_k[k] = oracles.posterior_mode(field, n, k, *window, prior)
    outcomes = [per_k[k] for k in ks]
    est = np.asarray([v for v in outcomes if not isinstance(v, str)])
    mean = float(np.sum(est) / est.size)
    expected = {
        "degenerate_count": outcomes.count("degenerate"),
        "ambiguous_count": outcomes.count("ambiguous"),
        "included_trials": int(est.size),
        "mean_estimate": mean,
        "bias": mean - truth,
        "variance": float(np.sum((est - mean) ** 2) / (est.size - 1)),
        "crb": 1.0 / (n * float(oracles.cfi(field, truth))),
        "vantrees_bound": None,
    }
    if prior is not None:
        info = 0.0 if prior[0] == "uniform" else 1.0 / prior[2] ** 2
        avg = oracles.prior_average(lambda x: oracles.cfi(field, x), *window, prior)
        expected["vantrees_bound"] = 1.0 / (n * (avg + info / n))
    for key, ref in expected.items():
        got = report.get(key)
        if isinstance(ref, int) or ref is None:
            ok = got == ref
        else:
            ok = got is not None and close(float(got), ref, REPORT_TOL)
        if not ok:
            return Verdict().fail(f"{key}: got {got!r}, recomputed {ref!r}")
    return Verdict()


# --- landscapes ------------------------------------------------------------


def read_table(text: str):
    """Header, numeric cells (rows x columns) and status column of a scan CSV."""
    lines = text.split("\n")
    header = lines[0].split(",")
    body = [line.rsplit(",", 1) for line in lines[1:] if line]
    status = np.array([cells[1] for cells in body])
    values = np.fromstring(",".join(cells[0] for cells in body), sep=",")
    return header, values.reshape(len(body), len(header) - 1), status


def fisher_scan(text: str, ctx, field: tuple, omega0: float, accuracy: float) -> Verdict:
    """Every cell against the closed-form CFI and the state-derivative QFI.

    Cells whose detection probability is within 1e-6 of 1 are ill-conditioned
    for the reference; there only the status is checked.
    """
    header, v, status = read_table(text)
    col = {name: v[:, i] for i, name in enumerate(header[:-1])}
    cfg = tuple(col.get(name, value) for name, value in zip(("omega", "b0", "theta"), field))
    c = oracles.cfi(cfg, omega0)
    q = oracles.qfi(cfg, omega0)
    scale = np.asarray(cfg[0], dtype=float) ** 2
    near_one = 1.0 - oracles.prob(cfg, omega0) < 1e-6
    ok = status == "ok"
    expected = {
        "cfi_raw": c, "qfi_raw": q, "gap_raw": q - c,
        "cfi_scaled": c * scale, "qfi_scaled": q * scale, "gap_scaled": (q - c) * scale,
    }
    check = ok & ~near_one
    for name, ref in expected.items():
        err = np.abs(col[name] - ref) > FISHER_TOL * np.maximum(1.0, np.abs(ref))
        if np.any(err & check):
            i = int(np.flatnonzero(err & check)[0])
            return Verdict().fail(f"{name} row {i}: got {col[name][i]!r}, expected {ref[i]!r}")
    # n_required is 1 / (accuracy * cfi_scaled) by definition.
    if np.any(ok & (np.abs(col["n_required"] * accuracy * col["cfi_scaled"] - 1.0) > 1e-12)):
        return Verdict().fail("n_required is not 1 / (accuracy * cfi_scaled)")
    allowed = ok | ((status == "degenerate_probability") & near_one) | (
        (status == "scaled_cfi_zero") & (np.abs(c * scale) < 1e-12 * np.maximum(q * scale, 1.0))
    )
    if not np.all(allowed):
        i = int(np.flatnonzero(~allowed)[0])
        return Verdict().fail(f"row {i}: status {status[i]} does not fit the closed form")
    return Verdict()


def ml_roots(text: str, ctx, field: tuple) -> Verdict:
    """Root columns and statuses against the closed-form root algebra; cells
    within BORDER of a status boundary accept either neighbouring status."""
    header, v, status = read_table(text)
    col = {name: v[:, i] for i, name in enumerate(header[:-1])}
    cfg = tuple(col.get(name, value) for name, value in zip(("omega", "b0", "theta"), field))
    plus, minus, disc, ratio = oracles.ml_roots(cfg, col["xbar"])
    real = np.isfinite(plus)
    want = np.where(~real, "Complex", np.where(minus < 0.0, "NegativeRejected",
                    np.where(minus > 0.0, "Ambiguous", "Unambiguous")))
    border = (np.abs(ratio - 1.0) < BORDER) | (np.abs(np.nan_to_num(disc)) < BORDER) | (
        np.abs(np.nan_to_num(minus)) < BORDER)
    bad = (status != want) & ~border
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        return Verdict().fail(f"row {i}: status {status[i]}, closed form says {want[i]}")
    both = real & ~border
    for name, ref in (("root_plus", plus), ("root_minus", minus)):
        err = np.abs(col[name] - ref) > ROOT_TOL * np.maximum(1.0, np.abs(ref))
        if np.any(err & both):
            i = int(np.flatnonzero(err & both)[0])
            return Verdict().fail(f"{name} row {i}: got {col[name][i]!r}, expected {ref[i]!r}")
    boundary = np.sqrt(col["xbar"]) / np.abs(np.sin(cfg[2]))
    if not np.allclose(col["boundary_b0"], boundary, rtol=ROOT_TOL, atol=0.0):
        return Verdict().fail("boundary_b0 column off sqrt(xbar)/|sin theta|")
    return Verdict()


def bayes_scan(text: str, ctx, field: tuple, window: tuple, n: int) -> Verdict:
    """Each cell is one attempt. An ``error:*`` cell is a failure; an ok cell
    must match the dense-grid Jeffreys average, and is wrong where the
    reference finds the prior information divergent."""
    header, v, status = read_table(text)
    verdict = Verdict(attempts=len(status))
    col = {name: v[:, i] for i, name in enumerate(header[:-1])}
    for i, st in enumerate(status):
        if st.startswith("error:"):
            verdict.failed += 1
            continue
        cfg = tuple(float(col[name][i]) if name in col else value
                    for name, value in zip(("omega", "b0", "theta"), field))
        ref = oracles.bayes_fisher_jeffreys(cfg, *window, n)
        got = (col["bayes_cfi"][i], col["bayes_qfi"][i], col["bayes_gap"][i])
        if st != "ok" or ref is None or any(
                abs(g - r) > BAYES_TOL * abs(r) for g, r in zip(got, ref)):
            verdict.failed += 1
            verdict.wrong.append(f"cell {i} ({st}): got {got}, reference {ref}")
    return verdict
