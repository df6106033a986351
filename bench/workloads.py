"""The benchmark's workloads: fixed lists of CLI operations (ops).

One client runs the ops of a workload one after another, each in a fresh
interpreter (a closed loop with a single client). Measurement rules, and why:

- One fresh interpreter per op. ``posterior._workspace`` and
  ``posterior._log_evidence`` are ``lru_cache``d, so repeating an op inside
  one process would time the cache instead of the computation.
- ``RABI_EST_THREADS=1`` for every timed op, so the process pool cannot hide
  an algorithmic cost. The pool is measured separately, in the traced run.
- Every output is checked (see checks.py), and every op that runs more than
  once in a run must write byte-identical files each time: ``cli.py``
  promises reproducible outputs for identical flags and seed.
- The seed fixes the order of the ops in each workload and, in ``trials``,
  the simulation seed. Inputs are otherwise fixed, so a run measures the
  same work on every seed.
- No input is chosen to avoid a known defect. With rabi_est 0.1.0 these ops
  fail: 8 of 28 in ``posterior`` (n = 1e8 exits 2 after exhausting the
  quadrature budget, n = 1e10 exits 3 on an exp overflow), 0 of 3 in
  ``trials`` and 4 of 11 in ``landscapes`` (``error:NonConvergence`` cells,
  where the Jeffreys prior information diverges).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import partial
from typing import Callable

import checks
import oracles

FIELD = (1.0, 1.0, math.pi / 2)  # omega, b0, theta of the paper's figure 5
FIELD_FLAGS = ("--omega", "1", "--b0", "1", "--theta", repr(math.pi / 2))
WIDE = (0.1, 100.0)
WIDE_FLAGS = ("--window-lower", "0.1", "--window-upper", "100")


@dataclass(frozen=True)
class Op:
    """One CLI invocation, its output file, and how to judge and count it.

    ``metric`` names the workload figure the op's time contributes to; with
    ``work`` > 0 that figure is work units (trials, cells) per second,
    otherwise seconds. ``pool`` marks ops whose command honours
    RABI_EST_THREADS. ``attempts`` is what the op counts for in the failure
    share: each bayes-scan cell is one attempt.
    """

    id: str
    argv: tuple
    out: str
    check: Callable
    metric: str
    work: int = 0
    pool: bool = False
    files: tuple = dataclass_field(default=())
    attempts: int = 1

    @property
    def outputs(self) -> tuple:
        return (self.out, *self.files)


def _table(id, argv, out, check, metric, work=0, pool=False, attempts=1) -> Op:
    """An op writing a CSV table, which the CLI pairs with a manifest."""
    return Op(id, argv, out, check, metric, work, pool, (out + ".manifest.json",), attempts)


def _argv(text: str) -> tuple:
    return tuple(text.split())


# Golden-registry commands (rabi_est.golden), restated with their tolerances.
_FIG5 = "--omega 1 --b0 1 --theta 1.5707963267948966 --n 8"
FIGURES = (
    ("mmse_curve_fig5", f"mmse-curve {_FIG5} --priors uniform,jeffreys,gaussian "
     "--window-lower 0.1 --window-upper 100 --prior-mean 10 --prior-sigma 2 "
     "--axis xbar:0:1:101", "mmse_curve_fig5.csv", {"*": 1e-6}),
    ("map_curve_gaussian", f"map-curve {_FIG5} --prior gaussian "
     "--window-lower 0.1 --window-upper 100 --prior-mean 10 --prior-sigma 2 "
     "--axis omega0:0.15:12.15:241", "map_curve_gaussian.csv", {"*": 1e-5, "xbar_n_inf": 1e-10}),
    ("map_curve_jeffreys", f"map-curve {_FIG5} --prior jeffreys "
     "--window-lower 0.1 --window-upper 100 --axis omega0:0.15:12.15:241",
     "map_curve_jeffreys.csv", {"*": 1e-5, "xbar_n_inf": 1e-10}),
    ("estimate_ml_worked", "estimate ml --omega 1 --b0 1 --theta 1.5707963267948966 "
     "--n 100 --k 41", "estimate_ml_worked.json", {"*": 1e-9}),
)

SWEEP_N = (1, 10**2, 10**4, 10**6, 10**8, 10**10)
SWEEP_PRIORS = {
    "uniform": (("uniform",), ("--prior", "uniform")),
    "gaussian": (("gaussian", 3.0, 1.0),
                 ("--prior", "gaussian", "--prior-mean", "3", "--prior-sigma", "1")),
}


def posterior_ops() -> list:
    """Why: posterior quadrature (posterior plus numerics.integrate) does
    about 90% of the work. The four figures run it at small n without
    repeated inputs; the sweep crosses ten decades of n at k = round(n p(3)),
    where the fixed mass grid stops resolving the posterior (n >= 1e8)."""
    ops = []
    for name, command, reference, tolerances in FIGURES:
        check = partial(checks.golden, reference=reference, tolerances=tolerances)
        argv = _argv(command)
        if reference.endswith(".csv"):
            ops.append(_table(f"figure.{name}", argv, reference, check, "figure_s",
                              pool=argv[0] == "mmse-curve"))
        else:
            ops.append(Op(f"figure.{name}", argv, reference, check, "figure_s"))
    p3 = float(oracles.prob(FIELD, 3.0))
    for n in SWEEP_N:
        k = round(n * p3)
        for mode in ("mmse", "map"):
            for prior_name, (prior, flags) in SWEEP_PRIORS.items():
                op_id = f"sweep.{mode}.{prior_name}.n1e{round(math.log10(n))}"
                argv = ("estimate", mode, *FIELD_FLAGS, "--n", str(n), "--k", str(k),
                        *flags, *WIDE_FLAGS)
                check = partial(checks.sweep, field=FIELD, mode=mode, n=n, k=k,
                                window=WIDE, prior=prior)
                ops.append(Op(op_id, argv, op_id + ".json", check, "sweep_s"))
    return ops


TRIALS_TRUTH = 2.0
TRIALS_N = 100
# Trial counts: each op takes 0.6-2 s, so a run fits four or more passes.
# Single executions of these ops vary by up to 30% on a shared machine even
# in reference seconds; the median over several executions does not.
TRIALS = (
    ("ml", 10_000, None, ()),
    ("mmse", 500, ("uniform",), ("--prior", "uniform", *WIDE_FLAGS)),
    ("map", 25, ("gaussian", 2.0, 1.0),
     ("--prior", "gaussian", "--prior-mean", "2", "--prior-sigma", "1", *WIDE_FLAGS)),
)


def trials_ops(seed: int) -> list:
    """Why: the per-trial Python loop of montecarlo with heavily repeated
    inputs (n = 100 allows at most 101 distinct posteriors). About half the
    ML trials are excluded as degenerate or ambiguous, so the exclusion paths
    run too; MAP spends most of its time in the scalar grid pass of
    numerics.local_maxima."""
    ops = []
    for estimator, count, prior, flags in TRIALS:
        argv = ("simulate", *FIELD_FLAGS, "--omega0-true", "2", "--n", str(TRIALS_N),
                "--trials", str(count), "--seed", str(seed), "--estimator", estimator, *flags)
        check = partial(checks.trials, field=FIELD, estimator=estimator, truth=TRIALS_TRUTH,
                        n=TRIALS_N, count=count, window=WIDE, prior=prior)
        ops.append(Op(f"simulate.{estimator}", argv, f"simulate_{estimator}.json", check,
                      f"trials_per_s.{estimator}", work=count))
    return ops


def landscapes_ops() -> list:
    """Why: closed-form array kernels whose 250 000-cell output is bound by
    the CSV writer, beside a Jeffreys bayes-scan whose cells integrate per
    cell and, where the prior information diverges, fail slowly. The trial
    and posterior-estimate paths are not used."""
    fisher = ("fisher-scan", *FIELD_FLAGS, "--omega0", "2",
              "--axis", "b0:0.1:5:500", "--axis", "theta:0.01:3.13:500")
    roots = ("ml-roots", *FIELD_FLAGS, "--axis", "b0:0.1:5:500", "--axis", "xbar:0.001:0.999:500")
    bayes = ("bayes-scan", *FIELD_FLAGS, "--prior", "jeffreys", "--window-lower", "1.5",
             "--window-upper", "5", "--n", "8", "--axis", "b0:0.5:3:3", "--axis", "omega:-3:3:3")
    return [
        _table("scan.fisher", fisher, "fisher_scan.csv",
               partial(checks.fisher_scan, field=FIELD, omega0=2.0, accuracy=0.001),
               "cells_per_s.fisher", work=250_000),
        _table("scan.ml_roots", roots, "ml_roots.csv",
               partial(checks.ml_roots, field=FIELD), "cells_per_s.ml_roots", work=250_000),
        _table("scan.bayes", bayes, "bayes_scan.csv",
               partial(checks.bayes_scan, field=FIELD, window=(1.5, 5.0), n=8),
               "cells_per_s.bayes", work=9, pool=True, attempts=9),
    ]


def ops_for(workload: str, seed: int) -> list:
    if workload == "posterior":
        return posterior_ops()
    if workload == "trials":
        return trials_ops(seed)
    return landscapes_ops()


WORKLOADS = ("posterior", "trials", "landscapes")

# Workloads whose op times are reported in reference seconds (see run.scaled).
# Their ops are bound by Python loops and interpreter start, as the
# reference computation is, and slow down with it on a loaded machine. The
# landscapes ops are bound by large arrays and the CSV writer, which the
# reference does not track: scaling widened the spread of their wall_s
# about four times, so they are reported in seconds.
REFERENCE_TIMED = ("posterior", "trials")
