"""Command-line handlers of the sweeps: the scans and curves, and the seeded
trials of ``simulate``. Each takes the parser, the flags, the field and a
prior builder, and returns the table or payload that ``cli.main`` writes.
Each imports only its own command's module: ``scan`` for the landscape
scans, ``curves`` for the curves and ``montecarlo`` for ``simulate``.
"""

from __future__ import annotations


def _axes_pair(parser, args) -> tuple:
    if len(args.axis) != 2:
        parser.error(f"exactly two --axis specifications required, got {len(args.axis)}")
    return tuple(args.axis)


def fisher_scan(parser, args, cfg, build_prior):
    from . import scan

    return scan.fisher_scan(cfg, args.omega0, _axes_pair(parser, args), args.accuracy)


def ml_roots(parser, args, cfg, build_prior):
    from . import scan

    return scan.ml_root_scan(cfg, _axes_pair(parser, args))


def bayes_scan(parser, args, cfg, build_prior):
    from . import scan

    return scan.bayes_scan(cfg, build_prior(), _axes_pair(parser, args), args.n)


def mmse_curve(parser, args, cfg, build_prior):
    from . import curves

    kinds = [k.strip() for k in args.priors.split(",") if k.strip()]
    if not kinds:
        parser.error("--priors must name at least one prior family")
    for kind in kinds:
        if kind not in ("uniform", "jeffreys", "gaussian"):
            parser.error(f"unknown prior family {kind!r} in --priors")
    priors = [build_prior(kind=kind) for kind in kinds]
    if args.axis.name != "xbar":
        parser.error("--axis for mmse-curve must be an xbar axis")
    return curves.mmse_curve(cfg, priors, args.n, args.axis)


def map_curve(parser, args, cfg, build_prior):
    from . import curves

    prior = build_prior()
    if args.axis.name != "omega0":
        parser.error("--axis for map-curve must be an omega0 axis")
    return curves.map_curve(cfg, prior, args.n, args.axis)


def simulate(parser, args, cfg, build_prior):
    from .montecarlo import Estimator, TrialConfig, run_trials

    if not 0 <= args.seed < 2**64:
        parser.error(f"--seed must fit an unsigned 64-bit integer, got {args.seed}")
    prior = None
    if args.estimator in ("mmse", "map") or args.prior is not None:
        prior = build_prior()
    tc = TrialConfig(
        cfg=cfg,
        omega0_true=args.omega0_true,
        n=args.n,
        trials=args.trials,
        seed=args.seed,
        estimator=Estimator(args.estimator),
        prior=prior,
    )
    report = run_trials(tc)
    return {
        "report": {
            "mean_estimate": report.mean_estimate,
            "bias": report.bias,
            "variance": report.variance,
            "crb": report.crb,
            "vantrees_bound": report.vantrees_bound,
            "degenerate_count": report.degenerate_count,
            "ambiguous_count": report.ambiguous_count,
            "included_trials": report.included_trials,
            "prng_algorithm": report.prng_algorithm,
        },
        "config": {
            "omega": cfg.omega, "b0": cfg.b0, "theta": cfg.theta,
            "omega0_true": args.omega0_true, "n": args.n,
            "trials": args.trials, "seed": args.seed, "estimator": args.estimator,
        },
    }
