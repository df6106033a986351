"""Command-line front end.

Subcommands map one-to-one onto the scan, estimation and simulation
operations; outputs are CSV (scans) or JSON (single estimates, simulation
reports). Every data-producing subcommand takes ``--out`` (``-`` for
standard output). File outputs are reproducible byte for byte given
identical flags and seed; the run manifest embedded in JSON outputs or
written next to CSV outputs therefore carries no timestamp (wall-clock time
goes to standard error instead).

Exit codes: 0 success, 1 usage error, 2 numerical non-convergence,
3 domain/validity failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import sys
from datetime import datetime, timezone

from . import __version__
from .dynamics import FieldConfig
from .errors import (
    DomainError,
    EstimationError,
    EvidenceUnderflow,
    NonConvergence,
)
from .frequentist import Dataset, ml_estimate, mvu_p1
from .montecarlo import Estimator, TrialConfig, run_trials
from .posterior import PosteriorSpec, map_estimate, mmse
from .priors import Prior, SupportWindow
from .scan import Axis, bayes_scan, fisher_scan, map_curve, ml_root_scan, mmse_curve

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage-error exit code (1, not 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive(name):
    def convert(text):
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"{name} must be positive, got {text}")
        return value

    return convert


def _positive_int(name):
    def convert(text):
        value = int(text)
        if not value >= 1:
            raise argparse.ArgumentTypeError(f"{name} must be a positive integer, got {text}")
        return value

    return convert


def _parse_axis(text: str) -> Axis:
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"axis must be name:start:stop:count, got {text!r}"
        )
    name, start, stop, count = parts
    try:
        return Axis(name=name, start=float(start), stop=float(stop), count=int(count))
    except (ValueError, DomainError) as exc:
        raise argparse.ArgumentTypeError(f"invalid axis {text!r}: {exc}") from exc


def _add_field_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega", type=float, required=True, help="drive angular speed (dimensionless)")
    p.add_argument("--b0", type=_positive("--b0"), required=True, help="drive coupling strength (dimensionless, > 0)")
    p.add_argument("--theta", type=float, help="gyration angle in radians, inside (0, pi)")
    p.add_argument("--theta-deg", type=float, help="gyration angle in degrees (alternative to --theta)")


def _add_prior_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prior", choices=["uniform", "jeffreys", "gaussian"], help="prior family")
    p.add_argument("--window-lower", type=_positive("--window-lower"), help="lower end of the frequency window")
    p.add_argument("--window-upper", type=_positive("--window-upper"), help="upper end of the frequency window")
    p.add_argument("--prior-mean", type=float, help="Gaussian prior mean")
    p.add_argument("--prior-sigma", type=_positive("--prior-sigma"), help="Gaussian prior standard deviation")


def _add_out_flag(p: argparse.ArgumentParser, default: str | None = None) -> None:
    kwargs = {"required": True} if default is None else {"default": default}
    p.add_argument("--out", help="output path, or - for standard output", **kwargs)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rabi-est", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"rabi-est {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("fisher-scan", help="CFI/QFI landscape over two field axes")
    _add_field_flags(p)
    p.add_argument("--omega0", type=_positive("--omega0"), required=True)
    p.add_argument("--axis", type=_parse_axis, action="append", required=True,
                   metavar="NAME:START:STOP:COUNT")
    p.add_argument("--accuracy", type=_positive("--accuracy"), default=0.001)
    _add_out_flag(p)
    p.add_argument("--config", help="key = value defaults file; flags override")

    p = sub.add_parser("ml-roots", help="ML inversion root surfaces")
    _add_field_flags(p)
    p.add_argument("--axis", type=_parse_axis, action="append", required=True,
                   metavar="NAME:START:STOP:COUNT")
    _add_out_flag(p)
    p.add_argument("--config", help="key = value defaults file; flags override")

    p = sub.add_parser("bayes-scan", help="prior-averaged Fisher landscape")
    _add_field_flags(p)
    _add_prior_flags(p)
    p.add_argument("--axis", type=_parse_axis, action="append", required=True,
                   metavar="NAME:START:STOP:COUNT")
    p.add_argument("--n", type=_positive_int("--n"), required=True, help="trial count entering the prior-information term")
    _add_out_flag(p)
    p.add_argument("--config", help="key = value defaults file; flags override")

    p = sub.add_parser("mmse-curve", help="posterior-mean estimate vs count rate")
    _add_field_flags(p)
    p.add_argument("--priors", required=True,
                   help="comma-separated prior families, e.g. uniform,jeffreys,gaussian")
    p.add_argument("--window-lower", type=_positive("--window-lower"), required=True)
    p.add_argument("--window-upper", type=_positive("--window-upper"), required=True)
    p.add_argument("--prior-mean", type=float)
    p.add_argument("--prior-sigma", type=_positive("--prior-sigma"))
    p.add_argument("--n", type=_positive_int("--n"), required=True)
    p.add_argument("--axis", type=_parse_axis, required=True, metavar="xbar:START:STOP:COUNT")
    _add_out_flag(p)
    p.add_argument("--config", help="key = value defaults file; flags override")

    p = sub.add_parser("map-curve", help="MAP stationarity curve vs frequency")
    _add_field_flags(p)
    _add_prior_flags(p)
    p.add_argument("--n", type=_positive_int("--n"), required=True)
    p.add_argument("--axis", type=_parse_axis, required=True, metavar="omega0:START:STOP:COUNT")
    _add_out_flag(p)
    p.add_argument("--config", help="key = value defaults file; flags override")

    p = sub.add_parser("estimate", help="single estimate from observed counts")
    p.add_argument("mode", choices=["ml", "mmse", "map"])
    _add_field_flags(p)
    p.add_argument("--n", type=_positive_int("--n"), required=True, help="number of trials")
    p.add_argument("--k", type=float, required=True, help="photon counts")
    _add_prior_flags(p)
    p.add_argument("--grid-points", type=_positive_int("--grid-points"), default=2001)
    _add_out_flag(p, default="-")
    p.add_argument("--config", help="key = value defaults file; flags override")

    p = sub.add_parser("simulate", help="seeded Monte Carlo estimator benchmark")
    _add_field_flags(p)
    p.add_argument("--omega0-true", type=_positive("--omega0-true"), required=True)
    p.add_argument("--n", type=_positive_int("--n"), required=True)
    p.add_argument("--trials", type=_positive_int("--trials"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--estimator", choices=["ml", "mmse", "map"], default="ml")
    _add_prior_flags(p)
    _add_out_flag(p, default="-")
    p.add_argument("--config", help="key = value defaults file; flags override")

    return parser


def _expand_config(argv: list[str]) -> list[str]:
    """Insert key = value pairs from a --config file as flags right after the
    subcommand, so explicitly passed flags take precedence."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        return argv
    path = argv[idx + 1]
    rest = argv[:idx] + argv[idx + 2:]
    tokens: list[str] = []
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"config line is not 'key = value': {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            tokens += [f"--{key.replace('_', '-')}", value]
    # argv[0] is the subcommand; positional mode (estimate) must stay in front
    # of injected flags, so find the insertion point past leading positionals.
    insert = 1
    while insert < len(rest) and not rest[insert].startswith("-"):
        insert += 1
    return rest[:insert] + tokens + rest[insert:]


def _resolve_theta(parser: _Parser, args) -> float:
    if args.theta is not None and args.theta_deg is not None:
        parser.error("--theta and --theta-deg are mutually exclusive")
    if args.theta is None and args.theta_deg is None:
        parser.error("one of --theta, --theta-deg is required")
    theta = args.theta if args.theta is not None else math.radians(args.theta_deg)
    if not 0.0 < theta < math.pi:
        parser.error(f"--theta must lie strictly inside (0, pi), got {theta}")
    return theta


def _field_config(parser: _Parser, args) -> FieldConfig:
    return FieldConfig(omega=args.omega, b0=args.b0, theta=_resolve_theta(parser, args))


def _build_prior(parser: _Parser, args, cfg: FieldConfig, kind: str | None = None) -> Prior:
    kind = kind or args.prior
    if kind is None:
        parser.error("--prior is required for this command")
    if args.window_lower is None or args.window_upper is None:
        parser.error("--window-lower and --window-upper are required with a prior")
    if not args.window_lower < args.window_upper:
        parser.error("--window-lower must be smaller than --window-upper")
    window = SupportWindow(args.window_lower, args.window_upper)
    if kind == "uniform":
        return Prior.uniform(window)
    if kind == "jeffreys":
        return Prior.jeffreys(window, cfg)
    if args.prior_mean is None or args.prior_sigma is None:
        parser.error("--prior-mean and --prior-sigma are required for the gaussian prior")
    return Prior.gaussian(window, mean=args.prior_mean, sigma=args.prior_sigma)


def _workers(parser: _Parser) -> int:
    raw = os.environ.get("RABI_EST_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        parser.error(f"RABI_EST_THREADS must be an integer, got {raw!r}")
    if value < 1:
        parser.error(f"RABI_EST_THREADS must be >= 1, got {value}")
    return value


def _manifest(argv: list[str], args, seed: int | None) -> dict:
    params = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("command", "config", "out") and value is not None
        and not isinstance(value, (Axis, list))
    }
    for key, value in list(params.items()):
        if isinstance(value, float) and not math.isfinite(value):
            params[key] = str(value)
    return {
        "tool_version": __version__,
        "command_line": shlex.join(["rabi-est", *argv]),
        "seed": seed,
        "parameters": params,
    }


def _write_json(out: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fp:
            fp.write(text)


def _write_table(out: str, table, manifest: dict) -> None:
    table.metadata["manifest"] = manifest
    if out == "-":
        table.to_csv(sys.stdout)
        return
    with open(out, "w", encoding="utf-8", newline="\n") as fp:
        table.to_csv(fp)
    with open(out + ".manifest.json", "w", encoding="utf-8", newline="\n") as fp:
        json.dump(table.metadata, fp, indent=2)
        fp.write("\n")


def _axes_pair(parser: _Parser, args) -> tuple[Axis, Axis]:
    axes = args.axis if isinstance(args.axis, list) else [args.axis]
    if len(axes) != 2:
        parser.error(f"exactly two --axis specifications required, got {len(axes)}")
    return axes[0], axes[1]


def _cmd_fisher_scan(parser, args, argv) -> int:
    cfg = _field_config(parser, args)
    table = fisher_scan(cfg, args.omega0, _axes_pair(parser, args), args.accuracy)
    _write_table(args.out, table, _manifest(argv, args, seed=None))
    return 0


def _cmd_ml_roots(parser, args, argv) -> int:
    cfg = _field_config(parser, args)
    table = ml_root_scan(cfg, _axes_pair(parser, args))
    _write_table(args.out, table, _manifest(argv, args, seed=None))
    return 0


def _cmd_bayes_scan(parser, args, argv) -> int:
    cfg = _field_config(parser, args)
    prior = _build_prior(parser, args, cfg)
    table = bayes_scan(cfg, prior, _axes_pair(parser, args), args.n, workers=_workers(parser))
    _write_table(args.out, table, _manifest(argv, args, seed=None))
    return 0


def _cmd_mmse_curve(parser, args, argv) -> int:
    cfg = _field_config(parser, args)
    kinds = [k.strip() for k in args.priors.split(",") if k.strip()]
    if not kinds:
        parser.error("--priors must name at least one prior family")
    for kind in kinds:
        if kind not in ("uniform", "jeffreys", "gaussian"):
            parser.error(f"unknown prior family {kind!r} in --priors")
    priors = [_build_prior(parser, args, cfg, kind=kind) for kind in kinds]
    if args.axis.name != "xbar":
        parser.error("--axis for mmse-curve must be an xbar axis")
    table = mmse_curve(cfg, priors, args.n, args.axis)
    _write_table(args.out, table, _manifest(argv, args, seed=None))
    return 0


def _cmd_map_curve(parser, args, argv) -> int:
    cfg = _field_config(parser, args)
    prior = _build_prior(parser, args, cfg)
    if args.axis.name != "omega0":
        parser.error("--axis for map-curve must be an omega0 axis")
    table = map_curve(cfg, prior, args.n, args.axis)
    _write_table(args.out, table, _manifest(argv, args, seed=None))
    return 0


def _cmd_estimate(parser, args, argv) -> int:
    cfg = _field_config(parser, args)
    if not 0 <= args.k <= args.n:
        parser.error(f"--k must lie in [0, --n], got k={args.k}, n={args.n}")
    data = Dataset(n=args.n, k=args.k)
    config_echo = {
        "omega": cfg.omega, "b0": cfg.b0, "theta": cfg.theta,
        "n": args.n, "k": args.k,
    }
    manifest = _manifest(argv, args, seed=None)
    if args.mode == "ml":
        result = ml_estimate(mvu_p1(data), cfg)
        payload = {
            "roots": [{"value": r.value, "status": r.status.value} for r in result.roots],
            "ambiguity": result.ambiguity.value,
            "xbar": data.xbar,
            "config": config_echo,
            "manifest": manifest,
        }
    else:
        prior = _build_prior(parser, args, cfg)
        spec = PosteriorSpec(data=data, cfg=cfg, prior=prior)
        if args.mode == "mmse":
            payload = {
                "estimate": mmse(spec),
                "xbar": data.xbar,
                "config": config_echo,
                "manifest": manifest,
            }
        else:
            result = map_estimate(spec, grid_points=args.grid_points)
            payload = {
                "maxima": [
                    {
                        "value": m.value,
                        "log_posterior": m.log_posterior,
                        "second_derivative": m.second_derivative,
                        "boundary": m.boundary,
                        "stationarity_residual": m.stationarity_residual,
                    }
                    for m in result.maxima
                ],
                "estimate": result.best.value,
                "xbar": data.xbar,
                "config": config_echo,
                "manifest": manifest,
            }
    _write_json(args.out, payload)
    return 0


def _cmd_simulate(parser, args, argv) -> int:
    cfg = _field_config(parser, args)
    if not 0 <= args.seed < 2**64:
        parser.error(f"--seed must fit an unsigned 64-bit integer, got {args.seed}")
    prior = None
    if args.estimator in ("mmse", "map") or args.prior is not None:
        prior = _build_prior(parser, args, cfg)
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
    payload = {
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
        "manifest": _manifest(argv, args, seed=args.seed),
    }
    _write_json(args.out, payload)
    return 0


_HANDLERS = {
    "fisher-scan": _cmd_fisher_scan,
    "ml-roots": _cmd_ml_roots,
    "bayes-scan": _cmd_bayes_scan,
    "mmse-curve": _cmd_mmse_curve,
    "map-curve": _cmd_map_curve,
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        expanded = _expand_config(list(argv))
        args = parser.parse_args(expanded)
        print(
            f"rabi-est {args.command} started {datetime.now(timezone.utc).isoformat()}",
            file=sys.stderr,
        )
        return _HANDLERS[args.command](parser, args, expanded)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (NonConvergence, EvidenceUnderflow) as exc:
        print(f"rabi-est: numerical failure: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"rabi-est: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except EstimationError as exc:
        print(f"rabi-est: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"rabi-est: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
