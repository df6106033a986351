"""Command-line front end.

Subcommands map one-to-one onto the scan, estimation and simulation
operations; outputs are CSV (scans) or JSON (single estimates, simulation
reports). Every data-producing subcommand takes ``--out`` (``-`` for
standard output). File outputs are reproducible byte for byte given
identical flags and seed; the run manifest embedded in JSON outputs or
written next to CSV outputs therefore carries no timestamp (wall-clock time
goes to standard error instead). Each subcommand imports the modules it
runs when it runs, so a single estimate loads no scan or Monte Carlo code.

Run as a program (``python -m rabi_est.cli`` or the ``rabi-est`` script),
the command line enters through ``run``, which moves every live object into
the cyclic collector's permanent generation (``gc.freeze``) once ``main``
returns. A run is one short process; otherwise the collections at
interpreter exit walk numpy's ~22,000 objects again, which was most of a
cold op's ~28 ms exit. The collector stays enabled, so cycles made during a
run are still freed, and exit still flushes and finalizes. ``main``, the
in-process entry, leaves it alone.

Exit codes: 0 success, 1 usage error, 2 numerical non-convergence,
3 domain/validity failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import shlex
import sys
import time

from . import __version__
from .dynamics import FieldConfig
from .errors import (
    DomainError,
    EstimationError,
    EvidenceUnderflow,
    NonConvergence,
)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage-error exit code (1, not 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _real(name, positive=False):
    """A float flag's converter: the value must be a finite number, and
    above 0 if ``positive``."""
    def convert(text):
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value) or (positive and not value > 0):
            raise argparse.ArgumentTypeError(
                f"{name} must be a finite{' positive' if positive else ''} number, got {text}")
        return value

    return convert


def _positive(name):
    return _real(name, positive=True)


def _integer(name, positive=False):
    """An integer flag's converter: an integral literal, taken exactly (1e10
    and 5.0 too), at least 1 if ``positive``, and one that a float can hold,
    as the estimators take it into floats."""
    def convert(text):
        try:
            value = int(text)
        except ValueError:
            value = _integral(text)
        if value is None or (positive and not value >= 1):
            raise argparse.ArgumentTypeError(
                f"{name} must be a{' positive' if positive else 'n'} integer, got {text}")
        try:
            float(value)
        except OverflowError:
            raise argparse.ArgumentTypeError(
                f"{name} must be an integer within the float range, got {text}") from None
        return value

    return convert


def _integral(text: str) -> int | None:
    """The integer that a decimal literal such as 1e10 or 5.0 names exactly,
    or None if it names none (or one of over 4300 digits, int()'s limit)."""
    from decimal import Decimal, InvalidOperation

    try:
        value = Decimal(text)
    except InvalidOperation:
        return None
    if value.is_finite() and value.adjusted() < 4300 and value == value.to_integral_value():
        return int(value)
    return None


def _count(text):
    """--k: a finite number, kept as the exact integer of an integral literal
    from 2**53 on, where floats skip integers, so it compares with --n exactly."""
    value = _real("--k")(text)
    return value >= 2**53 and _integral(text) or value


def _positive_int(name):
    return _integer(name, positive=True)


def _parse_axis(text: str):
    from .scan import Axis

    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"axis must be name:start:stop:count, got {text!r}"
        )
    name, start, stop, count = parts
    count = _integer(f"axis {name} count")(count)
    try:
        start, stop = float(start), float(stop)
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError("start and stop must be finite")
        return Axis(name=name, start=start, stop=stop, count=count)
    except (ValueError, DomainError) as exc:
        raise argparse.ArgumentTypeError(f"invalid axis {text!r}: {exc}") from exc


# Why n >= 1, for the help of every --n flag.
_N_RULE = "an integer >= 1 such as 100 or 1e10: the count rate k/n needs at least one trial"


def _add_prior_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prior", choices=["uniform", "jeffreys", "gaussian"], help="prior family")
    p.add_argument("--window-lower", type=_positive("--window-lower"), help="lower end of the frequency window")
    p.add_argument("--window-upper", type=_positive("--window-upper"), help="upper end of the frequency window")
    p.add_argument("--prior-mean", type=_real("--prior-mean"), help="Gaussian prior mean")
    p.add_argument("--prior-sigma", type=_positive("--prior-sigma"), help="Gaussian prior standard deviation")


def _add_flags(p: argparse.ArgumentParser, command: str) -> None:
    """Fill in the arguments of ``command``, in the order its help lists them."""
    if command == "estimate":
        p.add_argument("mode", choices=["ml", "mmse", "map"])
    p.add_argument("--omega", type=_real("--omega"), required=True,
                   help="drive angular speed (dimensionless)")
    p.add_argument("--b0", type=_positive("--b0"), required=True,
                   help="drive coupling strength (dimensionless, > 0)")
    p.add_argument("--theta", type=_real("--theta"), help="gyration angle in radians, inside (0, pi)")
    p.add_argument("--theta-deg", type=_real("--theta-deg"),
                   help="gyration angle in degrees (alternative to --theta)")
    axis = {"type": _parse_axis, "required": True}
    axes = {**axis, "action": "append", "metavar": "NAME:START:STOP:COUNT"}
    if command == "fisher-scan":
        p.add_argument("--omega0", type=_positive("--omega0"), required=True)
        p.add_argument("--axis", **axes)
        p.add_argument("--accuracy", type=_positive("--accuracy"), default=0.001)
    elif command == "ml-roots":
        p.add_argument("--axis", **axes)
    elif command == "bayes-scan":
        _add_prior_flags(p)
        p.add_argument("--axis", **axes)
        p.add_argument("--n", type=_positive_int("--n"), required=True,
                       help=f"trial count entering the prior-information term, {_N_RULE}")
    elif command == "mmse-curve":
        p.add_argument("--priors", required=True,
                       help="comma-separated prior families, e.g. uniform,jeffreys,gaussian")
        p.add_argument("--window-lower", type=_positive("--window-lower"), required=True)
        p.add_argument("--window-upper", type=_positive("--window-upper"), required=True)
        p.add_argument("--prior-mean", type=_real("--prior-mean"))
        p.add_argument("--prior-sigma", type=_positive("--prior-sigma"))
        p.add_argument("--n", type=_positive_int("--n"), required=True, help=f"number of trials, {_N_RULE}")
        p.add_argument("--axis", **axis, metavar="xbar:START:STOP:COUNT")
    elif command == "map-curve":
        _add_prior_flags(p)
        p.add_argument("--n", type=_positive_int("--n"), required=True, help=f"number of trials, {_N_RULE}")
        p.add_argument("--axis", **axis, metavar="omega0:START:STOP:COUNT")
    elif command == "estimate":
        p.add_argument("--n", type=_positive_int("--n"), required=True, help=f"number of trials, {_N_RULE}")
        p.add_argument("--k", type=_count, required=True, help="photon counts")
        _add_prior_flags(p)
    else:  # simulate
        p.add_argument("--omega0-true", type=_positive("--omega0-true"), required=True)
        p.add_argument("--n", type=_positive_int("--n"), required=True,
                       help=f"trials per simulated dataset, {_N_RULE}")
        p.add_argument("--trials", type=_positive_int("--trials"), required=True)
        p.add_argument("--seed", type=_integer("--seed"), required=True)
        p.add_argument("--estimator", choices=["ml", "mmse", "map"], default="ml")
        _add_prior_flags(p)
    out = {"default": "-"} if command in ("estimate", "simulate") else {"required": True}
    p.add_argument("--out", help="output path, or - for standard output", **out)
    p.add_argument("--config", help="key = value defaults file; flags override")


def _build_parser(command: str | None = None) -> _Parser:
    """The command-line parser. Every subcommand is listed, but only
    ``command``'s arguments are filled in: a run parses one command, and
    building the arguments of all seven costs each run a few milliseconds."""
    parser = _Parser(prog="rabi-est", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"rabi-est {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (_, help_line) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name == command:
            _add_flags(p, name)
    return parser


def _expand_config(argv: list[str]) -> list[str]:
    """Insert key = value pairs from a --config file as flags right after the
    subcommand, so explicitly passed flags take precedence. The file is
    named as ``--config PATH`` or ``--config=PATH``."""
    for idx, arg in enumerate(argv):
        if arg.startswith("--config="):
            path, rest = arg.partition("=")[2], argv[:idx] + argv[idx + 1:]
            break
        if arg == "--config" and idx + 1 < len(argv):
            path, rest = argv[idx + 1], argv[:idx] + argv[idx + 2:]
            break
    else:
        return argv
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


def _build_prior(parser: _Parser, args, cfg: FieldConfig, kind: str | None = None):
    from .priors import Prior, SupportWindow

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


def _manifest(argv: list[str], args, seed: int | None) -> dict:
    params = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("axis", "command", "config", "out") and value is not None
    }
    return {
        "tool_version": __version__,
        "command_line": shlex.join(["rabi-est", *argv]),
        "seed": seed,
        "parameters": params,
    }


def _strict(value):
    """value with every non-finite float as None: RFC 8259 JSON has no NaN
    or infinity tokens."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def _write_json(out: str, payload: dict) -> None:
    text = json.dumps(_strict(payload), indent=2, allow_nan=False) + "\n"
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
        json.dump(_strict(table.metadata), fp, indent=2, allow_nan=False)
        fp.write("\n")


def _axes_pair(parser: _Parser, args) -> tuple:
    if len(args.axis) != 2:
        parser.error(f"exactly two --axis specifications required, got {len(args.axis)}")
    return tuple(args.axis)


def _cmd_fisher_scan(parser, args, argv) -> int:
    from .scan import fisher_scan

    cfg = _field_config(parser, args)
    table = fisher_scan(cfg, args.omega0, _axes_pair(parser, args), args.accuracy)
    _write_table(args.out, table, _manifest(argv, args, seed=None))
    return 0


def _cmd_ml_roots(parser, args, argv) -> int:
    from .scan import ml_root_scan

    cfg = _field_config(parser, args)
    table = ml_root_scan(cfg, _axes_pair(parser, args))
    _write_table(args.out, table, _manifest(argv, args, seed=None))
    return 0


def _cmd_bayes_scan(parser, args, argv) -> int:
    from .scan import bayes_scan

    cfg = _field_config(parser, args)
    prior = _build_prior(parser, args, cfg)
    table = bayes_scan(cfg, prior, _axes_pair(parser, args), args.n)
    _write_table(args.out, table, _manifest(argv, args, seed=None))
    return 0


def _cmd_mmse_curve(parser, args, argv) -> int:
    from .scan import mmse_curve

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
    from .scan import map_curve

    cfg = _field_config(parser, args)
    prior = _build_prior(parser, args, cfg)
    if args.axis.name != "omega0":
        parser.error("--axis for map-curve must be an omega0 axis")
    table = map_curve(cfg, prior, args.n, args.axis)
    _write_table(args.out, table, _manifest(argv, args, seed=None))
    return 0


def _cmd_estimate(parser, args, argv) -> int:
    from .frequentist import Dataset, ml_estimate, mvu_p1

    cfg = _field_config(parser, args)
    if not 0 <= args.k <= args.n:
        parser.error(f"--k must lie in [0, --n], got k={args.k}, n={args.n}")
    # k is echoed as a float; where n is not one, float(k) may round above it.
    args.k = float(args.k)
    data = Dataset(n=args.n, k=min(args.k, args.n))
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
        from .posterior import PosteriorSpec, map_estimate, mmse

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
            result = map_estimate(spec)
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
    from .montecarlo import Estimator, TrialConfig, run_trials

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


# The subcommands, in the order the help lists them: handler and help line.
_COMMANDS = {
    "fisher-scan": (_cmd_fisher_scan, "CFI/QFI landscape over two field axes"),
    "ml-roots": (_cmd_ml_roots, "ML inversion root surfaces"),
    "bayes-scan": (_cmd_bayes_scan, "prior-averaged Fisher landscape"),
    "mmse-curve": (_cmd_mmse_curve, "posterior-mean estimate vs count rate"),
    "map-curve": (_cmd_map_curve, "MAP stationarity curve vs frequency"),
    "estimate": (_cmd_estimate, "single estimate from observed counts"),
    "simulate": (_cmd_simulate, "seeded Monte Carlo estimator benchmark"),
}


def _utc_stamp() -> str:
    """The time now as ``datetime.now(timezone.utc).isoformat()`` writes it,
    with no fraction when the microseconds are 0, without importing
    ``datetime``."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    fraction = f".{micros:06d}" if micros else ""
    return f"{time.strftime('%Y-%m-%dT%H:%M:%S', time.gmtime(seconds))}{fraction}+00:00"


def main(argv: list[str] | None = None) -> int:
    try:
        expanded = _expand_config(sys.argv[1:] if argv is None else list(argv))
        # The top-level parser has no option that takes a value, so the
        # first word that is not an option names the command.
        parser = _build_parser(next((a for a in expanded if not a.startswith("-")), None))
        args = parser.parse_args(expanded)
        print(f"rabi-est {args.command} started {_utc_stamp()}", file=sys.stderr)
        return _COMMANDS[args.command][0](parser, args, expanded)
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


def run():
    """The process entry: ``main`` on the program's arguments, its status
    as the exit code, and the objects left at exit frozen out of the
    collector's walks (see the module docstring)."""
    status = main()
    gc.freeze()
    raise SystemExit(status)


if __name__ == "__main__":
    run()
