"""Command-line front end.

Subcommands map one-to-one onto the scan, estimation and simulation
operations; outputs are CSV (scans) or JSON (single estimates, simulation
reports). Every data-producing subcommand takes ``--out`` (``-`` for
standard output). File outputs are reproducible byte for byte given
identical flags and seed; the run manifest embedded in JSON outputs or
written next to CSV outputs therefore carries no timestamp (wall-clock time
goes to standard error instead).

The table ``_COMMANDS`` gives each command its help line, handler and flags
(plain data, in help order). ``main`` imports only the invoked command's
handler module, ``cli_estimate`` or ``cli_sweeps``; a handler imports what
it runs when it runs and returns a JSON payload or a scan table, which
``main`` writes with the run manifest.

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
from functools import partial

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


def _count(name):
    """--k's converter: a finite number, kept as the exact integer of an
    integral literal from 2**53 on, where floats skip integers, so it
    compares with --n exactly."""
    real = _real(name)

    def convert(text):
        value = real(text)
        return value >= 2**53 and _integral(text) or value

    return convert


def _positive_int(name):
    return _integer(name, positive=True)


def _axis(_name):
    """--axis's converter: a scan axis from NAME:START:STOP:COUNT."""
    def convert(text):
        from .table import Axis

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

    return convert


# Flag specs: (flag, its converter's factory, called with the flag, or None,
# and the other options of add_argument).
_N_RULE = "an integer >= 1 such as 100 or 1e10: the count rate k/n needs at least one trial"
_FIELD = (
    ("--omega", _real, {"required": True, "help": "drive angular speed (dimensionless)"}),
    ("--b0", _positive, {"required": True, "help": "drive coupling strength (dimensionless, > 0)"}),
    ("--theta", _real, {"help": "gyration angle in radians, inside (0, pi)"}),
    ("--theta-deg", _real, {"help": "gyration angle in degrees (alternative to --theta)"}),
)
_PRIOR = (
    ("--prior", None, {"choices": ["uniform", "jeffreys", "gaussian"], "help": "prior family"}),
    ("--window-lower", _positive, {"help": "lower end of the frequency window"}),
    ("--window-upper", _positive, {"help": "upper end of the frequency window"}),
    ("--prior-mean", _real, {"help": "Gaussian prior mean"}),
    ("--prior-sigma", _positive, {"help": "Gaussian prior standard deviation"}),
)
_AXES = ("--axis", _axis, {"required": True, "action": "append", "metavar": "NAME:START:STOP:COUNT"})
_TRIALS = ("--n", _positive_int, {"required": True, "help": f"number of trials, {_N_RULE}"})
_OUT = ("--out", None, {"required": True, "help": "output path, or - for standard output"})
_STDOUT = ("--out", None, {"default": "-", "help": "output path, or - for standard output"})
_CONFIG = ("--config", None, {"help": "key = value defaults file; flags override"})


def _sweeps():
    from . import cli_sweeps

    return cli_sweeps


def _estimate():
    from . import cli_estimate

    return cli_estimate


# The subcommands, in the order the help lists them: help line, handler
# and flags.
_COMMANDS = {
    "fisher-scan": ("CFI/QFI landscape over two field axes", lambda: _sweeps().fisher_scan, (
        *_FIELD, ("--omega0", _positive, {"required": True}), _AXES,
        ("--accuracy", _positive, {"default": 0.001}), _OUT)),
    "ml-roots": ("ML inversion root surfaces", lambda: _sweeps().ml_roots, (*_FIELD, _AXES, _OUT)),
    "bayes-scan": ("prior-averaged Fisher landscape", lambda: _sweeps().bayes_scan, (
        *_FIELD, *_PRIOR, _AXES, ("--n", _positive_int, {
            "required": True, "help": f"trial count entering the prior-information term, {_N_RULE}"}),
        _OUT)),
    "mmse-curve": ("posterior-mean estimate vs count rate", lambda: _sweeps().mmse_curve, (
        *_FIELD,
        ("--priors", None, {"required": True,
                            "help": "comma-separated prior families, e.g. uniform,jeffreys,gaussian"}),
        ("--window-lower", _positive, {"required": True}), ("--window-upper", _positive, {"required": True}),
        ("--prior-mean", _real, {}), ("--prior-sigma", _positive, {}), _TRIALS,
        ("--axis", _axis, {"required": True, "metavar": "xbar:START:STOP:COUNT"}), _OUT)),
    "map-curve": ("MAP stationarity curve vs frequency", lambda: _sweeps().map_curve, (
        *_FIELD, *_PRIOR, _TRIALS,
        ("--axis", _axis, {"required": True, "metavar": "omega0:START:STOP:COUNT"}), _OUT)),
    "estimate": ("single estimate from observed counts", lambda: _estimate().estimate, (
        ("mode", None, {"choices": ["ml", "mmse", "map"]}), *_FIELD, _TRIALS,
        ("--k", _count, {"required": True, "help": "photon counts"}), *_PRIOR, _STDOUT)),
    "simulate": ("seeded Monte Carlo estimator benchmark", lambda: _sweeps().simulate, (
        *_FIELD, ("--omega0-true", _positive, {"required": True}),
        ("--n", _positive_int, {"required": True, "help": f"trials per simulated dataset, {_N_RULE}"}),
        ("--trials", _positive_int, {"required": True}), ("--seed", _integer, {"required": True}),
        ("--estimator", None, {"choices": ["ml", "mmse", "map"], "default": "ml"}), *_PRIOR, _STDOUT)),
}


def _build_parser(command: str | None = None) -> _Parser:
    """The command-line parser. Every subcommand is listed, but only
    ``command``'s arguments are filled in: a run parses one command, and
    building the arguments of all seven costs each run a few milliseconds."""
    parser = _Parser(prog="rabi-est", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"rabi-est {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_line, _, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name == command:
            for flag, factory, options in (*flags, _CONFIG):
                p.add_argument(flag, type=factory and factory(flag), **options)
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


def _field_config(parser: _Parser, args) -> FieldConfig:
    if args.theta is not None and args.theta_deg is not None:
        parser.error("--theta and --theta-deg are mutually exclusive")
    if args.theta is None and args.theta_deg is None:
        parser.error("one of --theta, --theta-deg is required")
    theta = args.theta if args.theta is not None else math.radians(args.theta_deg)
    if not 0.0 < theta < math.pi:
        parser.error(f"--theta must lie strictly inside (0, pi), got {theta}")
    return FieldConfig(omega=args.omega, b0=args.b0, theta=theta)


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
        cfg = _field_config(parser, args)
        # A handler builds its priors, if any, with build_prior(kind=None).
        result = _COMMANDS[args.command][1]()(parser, args, cfg, partial(_build_prior, parser, args, cfg))
        # Only simulate has a seed.
        manifest = _manifest(expanded, args, seed=getattr(args, "seed", None))
        if isinstance(result, dict):
            _write_json(args.out, {**result, "manifest": manifest})
        else:
            _write_table(args.out, result, manifest)
        return 0
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
