"""Traced execution of one op, and per-layer metrics from the spans.

Run as a script, it imports rabi_est, wraps the functions listed in SPANS
and COUNTERS wherever a rabi_est module binds them by name, calls
``rabi_est.cli.main(argv)`` in-process and writes what it recorded as JSON:

    python tracer.py OUT.json OP_ID -- CLI_ARGS...

Spans (name, start, end, parent, op id, failed, work count) stay in memory
until the op ends. A name the program no longer defines is reported in
``absent`` rather than failing the run. The exit code is the CLI's.

Imported, it turns the JSON files of a traced pass into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Functions timed as spans, as (module, attribute); "Class.method" wraps the
# method on the class.
SPANS = (
    ("cli", "main"),
    ("scan", "fisher_scan"), ("scan", "ml_root_scan"), ("scan", "bayes_scan"),
    ("scan", "mmse_curve"), ("scan", "map_curve"), ("scan", "GridTable.to_csv"),
    ("montecarlo", "simulate_dataset"), ("montecarlo", "run_trials"),
    ("posterior", "mmse"), ("posterior", "map_estimate"), ("posterior", "bayes_fisher"),
    ("priors", "prior_fisher"), ("priors", "jeffreys_normalizer"),
    ("frequentist", "ml_estimate"),
    ("fisher", "cfi_values"), ("fisher", "qfi_values"),
    ("numerics", "integrate"), ("numerics", "local_maxima"), ("numerics", "inv_sinc_values"),
)
# Functions too hot for a span per call: only calls and array elements count.
COUNTERS = (("dynamics", "prob_detect"),)


def metric_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class _CountingFile:
    """Forwards writes to a text file and counts the bytes."""

    def __init__(self, fp):
        self._fp = fp
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode("utf-8"))
        return self._fp.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __getattr__(self, name):
        return getattr(self._fp, name)


class Recorder:
    """Spans and counters of one traced op."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans = []     # [name, start, end, parent, op id, failed, work]
        self.stack = []
        self.counters = {}
        self.distinct = {}  # name -> [calls, set of argument tuples seen]
        self.trial_ks = []  # per run_trials call: counts of the simulated datasets
        self.excluded = [0, 0]  # excluded trials, all trials
        self.absent = []

    def span(self, name, fn, arg_hook=None, result_hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op_id, False, 0]
            self.spans.append(record)
            if arg_hook is not None:
                args, kwargs = arg_hook(record, args, kwargs)
            self.stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[5] = True
                raise
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if result_hook is not None:
                result_hook(record, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        calls, elems = f"{name}.calls", f"{name}.elems"
        self.counters.setdefault(calls, 0)
        self.counters.setdefault(elems, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[calls] += 1
            if len(args) > 1:
                self.counters[elems] += int(getattr(args[1], "size", 1))
            return fn(*args, **kwargs)

        return wrapper

    # Hooks that count work inside a span.

    def count_work(self, points: bool):
        """Hook that wraps the function a span evaluates (its first argument)
        to count its calls, or with ``points`` the array elements passed in."""

        def hook(record, args, kwargs):
            if not args:
                return args, kwargs
            f = args[0]

            def counted(x):
                out = f(x)
                record[6] += int(getattr(x, "size", 1)) if points else 1
                return out

            return (counted, *args[1:]), kwargs

        return hook

    def count_bytes(self):
        """GridTable.to_csv(self, fp): hooks that count the bytes written to fp."""
        sinks = []

        def arg_hook(record, args, kwargs):
            sinks.append(_CountingFile(args[1] if len(args) > 1 else kwargs.pop("fp")))
            return (args[0], sinks[-1], *args[2:]), kwargs

        def result_hook(record, args, result):
            record[6] = sinks.pop().bytes

        return arg_hook, result_hook

    def remember_args(self, name):
        seen = self.distinct.setdefault(name, [0, set()])

        def hook(record, args, kwargs):
            seen[0] += 1
            try:
                seen[1].add(args)
            except TypeError:
                pass
            return args, kwargs

        return hook

    def on_dataset(self, record, args, result):
        k = getattr(result, "k", None)
        if k is not None and self.trial_ks:
            self.trial_ks[-1].append(k)

    def before_trials(self, record, args, kwargs):
        self.trial_ks.append([])
        return args, kwargs

    def after_trials(self, record, args, result):
        excluded = getattr(result, "degenerate_count", 0) + getattr(result, "ambiguous_count", 0)
        self.excluded[0] += excluded
        self.excluded[1] += excluded + getattr(result, "included_trials", 0)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": self.counters,
            "distinct": {k: [v[0], len(v[1])] for k, v in self.distinct.items()},
            "trial_ks": [[len(ks), len(set(ks))] for ks in self.trial_ks],
            "excluded": self.excluded,
            "absent": self.absent,
        }


def _rebind(original, wrapper) -> None:
    """Replace every binding of ``original`` in the loaded rabi_est modules."""
    for name, module in list(sys.modules.items()):
        if name == "rabi_est" or name.startswith("rabi_est."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install(rec: Recorder) -> None:
    hooks = {
        "numerics.integrate": (rec.count_work(points=True), None),
        "numerics.local_maxima": (rec.count_work(points=False), None),
        "posterior.mmse": (rec.remember_args("posterior.mmse"), None),
        "montecarlo.simulate_dataset": (None, rec.on_dataset),
        "montecarlo.run_trials": (rec.before_trials, rec.after_trials),
        "scan.to_csv": rec.count_bytes(),
    }
    modules = {}
    for module, _ in SPANS + COUNTERS:
        try:
            modules[module] = importlib.import_module(f"rabi_est.{module}")
        except ImportError:
            modules[module] = None
    for module, attr in SPANS + COUNTERS:
        name = metric_name(module, attr)
        owner = modules[module]
        *cls, fn_name = attr.split(".")
        if owner is not None and cls:
            owner = getattr(owner, cls[0], None)
        original = getattr(owner, fn_name, None) if owner is not None else None
        if not callable(original):
            rec.absent.append(f"{module}.{attr}")
            continue
        if (module, attr) in COUNTERS:
            wrapper = rec.counter(name, original)
        else:
            wrapper = rec.span(name, original, *hooks.get(name, (None, None)))
        if cls:
            setattr(owner, fn_name, wrapper)
        else:
            _rebind(original, wrapper)


def main(argv: list) -> int:
    out, op_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json OP_ID -- CLI_ARGS...")
    rec = Recorder(op_id)
    install(rec)
    cli = importlib.import_module("rabi_est.cli")
    try:
        return cli.main(cli_argv)
    finally:
        with open(out, "w", encoding="utf-8") as fp:
            json.dump(rec.dump(), fp)


# --- per-layer metrics -----------------------------------------------------

PER_LAYER = (
    ("numerics.integrate.calls", "count", "lower"),
    ("numerics.integrate.evals", "count", "lower"),
    ("numerics.integrate.self_s", "s", "lower"),
    ("numerics.integrate.failed", "count", "lower"),
    ("numerics.integrate.wasted_evals_share", "share", "lower"),
    ("priors.prior_fisher.calls", "count", "lower"),
    ("priors.prior_fisher.self_s", "s", "lower"),
    ("priors.prior_fisher.failed", "count", "lower"),
    ("priors.jeffreys_normalizer.self_s", "s", "lower"),
    ("posterior.mmse.calls", "count", "lower"),
    ("posterior.mmse.distinct_share", "share", "higher"),
    ("posterior.mmse.self_s", "s", "lower"),
    ("posterior.map_estimate.calls", "count", "lower"),
    ("posterior.map_estimate.self_s", "s", "lower"),
    ("posterior.bayes_fisher.self_s", "s", "lower"),
    ("posterior.bayes_fisher.failed", "count", "lower"),
    ("numerics.local_maxima.calls", "count", "lower"),
    ("numerics.local_maxima.f_calls", "count", "lower"),
    ("numerics.local_maxima.self_s", "s", "lower"),
    ("dynamics.prob_detect.calls", "count", "lower"),
    ("dynamics.prob_detect.elems_per_call", "count", "higher"),
    ("scan.fisher_scan.self_s", "s", "lower"),
    ("scan.ml_root_scan.self_s", "s", "lower"),
    ("scan.bayes_scan.self_s", "s", "lower"),
    ("scan.mmse_curve.self_s", "s", "lower"),
    ("scan.map_curve.self_s", "s", "lower"),
    ("scan.to_csv.self_s", "s", "lower"),
    ("scan.to_csv.bytes", "B", "lower"),
    ("fisher.cfi_values.self_s", "s", "lower"),
    ("fisher.qfi_values.self_s", "s", "lower"),
    ("numerics.inv_sinc_values.self_s", "s", "lower"),
    ("montecarlo.simulate_dataset.self_s", "s", "lower"),
    ("montecarlo.run_trials.self_s", "s", "lower"),
    ("montecarlo.distinct_k_share", "share", "higher"),
    ("montecarlo.excluded_share", "share", "lower"),
    ("frequentist.ml_estimate.calls", "count", "lower"),
    ("frequentist.ml_estimate.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("scan.pool_speedup", "x", "higher"),
)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(traces: list) -> tuple:
    """Per-layer values from the traced ops' JSON payloads (absent names,
    and layers the workload never calls, read 0), plus the absent names."""
    totals = {}

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    absent = set()
    for trace in traces:
        absent.update(trace["absent"])
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _op, _failed, _work in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _parent, _op, failed, work) in enumerate(spans):
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", end - start - child[i])
            add(f"{name}.failed", int(failed))
            add(f"{name}.work", work)
            if failed:
                add(f"{name}.wasted", work)
        for key, value in trace["counters"].items():
            add(key, value)
        for name, (calls, distinct) in trace["distinct"].items():
            add(f"{name}.distinct", distinct)
        for count, distinct in trace["trial_ks"]:
            add("montecarlo.datasets", count)
            add("montecarlo.distinct_k", distinct)
        add("montecarlo.excluded", trace["excluded"][0])
        add("montecarlo.trials", trace["excluded"][1])

    get = lambda key: totals.get(key, 0)
    derived = {
        "numerics.integrate.evals": get("numerics.integrate.work"),
        "numerics.integrate.wasted_evals_share": _share(
            get("numerics.integrate.wasted"), get("numerics.integrate.work")),
        "posterior.mmse.distinct_share": _share(
            get("posterior.mmse.distinct"), get("posterior.mmse.calls")),
        "numerics.local_maxima.f_calls": get("numerics.local_maxima.work"),
        "dynamics.prob_detect.elems_per_call": _share(
            get("dynamics.prob_detect.elems"), get("dynamics.prob_detect.calls")),
        "scan.to_csv.bytes": get("scan.to_csv.work"),
        "montecarlo.distinct_k_share": _share(
            get("montecarlo.distinct_k"), get("montecarlo.datasets")),
        "montecarlo.excluded_share": _share(get("montecarlo.excluded"), get("montecarlo.trials")),
    }
    values = {}
    for name, _unit, _better in PER_LAYER:
        values[name] = derived[name] if name in derived else get(name)
    return values, sorted(absent)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
