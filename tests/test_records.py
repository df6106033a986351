"""The package's frozen record classes (``errors.record``), the guard that
keeps ``dataclasses``, whose generated methods cost every command-line run
milliseconds of start-up, out of the package, the guard against definitions
that nothing in the package uses, the guards that hold every module below the
parser's token step and keep matrix products out of the package, and the
guard that leaves the collector and the process exit to the command line's
process entry."""

import ast
import math
import tokenize
from pathlib import Path

import pytest

import rabi_est
from rabi_est.dynamics import FieldConfig
from rabi_est.errors import DomainError, record
from rabi_est.frequentist import Ambiguity, Dataset, EstimateResult, Root, RootStatus
from rabi_est.montecarlo import Estimator, TrialConfig, TrialReport
from rabi_est.numerics import LocalMaximum
from rabi_est.map_estimator import MapMaximum, MapResult
from rabi_est.posterior import BayesFisher, PosteriorSpec, _Workspaces
from rabi_est.priors import Prior, SupportWindow
from rabi_est.table import Axis

SOURCES = sorted(Path(rabi_est.__file__).parent.glob("*.py"))
CFG = FieldConfig(omega=1.0, b0=1.0, theta=math.pi / 2)
WINDOW = SupportWindow(0.5, 5.0)

# Each makes a new instance of one record class, equal to the last one made.
RECORDS = [
    lambda: FieldConfig(1.0, b0=2.0, theta=math.pi / 3),
    lambda: LocalMaximum(0.5, boundary=True),
    lambda: Dataset(n=10, k=4),
    lambda: Root(value=2.0, status=RootStatus.ACCEPTED),
    lambda: EstimateResult(roots=(Root(2.0, RootStatus.BOUNDARY),), ambiguity=Ambiguity.UNAMBIGUOUS),
    lambda: SupportWindow(0.5, 5.0),
    lambda: Prior.gaussian(WINDOW, mean=2.0, sigma=1.0),
    lambda: PosteriorSpec(Dataset(10, 4), CFG, Prior.uniform(WINDOW)),
    lambda: MapMaximum(1.0, -2.0, -3.0, False, 1e-12),
    lambda: MapResult(maxima=(MapMaximum(1.0, -2.0, -3.0, True, math.nan),)),
    lambda: BayesFisher(bayes_cfi=1.0, bayes_qfi=2.0, bayes_gap=1.0),
    lambda: _Workspaces(errors=(None,), mode=1.0, shift=0.0, regions=(), sharp=(), maxima=None,
                        edges=None, joint=None, log_ratio=None, cuts=()),
    lambda: TrialConfig(cfg=CFG, omega0_true=2.0, n=100, trials=10, seed=7, estimator=Estimator.MAP,
                        prior=Prior.uniform(WINDOW)),
    lambda: TrialReport(1.0, 0.0, 0.1, 0.2, None, 0, 0, 10),
    lambda: Axis("b0", 0.1, 5.0, 3),
]


def record_classes() -> set:
    """(module, class) of every class the package decorates with ``record``."""
    return {(path.stem, node.name) for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef)
            and any(isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list)}


def test_every_record_class_is_covered():
    covered = {(type(make()).__module__.rpartition(".")[2], type(make()).__name__) for make in RECORDS}
    assert covered == record_classes()
    assert len(covered) == 15


@pytest.mark.parametrize("make", RECORDS, ids=lambda make: type(make()).__name__)
def test_record_class(make):
    a, b = make(), make()
    cls = type(a)
    names = tuple(cls.__annotations__)
    values = tuple(getattr(a, name) for name in names)
    # Equal fields, equal objects and hashes, by position or keyword.
    assert a is not b and a == b and hash(a) == hash(b) == hash(values)
    assert cls(*values) == a == cls(**dict(zip(names, values)))
    # Another class with the same fields, and the field tuple, are unequal.
    twin = record(type(cls.__name__, (), {"__annotations__": dict(cls.__annotations__)}))(*values)
    assert a != twin and twin != a and a != values
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
        assert f"{name}={getattr(a, name)!r}" in repr(a)
    assert repr(a).startswith(f"{cls.__qualname__}(")
    assert a == b


def test_record_arguments():
    assert LocalMaximum(0.5).boundary is False
    for args, kwargs in [((1.0, 2.0, 3.0, 4.0), {}), ((1.0,), {"omega": 1.0}), ((1.0, 2.0), {}),
                         ((), {"omega": 1.0, "b0": 2.0, "theta": 1.0, "phi": 0.0})]:
        with pytest.raises(TypeError):
            FieldConfig(*args, **kwargs)
    with pytest.raises(DomainError, match="b0 must be positive, got -1"):
        FieldConfig(1.0, b0=-1.0, theta=1.0)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_package_does_not_import_dataclasses(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        assert "dataclasses" not in [m.partition(".")[0] for m in modules], f"{path.name}:{node.lineno}"


# Definitions that nothing in the package names, kept on purpose. The
# benchmark's tracer wraps local_maxima (which returns LocalMaximum records),
# qfi_values, simulate_dataset and GridTable.to_csv by name; main and run are
# the command line's entry points, and __getattr__ and __dir__ the package's
# lazy exports (PEP 562), which the interpreter calls.
UNREFERENCED_BY_DESIGN = {"local_maxima", "LocalMaximum", "qfi_values", "simulate_dataset", "to_csv",
                          "main", "run", "__getattr__", "__dir__"}


def definitions(tree):
    """(name, member) for the top-level functions and classes of ``tree``
    (member False), for the methods and properties of those classes (member
    True; special methods such as __init__ aside: the language calls them,
    not a name) and for the members of its Enum subclasses (member True)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, True) for item in node.body if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__")))
            if any(isinstance(base, ast.Name) and base.id == "Enum" for base in node.bases):
                yield from ((target.id, True) for item in node.body if isinstance(item, ast.Assign)
                            for target in item.targets)


def referenced(tree):
    """(name, attribute) for every name that ``tree`` uses: as a Name or an
    import alias (attribute False), or as an Attribute, x.name (True)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, True
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], False


def unreferenced(trees):
    """(module, name) of every definition in ``trees`` (module -> tree) that
    no module names, allowlisted names aside. A method or property is named
    only as an attribute (x.name): a local variable of its name says nothing
    of it."""
    used = {ref for tree in trees.values() for ref in referenced(tree)}
    return [(module, name) for module, tree in trees.items() for name, member in definitions(tree)
            if (name, True) not in used and (member or (name, False) not in used)
            and name not in UNREFERENCED_BY_DESIGN]


def test_package_defines_nothing_it_does_not_use():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    unused = unreferenced(trees)
    assert unused == [], f"defined but never named in the package: {unused}"
    defined = {name for tree in trees.values() for name, _ in definitions(tree)}
    assert UNREFERENCED_BY_DESIGN <= defined  # no stale allowlist entry


def test_unreferenced_guard_sees():
    trees = {"a": ast.parse("def used():\n    pass\n\n\nclass Box:\n    @property\n"
                            "    def size(self):\n        return 1\n\n    def __len__(self):\n"
                            "        return 1\n\n\ndef dead():\n    used()\n"),
             "b": ast.parse("from a import Box\nimport a.helper as h\n")}
    assert unreferenced(trees) == [("a", "size"), ("a", "dead")]


def test_unreferenced_guard_counts_enum_members():
    # An Enum member is named as an attribute (Kind.USED); a local variable
    # of its name says nothing of it. A plain class's attributes are not counted.
    trees = {"a": ast.parse("from enum import Enum\n\n\nclass Kind(str, Enum):\n    USED = 'used'\n"
                            "    IDLE = 'idle'\n\n\nclass Plain:\n    SIZE = 1\n"),
             "b": ast.parse("from a import Kind, Plain\nIDLE = Kind.USED\n")}
    assert unreferenced(trees) == [("a", "IDLE")]


def test_unreferenced_guard_tells_an_attribute_from_a_local_name():
    # Only a local variable is called "columns", so the property is unused;
    # "shape" is read as an attribute. A module-level name may be read either way.
    trees = {"a": ast.parse("class Table:\n    @property\n    def columns(self):\n        return 1\n\n"
                            "    @property\n    def shape(self):\n        return 2\n\n\n"
                            "def build(table):\n    columns = table.shape\n    return columns\n\n\n"
                            "def helper():\n    pass\n"),
             "b": ast.parse("import a\nfrom a import Table, build\na.helper()\n")}
    assert unreferenced(trees) == [("a", "columns")]


# CPython's parser doubles its token array at 4,096 and again at 8,192 tokens,
# and the compile of a module past a step peaks higher: cli.py at 4,102
# tokens compiled at 1.78 MB instead of 1.53 MB, and raised the peak RSS of a
# fisher-scan run by ~0.1 MB. Splitting the 6,879-token scan.py into modules
# below the step lowered the cold 500 x 500 fisher-scan run's peak RSS from
# 33.92 to 33.61 MB (10 pairs, all lower), and ml-roots' from 33.34 to 33.00
# MB; with a 5,183-token table module holding the number formatter, the
# fisher-scan peak did not fall (33.81 -> 33.85 MB, 3 of 10 lower). No module
# is past the first step.


def parser_tokens(path: Path) -> int:
    """The tokens of ``path`` that the parser reads: tokenize's, without
    comments, non-logical line breaks and the encoding marker."""
    with open(path, "rb") as fp:
        return sum(1 for token in tokenize.tokenize(fp.readline)
                   if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_stays_below_the_parser_token_steps(path):
    assert parser_tokens(path) < 4096


def test_parser_token_count_leaves_out_comments(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("# a comment\nx = (1,\n     2)  # another\n", encoding="utf-8")
    # x = ( 1 , 2 ) NEWLINE ENDMARKER
    assert parser_tokens(source) == 9


# numpy's matrix products, which call BLAS. The package calls none: the first
# BLAS call of a process sets up OpenBLAS's buffers. The panel rule's weights,
# once built with ``@`` at import, are literals: that alone lowered a cold
# estimate map run's peak RSS from 31.37 to 31.27 MB (9 of 10 pairs lower).
MATRIX_PRODUCTS = {"dot", "vdot", "matmul", "tensordot", "linalg"}


def matrix_products(tree):
    """(line, text) of every ``@`` or ``@=`` in ``tree``, and of every use of
    a MATRIX_PRODUCTS name as an attribute, a name or an import."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in MATRIX_PRODUCTS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in MATRIX_PRODUCTS:
            found.append((node.lineno, node.id))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.rpartition(".")[2] in MATRIX_PRODUCTS]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_package_calls_no_matrix_product(path):
    assert matrix_products(ast.parse(path.read_text(encoding="utf-8"))) == [], path.name


@pytest.mark.parametrize("code", [
    "c = a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)", "from numpy import matmul", "import numpy.linalg",
    "np.linalg.solve(a, b)",
])
def test_matrix_product_guard_sees(code):
    assert len(matrix_products(ast.parse(code))) >= 1


# Process-wide switches that only the command line's process entry, cli.run,
# may pull: the package is a library too, and its callers own these.
PROCESS_CALLS = {("gc", "freeze"), ("gc", "disable"), ("gc", "set_threshold"), ("os", "_exit")}


def process_calls(tree):
    """(line, "module.name") of every reference to a PROCESS_CALLS function
    in ``tree``, through ``import gc``, ``import gc as g`` or ``from gc import``."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((alias.asname or alias.name, alias.name) for alias in node.names)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            name = (aliases.get(node.value.id, node.value.id), node.attr)
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"{node.module}.{alias.name}") for alias in node.names
                      if (node.module, alias.name) in PROCESS_CALLS]
            continue
        else:
            continue
        if name in PROCESS_CALLS:
            found.append((node.lineno, ".".join(name)))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_process_entry_sets_the_collector_or_exit(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = []
    if path.name == "cli.py":
        entry = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "run")
        allowed = process_calls(entry)
        assert [name for _, name in allowed] == ["gc.freeze"]
    assert [call for call in process_calls(tree) if call not in allowed] == [], path.name


@pytest.mark.parametrize("code", [
    "import gc\ngc.disable()", "import gc as g\nf = g.freeze", "from gc import set_threshold",
    "import os\nos._exit(0)", "def run():\n    import os\n    os._exit(0)",
])
def test_process_call_guard_sees(code):
    assert len(process_calls(ast.parse(code))) == 1
