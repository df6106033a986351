"""Exception hierarchy shared by all rabi_est modules, and ``record``, which
makes their frozen value classes.

Two broad families matter for the CLI exit codes: numerical failures
(iteration/subdivision budgets exhausted, divergent information integrals,
underflowed normalization) map to exit code 2, domain/validity failures map
to exit code 3.
"""

_MISSING = object()


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields, in order.

    Instances take the fields by position or keyword (a class attribute is
    the field's default) and then run ``__post_init__`` if the class has one.
    They compare equal only to instances of the same class with equal
    fields, hash their field tuple, show every field in their repr and
    refuse assignment and deletion. Unlike ``dataclasses``, which compiles
    generated source for each class at every command-line start, the methods
    are closures.
    """
    names = tuple(cls.__annotations__)
    # The fields that may still come by keyword after i positional arguments.
    keywords = [frozenset(names[i:]) for i in range(len(names) + 1)]
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names) or not kwargs.keys() <= keywords[len(args)]:
            raise TypeError(f"{cls.__name__}() takes the fields {names}, got {args} and {kwargs}")
        fields = self.__dict__
        fields.update(zip(names, args))
        for name in names[len(args):]:
            value = kwargs.get(name, defaults.get(name, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{cls.__name__}() missing the field {name!r}")
            fields[name] = value
        if post_init is not None:
            post_init(self)

    def values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, names))

    def __eq__(self, other):
        return values(self) == values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    return cls


class EstimationError(Exception):
    """Base class for all rabi_est errors."""


class NonConvergence(EstimationError):
    """An iterative numerical procedure exhausted its budget."""


class DivergentInformation(NonConvergence):
    """An information integral diverges; decided from its closed form before
    any quadrature runs, so no budget is spent finding out."""


class EvidenceUnderflow(EstimationError):
    """The posterior evidence integral is zero within tolerance."""


class DomainError(EstimationError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateProbability(DomainError):
    """Detection probability pinned at 0 or 1 where a formula is singular."""


class DegenerateSupport(DomainError):
    """A prior's normalization integral vanished on its support window."""


class DegenerateData(DomainError):
    """Observed count rate of exactly 0 or 1 carries no frequency information."""


class SincDomainViolated(DomainError):
    """sqrt(xbar) exceeds b0*|sin(theta)|, so the sinc inverse is undefined."""


class NoRealRoot(DomainError):
    """The quadratic inversion for the frequency has no real, distinct roots."""


class AllTrialsDegenerate(DomainError):
    """Every Monte Carlo trial failed to produce a usable estimate."""
