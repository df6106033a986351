"""Exception hierarchy shared by all rabi_est modules.

Two broad families matter for the CLI exit codes: numerical failures
(iteration/subdivision budgets exhausted, divergent information integrals,
underflowed normalization) map to exit code 2, domain/validity failures map
to exit code 3.
"""


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
