"""Exception hierarchy.

Input-side problems (bad shapes, parameters outside their stated domain,
non-elliptic coefficients) derive from ``ValueError``; failures arising
during a computation (singular resolvents, exploding ensembles or dual
recursions, non-finite coefficient values) derive from ``NumericsError``.  The CLI maps the first family
to exit status 1 and the second to exit status 2.
"""


class DimensionError(ValueError):
    """Matrix or vector shapes are inconsistent."""


class DomainError(ValueError):
    """A parameter lies outside its admissible range."""


class EllipticityError(DomainError):
    """Coefficient pair fails the pointwise ellipticity condition."""


class NumericsError(RuntimeError):
    """Base class for failures detected while computing."""


class SingularResolventError(NumericsError):
    """Resolvent (n·I - A) is numerically singular."""


class StabilityError(NumericsError):
    """Euler ensemble or dual recursion blew up; a smaller time step is needed."""


class EvaluationError(NumericsError):
    """A user-supplied coefficient function returned a non-finite value."""
