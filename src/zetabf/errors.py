"""Exception taxonomy for the package.

Every failure mode named in a module contract has a dedicated class here so
callers (and the CLI exit-code mapping) can distinguish domain errors from
file-format errors without string matching.
"""

from __future__ import annotations


class ZetaBFError(Exception):
    """Base class for all package-specific errors."""


# -- flat determinants ------------------------------------------------------

class ShapeMismatchError(ZetaBFError):
    """A matrix passed as an operator is not square."""


class MellinDivergenceError(ZetaBFError):
    """The heat-trace Mellin integral diverges for the given spectrum."""

    def __init__(self, eigenvalue, message=None):
        self.eigenvalue = eigenvalue
        super().__init__(
            message
            or f"Mellin integral diverges: eigenvalue {eigenvalue} has "
            "non-positive real part off the kernel"
        )


class QuadratureFailureError(ZetaBFError):
    """The quadrature result disagrees with its own error estimate."""

    def __init__(self, residual, estimate, message=None):
        self.residual = residual
        self.estimate = estimate
        super().__init__(
            message
            or f"quadrature residual {residual:.3e} exceeds estimate {estimate:.3e}"
        )


class QuadratureBudgetError(ZetaBFError):
    """The Mellin quadrature would need more nodes than its budget."""

    def __init__(self, nodes, budget):
        self.nodes, self.budget = nodes, budget
        super().__init__(f"Mellin quadrature needs {nodes} nodes, over its budget of {budget}")


class DeterminantRangeError(ZetaBFError):
    """The product of the nonzero eigenvalues leaves the normal double range."""

    def __init__(self, log10_abs, message=None):
        self.log10_abs = log10_abs
        super().__init__(
            message
            or f"determinant leaves double range: log10 |det| = {log10_abs:.6g}"
        )


# -- twisted complexes -------------------------------------------------------

class NotAComplexError(ZetaBFError):
    """The assembled twisted differentials do not square to zero."""


class RelatorViolationError(ZetaBFError):
    """A declared relator is not mapped to the identity by the representation."""


class NotAcyclicError(ZetaBFError):
    """An operation requiring an acyclic complex met nonzero Betti numbers."""

    def __init__(self, betti, message=None):
        self.betti = tuple(betti)
        super().__init__(message or f"complex is not acyclic: betti={self.betti}")


class DegenerateResolutionError(ZetaBFError):
    """A block of the Schwarz resolution is degenerate."""


# -- BV gauge fixing ---------------------------------------------------------

class DegenerateContractionError(ZetaBFError):
    """The operator iota*d + d*iota is singular on ker(iota)."""

    def __init__(self, message=None, t=None, degree=None, member=None):
        self.t = t
        self.degree = degree
        # index of the first failing member of a stacked contraction
        self.member = member
        detail = message or "contraction is degenerate"
        if t is not None:
            detail += f" at family parameter t={t}"
        if degree is not None:
            detail += f" (degree {degree})"
        super().__init__(detail)


class DegenerateGaugeError(ZetaBFError):
    """The gauge-fixed action is singular on the chosen Lagrangian."""

    def __init__(self, degree, message=None):
        self.degree = degree
        super().__init__(message or f"restricted action singular in degree {degree}")


class DegreeOverflowError(ZetaBFError):
    """A polynomial observable exceeded the chart's degree cap."""


class IndefiniteWeightError(ZetaBFError):
    """The Gaussian weight is not positive definite / odd part degenerate."""


# -- orbit data and zeta functions -------------------------------------------

class NotHyperbolicError(ZetaBFError):
    """The integer matrix is not a hyperbolic toral automorphism."""


class SupportTooWideError(ZetaBFError):
    """A test function's support reaches t <= 0."""


class DivergentRegionError(ZetaBFError):
    """The orbit sum has an infinite tail bound at the requested parameter."""

    def __init__(self, lam, message=None):
        self.lam = lam
        super().__init__(
            message or f"orbit sum diverges at lambda={lam}: tail bound infinite"
        )


# -- file formats ------------------------------------------------------------

class ParseError(ZetaBFError):
    """Syntactic error in an input file."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ValidationError(ZetaBFError):
    """Semantic error in otherwise well-formed input data."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
