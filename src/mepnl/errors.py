"""Exception types shared across the package."""


class MepnlError(Exception):
    """Base class for all structured errors raised by mepnl."""


class DimensionMismatch(MepnlError, ValueError):
    """Matrix/vector shapes are inconsistent with each other."""


class TooLarge(MepnlError):
    """A dense operator-determinant assembly would exceed the size cap."""


class SingularProblem(MepnlError):
    """delta0 is numerically singular, so the dense oracle cannot solve the
    problem. The problem itself may still be regular: with rank-one A3 and
    B3, delta0 has rank about n + m and the pencil (delta1, delta0) has
    infinite eigenvalues."""


class AmbiguousBranch(MepnlError):
    """Branch continuation found two eigenvalue candidates it cannot tell apart."""

    def __init__(self, lam, candidates):
        self.lam = lam
        self.candidates = tuple(candidates)
        super().__init__(f"branch continuation ambiguous at lambda={lam}: "
                         f"candidates {self.candidates}")


class NoFiniteEigenvalue(MepnlError):
    """No finite eigenvalue is available where one was required."""


class SingularJacobian(MepnlError):
    """The bordered Jacobian of the small equation is numerically singular."""


class ShiftIsEigenvalue(MepnlError):
    """A solve with M(sigma) proves it numerically singular, as it is when
    the shift sigma is an eigenvalue."""


class DegenerateProjection(MepnlError):
    """A scalar projection coefficient vanished; the projected pencil is meaningless."""


class NonSimpleMu(MepnlError):
    """w^H B3 y is numerically zero: mu is not simple, conditioning undefined."""


class NonSimpleLambda(MepnlError):
    """v^H M'(lambda) x is numerically zero: lambda is not simple, conditioning undefined."""


class ConvergenceFailure(MepnlError):
    """An inner iteration that must converge did not."""


class ProblemIOError(MepnlError):
    """A problem file could not be read or parsed."""
