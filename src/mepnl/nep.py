"""The branch-implicit nonlinear operator M(lam) = A1 + lam*A2 + g(lam)*A3.

Fixing one branch mu = g(lam) of the small pencil turns the large equation
into a nonlinear eigenvalue problem in lam alone. A NepView binds a problem
to one branch through that branch's last BranchPoint and provides its
branch points, and the factorization of M(sigma) and its one refusal at
the point where the last branch_point call left the view.
"""
from __future__ import annotations

from . import _linalg, pencil
from .core import TwoParProblem
from .errors import ShiftIsEigenvalue


class NepView:
    """One branch of the small pencil viewed as a nonlinear operator family:
    a handle over (problem, the branch's last point) that keeps no
    factorization. The branch is fixed by its index in the canonical
    (|mu|, Re mu, Im mu) order at reference_lam and followed by
    continuation from its last resolved point as evaluation points move.
    """

    # Always 0 (nothing is kept); they leave with ROADMAP item 10's bench change.
    cache_hits = 0
    cache_misses = 0

    def __init__(self, problem: TwoParProblem, branch_id: int = 0,
                 reference_lam=pencil.REFERENCE_LAM):
        self.problem = problem
        self.branch_id = int(branch_id)
        self.point = pencil.reference_point(problem, self.branch_id, reference_lam)

    def branch_point(self, lam) -> pencil.BranchPoint:
        """Continue the branch to lam and return its point there; the view
        keeps it as the next continuation's start."""
        self.point = pencil.continue_branch(self.problem, self.point, lam)
        return self.point

    def factorization(self) -> _linalg.Factorization:
        """Factorization of M(sigma) at the view's point, where the last
        branch_point(sigma) left it, singular or not (the LU floors an
        exactly zero pivot); refuse_singular judges it by a solve. It
        continues nothing."""
        bp = self.point
        return _linalg.Factorization(self.problem.eval_a(bp.lam, bp.mu))

    def refuse_singular(self, b, x):
        """Raise ShiftIsEigenvalue when x, solved from b with factorization()
        or its adjoint, proves M(sigma) numerically singular
        (proves_singular at scale_a at the view's point, which that
        factorization took, the test of delta0 and of the bordered Jacobian
        too): the package's one refusal of an M(sigma)."""
        bp = self.point
        if _linalg.proves_singular(b, x, self.problem.scale_a(bp.lam, bp.mu)):
            raise ShiftIsEigenvalue("a solve with M(sigma) proves it numerically "
                                    f"singular at sigma={bp.lam}")
