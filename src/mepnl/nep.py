"""The branch-implicit nonlinear operator M(lam) = A1 + lam*A2 + g(lam)*A3.

Fixing one branch mu = g(lam) of the small pencil turns the large equation
into a nonlinear eigenvalue problem in lam alone. A NepView binds a problem
to one branch through that branch's last BranchPoint and provides its
branch points and factorizations of M(sigma) on that branch.
"""
from __future__ import annotations

from . import _linalg, pencil
from .core import TwoParProblem
from .errors import ShiftIsEigenvalue


class NepView:
    """One branch of the small pencil viewed as a nonlinear operator family:
    a handle over (problem, the branch's last point) that keeps no
    factorization. The branch is fixed by its index in the |mu|-ordering at
    reference_lam and followed by continuation from its last resolved point
    as evaluation points move.
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

    def factorization(self, sigma) -> _linalg.Factorization:
        """Factorization of M(sigma) on the branch.

        Raises ShiftIsEigenvalue when M(sigma) is numerically singular, its
        rcond below _linalg.RCOND_SINGULAR: the package's one refusal of an
        LU, since a Factorization floors an exactly zero pivot.
        """
        bp = self.branch_point(sigma)
        fact = _linalg.Factorization(self.problem.eval_a(bp.lam, bp.mu))
        if fact.rcond < _linalg.RCOND_SINGULAR:
            raise ShiftIsEigenvalue(f"{fact.storage} factorization of M(sigma) is "
                                    f"numerically singular (rcond={fact.rcond:.2e})")
        return fact
