"""The branch-implicit nonlinear operator M(lam) = A1 + lam*A2 + g(lam)*A3.

Fixing one branch mu = g(lam) of the small pencil turns the large equation
into a nonlinear eigenvalue problem in lam alone. A NepView binds a problem
to one tracked branch and provides its branch points and factorizations of
M(sigma) on that branch.
"""
from __future__ import annotations

from . import _linalg, pencil
from .core import TwoParProblem


class NepView:
    """One branch of the small pencil viewed as a nonlinear operator family:
    a handle over (problem, BranchState, branch_id) that keeps no
    factorization. The branch is fixed by its index in the |mu|-ordering at
    reference_lam and followed by continuation as evaluation points move.
    """

    # Always 0 (nothing is kept); they leave with ROADMAP item 5's bench change.
    cache_hits = 0
    cache_misses = 0

    def __init__(self, problem: TwoParProblem, branch_id: int = 0,
                 reference_lam=pencil.REFERENCE_LAM):
        self.problem = problem
        self.branch_id = int(branch_id)
        self.state = pencil.BranchState.at_reference(problem, reference_lam)
        if self.branch_id not in self.state.current:
            raise KeyError(
                f"branch {branch_id} not present at reference "
                f"lam={self.state.reference_lam} (have 0..{self.state.n_branches - 1})"
            )

    def branch_point(self, lam) -> pencil.BranchPoint:
        """Track the branch to lam and return its point there."""
        return pencil.continue_branch(self.problem, self.state, self.branch_id, lam)

    def factorization(self, sigma):
        """(Factorization of M(sigma) on the branch, branch point at sigma).

        Raises ShiftIsEigenvalue when M(sigma) is numerically singular.
        """
        bp = self.branch_point(sigma)
        return _linalg.Factorization(self.problem.eval_a(bp.lam, bp.mu)), bp
