"""The branch-implicit nonlinear operator M(lam) = A1 + lam*A2 + g(lam)*A3.

Fixing one branch mu = g(lam) of the small pencil turns the large equation
into a nonlinear eigenvalue problem in lam alone. A NepView binds a problem
to one tracked branch and provides its branch points and the factorization
of M(sigma) at the last shift asked for.
"""
from __future__ import annotations

from . import _linalg, pencil
from .core import TwoParProblem


class NepView:
    """One branch of the small pencil viewed as a nonlinear operator family.

    The branch is fixed by its index in the |mu|-ordering at reference_lam
    and followed by continuation as evaluation points move. The
    factorization of M(sigma) is kept for the last shift only; cache_hits
    and cache_misses count its reuse.
    """

    def __init__(self, problem: TwoParProblem, branch_id: int = 0,
                 reference_lam=pencil.REFERENCE_LAM,
                 state: pencil.BranchState | None = None):
        self.problem = problem
        self.branch_id = int(branch_id)
        if state is None:
            state = pencil.BranchState.at_reference(problem, reference_lam)
        if self.branch_id not in state.current:
            raise KeyError(
                f"branch {branch_id} not present at reference "
                f"lam={state.reference_lam} (have 0..{state.n_branches - 1})"
            )
        self.state = state
        self._slot = None  # (sigma, factorization, branch point)
        self.cache_hits = 0
        self.cache_misses = 0

    def branch_point(self, lam) -> pencil.BranchPoint:
        """Track the branch to lam and return its point there."""
        return pencil.continue_branch(self.problem, self.state, self.branch_id, lam)

    def factorization(self, sigma):
        """(Factorization of M(sigma), branch point at sigma), kept for the last sigma.

        Raises ShiftIsEigenvalue when M(sigma) is numerically singular.
        """
        sigma = complex(sigma)
        if self._slot is not None and self._slot[0] == sigma:
            self.cache_hits += 1
            return self._slot[1:]
        self.cache_misses += 1
        bp = self.branch_point(sigma)
        fact = _linalg.Factorization(self.problem.eval_a(bp.lam, bp.mu))
        self._slot = (sigma, fact, bp)
        return fact, bp
