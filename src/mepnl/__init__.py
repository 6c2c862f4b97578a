"""Linear two-parameter eigenvalue problems, solved by eliminating the
small equation into eigenvalue branches mu = g_i(lam) and treating the large
equation as a nonlinear eigenvalue problem in lam alone."""

from . import delta, errors, mmio, pencil, problems, solvers
from .core import (ConditionReport, Quadruplet, ResidualRecord, TwoParProblem,
                   Weights, attach_left_vectors, c0_matrix, condition_numbers,
                   residuals, worst_case_perturbation)
from .mmio import load_problem, save_problem
from .nep import NepView
from .pencil import BranchPoint, derivatives, eigenpairs_at, g_prime_closed_form
from .problems import (HelmholtzConfig, flag_singularities, gen_helmholtz,
                       gen_qep, gen_random, gen_sqrt_nep, tabulate_branches)
from .solvers import (SolveTrace, SolverConfig, augmented_newton,
                      rayleigh_candidates, rayleigh_gep, resinv)

__version__ = "0.1.0"

__all__ = [
    "BranchPoint", "ConditionReport", "HelmholtzConfig", "NepView",
    "Quadruplet", "ResidualRecord", "SolveTrace", "SolverConfig",
    "TwoParProblem", "Weights", "attach_left_vectors", "augmented_newton",
    "c0_matrix", "condition_numbers", "delta", "derivatives", "eigenpairs_at",
    "errors", "flag_singularities", "g_prime_closed_form", "gen_helmholtz",
    "gen_qep", "gen_random", "gen_sqrt_nep", "load_problem", "mmio", "pencil",
    "problems", "rayleigh_candidates", "rayleigh_gep", "residuals", "resinv",
    "save_problem", "solvers", "tabulate_branches", "worst_case_perturbation",
]
