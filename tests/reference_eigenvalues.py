"""Regenerate reference_eigenvalues.json, the committed reference eigenvalues
that test_delta.py checks the oracle and Newton against.

For each case the problem's Delta0 = A2 (x) B3 - A3 (x) B2 and
Delta1 = A3 (x) B1 - A1 (x) B3 are formed with np.kron, and every
eigenvalue of Gamma1 = Delta0^-1 Delta1 is computed by mpmath at 40 digits,
with no mepnl linear algebra. The JSON keeps the A matrices exactly (B1..B3
are the generator's fixed blocks) and each eigenvalue's real and imaginary
parts to 20 significant digits, sorted by (Re, Im). Run from the root of a
checkout, with mpmath installed (the test extra):

    PYTHONPATH=src python tests/reference_eigenvalues.py
"""
import json
from pathlib import Path

import mpmath
import numpy as np

from mepnl import problems

DATA = Path(__file__).with_suffix(".json")
DPS, DIGITS = 40, 20
# (name, generator, seed, n): n*m = 16, as gen_qep and gen_sqrt_nep have m = 2
CASES = (("qep", "gen_qep", 1, 8), ("sqrt", "gen_sqrt_nep", 1, 8))


def reference_eigenvalues(problem):
    """[[Re, Im], ...] strings of the eigenvalues of Delta0^-1 Delta1."""
    A1, A2, A3 = (np.asarray(a) for a in (problem.A1, problem.A2, problem.A3))
    delta0 = np.kron(A2, problem.B3) - np.kron(A3, problem.B2)
    delta1 = np.kron(A3, problem.B1) - np.kron(A1, problem.B3)
    with mpmath.workdps(DPS):
        gamma1 = mpmath.inverse(mpmath.matrix(delta0.tolist())) * mpmath.matrix(delta1.tolist())
        eigs = sorted(mpmath.eig(gamma1, left=False, right=False),
                      key=lambda e: (e.real, e.imag))
        return [[mpmath.nstr(e.real, DIGITS), mpmath.nstr(e.imag, DIGITS)] for e in eigs]


def main():
    cases = []
    for name, generator, seed, n in CASES:
        rng = np.random.default_rng(seed)
        a_mats = [rng.standard_normal((n, n)) for _ in range(3)]
        problem = getattr(problems, generator)(*a_mats)
        if generator == "gen_sqrt_nep":
            problem = problem[0]  # (problem, branch_fn)
        cases.append({"name": name, "generator": generator, "seed": seed, "n": n,
                      "A": [a.tolist() for a in a_mats],
                      "lam": reference_eigenvalues(problem)})
    DATA.write_text(json.dumps({"dps": DPS, "digits": DIGITS, "cases": cases}, indent=1) + "\n")


if __name__ == "__main__":
    main()
