"""Matrix Market persistence for problems.

A problem is stored as seven files: A1..A3, B1..B3 and the normalization
vector c (as an m x 1 array). Sparse matrices use the coordinate format
with explicit zeros kept in the pattern, dense ones the array format.
"""
from __future__ import annotations

import os

import numpy as np
import scipy.io
import scipy.sparse as sp

from . import _linalg
from .core import TwoParProblem
from .errors import DimensionMismatch, ProblemIOError

MATRIX_NAMES = ("A1", "A2", "A3", "B1", "B2", "B3")


def _diagnose(path):
    """Locate the first malformed line of a Matrix Market file, best effort."""
    try:
        with open(path, "r", errors="replace") as fh:
            lines = fh.readlines()
    except OSError as exc:
        return f"unreadable: {exc}"
    if not lines:
        return "line 1: empty file"
    if not lines[0].startswith("%%MatrixMarket"):
        return "line 1: missing %%MatrixMarket header"
    header = lines[0].split()
    if len(header) < 4 or header[1].lower() != "matrix":
        return "line 1: malformed header"
    fmt = header[2].lower()
    field = header[3].lower()
    per_entry = {"real": 1, "integer": 1, "complex": 2, "pattern": 0}.get(field)
    if fmt not in ("coordinate", "array") or per_entry is None:
        return f"line 1: unsupported format/field {fmt}/{field}"
    no = 1
    for no, raw in enumerate(lines[1:], start=2):
        if not raw.lstrip().startswith("%") and raw.strip():
            break
    else:
        return f"line {no}: missing size line"
    size = lines[no - 1].split()
    want = 3 if fmt == "coordinate" else 2
    if len(size) != want or not all(tok.lstrip("+-").isdigit() for tok in size):
        return f"line {no}: malformed size line {lines[no - 1].strip()!r}"
    rows, cols = int(size[0]), int(size[1])
    tokens = (2 + per_entry) if fmt == "coordinate" else max(per_entry, 1)
    for k, raw in enumerate(lines[no:], start=no + 1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if len(parts) != tokens:
            return f"line {k}: expected {tokens} fields, got {len(parts)}"
        try:
            if fmt == "coordinate":
                i, j = int(parts[0]), int(parts[1])
                if not (1 <= i <= rows and 1 <= j <= cols):
                    return f"line {k}: index ({i}, {j}) outside {rows} x {cols}"
                [float(p) for p in parts[2:]]
            else:
                [float(p) for p in parts]
        except ValueError:
            return f"line {k}: unparseable entry {line!r}"
    return "structure looks valid; content rejected by the reader"


def read_matrix(path):
    """One Matrix Market file: coordinate becomes CSR, array becomes dense.
    A NaN or infinite entry is a ProblemIOError naming the file."""
    try:
        mat = scipy.io.mmread(path)
    except FileNotFoundError as exc:
        raise ProblemIOError(f"{path}: {exc.strerror or 'not found'}") from exc
    except Exception as exc:
        raise ProblemIOError(f"{path}: {_diagnose(path)} ({exc})") from exc
    mat = mat.tocsr() if sp.issparse(mat) else np.asarray(mat)
    if not np.all(np.isfinite(mat.data if sp.issparse(mat) else mat)):
        raise ProblemIOError(f"{path}: non-finite entry")
    return mat


def write_matrix(path, mat):
    if sp.issparse(mat):
        scipy.io.mmwrite(path, mat.tocoo())
    else:
        scipy.io.mmwrite(path, np.asarray(mat))


def load_problem(matrix_paths, c_path=None) -> TwoParProblem:
    """Build a problem from six matrix files (A1, A2, A3, B1, B2, B3 order)
    plus an optional c vector file, labelled "loaded:" plus the A1 file name.

    Without c_path the normalization vector is TwoParProblem's seeded
    draw, non-orthogonal to the eigenvectors at lam = 0; a given c must not
    be zero. Dimension inconsistencies report all six shapes at once.
    """
    paths = list(matrix_paths)
    if len(paths) != 6:
        raise ProblemIOError(
            f"need exactly 6 matrix files (A1 A2 A3 B1 B2 B3), got {len(paths)}"
        )
    mats = [read_matrix(p) for p in paths]
    shapes = ", ".join(
        f"{name}={tuple(m.shape)}" for name, m in zip(MATRIX_NAMES, mats)
    )
    for m in mats:
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"non-square matrix among inputs: {shapes}")
    if not (mats[0].shape == mats[1].shape == mats[2].shape):
        raise DimensionMismatch(f"A sizes disagree: {shapes}")
    if not (mats[3].shape == mats[4].shape == mats[5].shape):
        raise DimensionMismatch(f"B sizes disagree: {shapes}")
    Bs = [_linalg.to_dense(m) for m in mats[3:]]
    c = None if c_path is None else _linalg.to_dense(read_matrix(c_path)).reshape(-1)
    if c is not None and not np.any(c):
        raise ProblemIOError(f"{c_path}: c is the zero vector")
    label = "loaded:" + os.path.basename(str(paths[0]))
    return TwoParProblem(mats[0], mats[1], mats[2], *Bs, c, label=label)


def save_problem(problem: TwoParProblem, directory) -> dict:
    """Write the seven files A1.mtx .. B3.mtx and c.mtx into directory;
    returns {name: path}."""
    os.makedirs(directory, exist_ok=True)
    written = {}
    for name, mat in zip(
        MATRIX_NAMES,
        (problem.A1, problem.A2, problem.A3, problem.B1, problem.B2, problem.B3),
    ):
        path = os.path.join(directory, f"{name}.mtx")
        write_matrix(path, mat)
        written[name] = path
    cpath = os.path.join(directory, "c.mtx")
    scipy.io.mmwrite(cpath, problem.c.reshape(-1, 1))
    written["c"] = cpath
    return written
