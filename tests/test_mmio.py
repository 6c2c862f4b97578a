"""Matrix Market round trips and failure diagnosis."""
import numpy as np
import pytest
import scipy.sparse as sp

import mepnl
from mepnl import mmio, problems
from mepnl.errors import DimensionMismatch, ProblemIOError


def test_dense_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((4, 3))
    path = tmp_path / "dense.mtx"
    mmio.write_matrix(path, mat)
    back = mmio.read_matrix(path)
    assert isinstance(back, np.ndarray)
    np.testing.assert_allclose(back, mat, rtol=1e-15, atol=0)


def test_sparse_round_trip_keeps_explicit_zeros(tmp_path):
    rows = np.array([0, 1, 2, 2])
    cols = np.array([0, 1, 0, 2])
    data = np.array([1.5, 0.0, -2.0, 3.25])  # one stored zero
    mat = sp.coo_matrix((data, (rows, cols)), shape=(3, 3))
    path = tmp_path / "sparse.mtx"
    mmio.write_matrix(path, mat)
    back = mmio.read_matrix(path)
    assert sp.issparse(back) and back.format == "csr"
    assert back.nnz == 4, "explicit zero entry must stay in the pattern"
    np.testing.assert_allclose(back.toarray(), mat.toarray(), rtol=1e-15)


def test_complex_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    path = tmp_path / "complex.mtx"
    mmio.write_matrix(path, mat)
    np.testing.assert_allclose(mmio.read_matrix(path), mat, rtol=1e-15)


def test_missing_file_reports_path(tmp_path):
    with pytest.raises(ProblemIOError, match="nothere.mtx"):
        mmio.read_matrix(tmp_path / "nothere.mtx")


@pytest.mark.parametrize("content,fragment", [
    ("not a header\n1 1\n1.0\n", "line 1"),
    ("%%MatrixMarket matrix array real general\n1 x\n1.0\n", "line 2"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 2\n",
     "line 4"),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n",
     "outside"),
])
def test_parse_failures_are_located(tmp_path, content, fragment):
    path = tmp_path / "bad.mtx"
    path.write_text(content)
    with pytest.raises(ProblemIOError, match=fragment):
        mmio.read_matrix(path)


def test_save_load_problem_round_trip(tmp_path):
    p = problems.gen_random(5, 3, seed=7)
    written = mmio.save_problem(p, tmp_path)
    assert sorted(written) == ["A1", "A2", "A3", "B1", "B2", "B3", "c"]
    back = mmio.load_problem([written[k] for k in mmio.MATRIX_NAMES],
                             c_path=written["c"])
    for name in mmio.MATRIX_NAMES:
        got = getattr(back, name)
        got = got.toarray() if sp.issparse(got) else np.asarray(got)
        np.testing.assert_allclose(got, getattr(p, name), rtol=1e-15)
    np.testing.assert_allclose(back.c, p.c, rtol=1e-15)
    assert back.label == "loaded:A1.mtx"


def test_load_without_c_uses_seeded_default(tmp_path):
    p = problems.gen_random(4, 3, seed=8)
    written = mmio.save_problem(p, tmp_path)
    paths = [written[k] for k in mmio.MATRIX_NAMES]
    b1 = mmio.load_problem(paths)
    b2 = mmio.load_problem(paths)
    np.testing.assert_array_equal(b1.c, b2.c)
    # the default draw must not be orthogonal to any finite eigenvector
    for pt in mepnl.pencil.eigenpairs_at(b1, 0.0):
        assert not pt.c_degenerate


def test_load_problem_dimension_errors(tmp_path):
    p = problems.gen_random(4, 2, seed=9)
    written = mmio.save_problem(p, tmp_path)
    odd = tmp_path / "odd.mtx"
    mmio.write_matrix(odd, np.eye(3))
    paths = [written[k] for k in mmio.MATRIX_NAMES]
    with pytest.raises(DimensionMismatch) as info:
        mmio.load_problem([paths[0], str(odd), paths[2]] + paths[3:])
    # every shape is in the message so the offender is obvious
    assert "A2=(3, 3)" in str(info.value)
    assert "B3=(2, 2)" in str(info.value)
    with pytest.raises(ProblemIOError, match="6 matrix files"):
        mmio.load_problem(paths[:5])


def test_sparse_problem_round_trip(tmp_path):
    disc = problems.gen_helmholtz(problems.HelmholtzConfig(n=600, m=6))
    p = disc.problem
    written = mmio.save_problem(p, tmp_path)
    back = mmio.load_problem([written[k] for k in mmio.MATRIX_NAMES],
                             c_path=written["c"])
    assert sp.issparse(back.A1)
    np.testing.assert_allclose(back.A1.toarray(), p.A1.toarray(), rtol=1e-15)
    np.testing.assert_allclose(np.asarray(back.B1), np.asarray(p.B1),
                               rtol=1e-15)
