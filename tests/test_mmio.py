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
    ("", "line 1: empty file"),
    ("%%MatrixMarket vector coordinate real general\n2 2 1\n1 1 1.0\n",
     "line 1: malformed header"),
    ("%%MatrixMarket matrix coordinate quaternion general\n2 2 1\n1 1 1.0\n",
     "line 1: unsupported format/field coordinate/quaternion"),
    ("%%MatrixMarket matrix array real general\n% only a comment\n",
     "line 2: missing size line"),
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
    # a non-square file, and B matrices of two sizes
    wide = tmp_path / "wide.mtx"
    mmio.write_matrix(wide, np.ones((2, 3)))
    with pytest.raises(DimensionMismatch, match="^non-square matrix among inputs: ") as info:
        mmio.load_problem(paths[:4] + [str(wide), paths[5]])
    assert "B2=(2, 3)" in str(info.value)
    with pytest.raises(DimensionMismatch, match="^B sizes disagree: ") as info:
        mmio.load_problem(paths[:5] + [str(odd)])
    assert "B2=(2, 2)" in str(info.value) and "B3=(3, 3)" in str(info.value)


def test_narrow_real_problem_round_trip(tmp_path):
    # the A side goes out as real coordinate files and comes back as the
    # same float64 diagonals, so M(lam) is the same to the last bit
    p = problems.gen_helmholtz(problems.HelmholtzConfig(n=300, m=6)).problem
    written = mmio.save_problem(p, tmp_path)
    for name in ("A1", "A2", "A3"):
        with open(written[name]) as fh:
            assert fh.readline().split() == [
                "%%MatrixMarket", "matrix", "coordinate", "real", "general"]
    back = mmio.load_problem([written[k] for k in mmio.MATRIX_NAMES],
                             c_path=written["c"])
    for name in ("A1", "A2", "A3"):
        got, want = getattr(back, name), getattr(p, name)
        assert got.format == "dia" and got.dtype == want.dtype == np.float64
        np.testing.assert_array_equal(got.offsets, want.offsets)
        assert got.data.tobytes() == want.data.tobytes()
    for lam, mu in ((1.5, 0.5), (0.7 - 0.2j, 1.1 + 0.3j)):
        got, want = back.eval_a(lam, mu), p.eval_a(lam, mu)
        assert got.dtype == want.dtype and got.data.tobytes() == want.data.tobytes()


def test_split_helmholtz_round_trip_keeps_the_tridiagonal_lu(tmp_path):
    # the A side comes back from its coordinate files as CSR, and the one
    # storage decision treats it as it treats the generated dia_arrays: the
    # loaded problem takes the tridiagonal LU, with bit-equal factors,
    # corner transform and solves, real and complex, in both directions
    p = problems.gen_helmholtz(problems.HelmholtzConfig(n=300, m=6)).problem
    written = mmio.save_problem(p, tmp_path)
    assert all(mmio.read_matrix(written[name]).format == "csr" for name in ("A1", "A2", "A3"))
    back = mmio.load_problem([written[k] for k in mmio.MATRIX_NAMES], c_path=written["c"])
    rng = np.random.default_rng(4)
    b = rng.standard_normal(p.n) + 1j * rng.standard_normal(p.n)
    for lam, mu in ((1.5, 0.5), (0.7 - 0.2j, 1.1 + 0.3j)):
        got, want = back.factorize_a(lam, mu), p.factorize_a(lam, mu)
        assert got.storage == want.storage == "tridiagonal"
        assert got._corner == want._corner
        for g, w in zip(got._lu, want._lu):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        for rhs in (b.real, b):
            for adjoint in (False, True):
                x, y = got.solve(rhs, adjoint), want.solve(rhs, adjoint)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


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
