import random

import pytest

from fnovikov import (
    GenericPointError,
    Mat,
    Pencil,
    find_generic_point,
    generic_rank,
    rank,
    signature,
)
from fnovikov import exactlin
from fnovikov.exactlin import int_congruence, rref, rref_kernel, scale_to_int
from fnovikov.scalars import QQ, ONE

from test_integer_kernel import from_sympy, to_sympy


def kernel_basis(M):
    """Basis of the right kernel of M, as rational vectors: rref_kernel
    read from rref of M's integer-scaled rows."""
    return [[QQ(x, d) for x in v] for v, d in rref_kernel(*rref(scale_to_int(M.data)[0], M.cols), M.cols)]


def congruent_diagonalize(S):
    """(P, D) with P^T S P = D diagonal, from int_congruence on S = rows /
    den carrying the unit vectors: P's column i is p[i] / s_i and D_i is
    d_i / (den s_i)."""
    n = S.rows
    rows, den = scale_to_int(S.data)
    d, p, s = int_congruence(rows, [[int(i == j) for i in range(n)] for j in range(n)])
    P = Mat([[QQ(v[r], si) for v, si in zip(p, s)] for r in range(n)])
    return P, Mat.diagonal([QQ(di, den * si) for di, si in zip(d, s)])


def congruent(P, S):
    """P^T S P, computed by sympy."""
    P = to_sympy(P.data)
    return P.T * to_sympy(S.data) * P


def matvec(M, v):
    return [sum((a * x for a, x in zip(row, v)), QQ(0)) for row in M.data]


def jordan_pairs(k, n):
    """Block-diagonal matrix of k nilpotent 2x2 Jordan blocks padded with
    zeros up to size n."""
    M = [[0] * n for _ in range(n)]
    for i in range(k):
        M[2 * i + 1][2 * i] = ONE
    return Mat(M)


def rand_mat(rnd, rows, cols, lo=-5, hi=5):
    return Mat([[rnd.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def symmetrize(M):
    """M + M^T."""
    return Mat([[M.data[i][j] + M.data[j][i] for j in range(M.cols)] for i in range(M.rows)])


class TestRank:
    def test_zero(self):
        assert rank(Mat.zeros(3, 3)) == 0

    def test_single_entry(self):
        assert rank(Mat([[0, 0], [1, 0]])) == 1

    def test_jordan_pair_blocks(self):
        for k in (1, 2, 3):
            for pad in (0, 1, 3):
                assert rank(jordan_pairs(k, 2 * k + pad)) == k

    def test_rank_nullity(self):
        rnd = random.Random(0)
        for _ in range(30):
            rows, cols = rnd.randint(1, 6), rnd.randint(1, 6)
            M = rand_mat(rnd, rows, cols, -2, 2)
            assert rank(M) + len(kernel_basis(M)) == cols


class TestKernel:
    def test_identity(self):
        assert kernel_basis(Mat.identity(2)) == []

    def test_zero(self):
        vecs = kernel_basis(Mat.zeros(2, 2))
        assert len(vecs) == 2
        assert rank(Mat(vecs)) == 2

    def test_kernel_vectors_annihilated(self):
        rnd = random.Random(1)
        for _ in range(20):
            M = rand_mat(rnd, rnd.randint(1, 5), rnd.randint(1, 5), -3, 3)
            for v in kernel_basis(M):
                assert all(x == 0 for x in matvec(M, v))

    def test_solve(self):
        # M x = b solved through the kernel of [M | -b]: a kernel vector
        # with last coordinate 1 is (x, 1); none means M x = b is inconsistent
        M = Mat([[1, 2], [3, 4]])
        (v,) = kernel_basis(Mat([[1, 2, -5], [3, 4, -11]]))
        assert v[-1] == 1
        assert matvec(M, v[:-1]) == [QQ(5), QQ(11)]
        assert all(not v[-1] for v in kernel_basis(Mat([[1, 0, 0], [1, 0, -1]])))


class TestCongruence:
    def test_identity(self):
        P, D = congruent_diagonalize(Mat.identity(3))
        assert P == Mat.identity(3)
        assert D == Mat.identity(3)

    def test_hyperbolic_plane(self):
        S = Mat([[0, 1], [1, 0]])
        P, D = congruent_diagonalize(S)
        assert congruent(P, S) == to_sympy(D.data)
        diag = [D.data[i][i] for i in range(2)]
        assert sum(1 for d in diag if d > 0) == 1
        assert sum(1 for d in diag if d < 0) == 1

    def test_negative_identity(self):
        P, D = congruent_diagonalize(Mat.diagonal([-1, -1]))
        assert P == Mat.identity(2)
        assert D == Mat.diagonal([-1, -1])

    def test_exact_on_random_symmetric(self):
        rnd = random.Random(2)
        for _ in range(40):
            n = rnd.randint(1, 6)
            M = rand_mat(rnd, n, n, -4, 4)
            S = symmetrize(M)
            P, D = congruent_diagonalize(S)
            assert rank(P) == n
            assert congruent(P, S) == to_sympy(D.data)
            assert all(
                D.data[i][j] == 0 for i in range(n) for j in range(n) if i != j
            )


def test_ragged_rows_refused():
    for data in ([[1, 2], [3]], [[1], [2, 3]], [[], [1]]):
        with pytest.raises(ValueError, match="^ragged rows$"):
            Mat(data)


class TestSignature:
    def test_nonsymmetric_refused(self):
        for M in (Mat([[0, 1], [2, 0]]), Mat([[1, 0]])):
            with pytest.raises(ValueError, match="^symmetric matrix required$"):
                signature(M)

    def test_diagonal(self):
        assert signature(Mat.diagonal([-1, -1, 1])) == (1, 2, 0)

    def test_hyperbolic(self):
        assert signature(Mat([[0, 1], [1, 0]])) == (1, 1, 0)

    def test_pair_block_metric(self):
        # k hyperbolic 2x2 blocks, then -I_{p-k}, then I_{n-p-k}
        for n, p, k in ((4, 1, 1), (6, 2, 2), (7, 3, 2)):
            data = [[0] * n for _ in range(n)]
            for i in range(k):
                data[2 * i][2 * i + 1] = ONE
                data[2 * i + 1][2 * i] = ONE
            for t in range(p - k):
                data[2 * k + t][2 * k + t] = -ONE
            for t in range(n - p - k):
                data[k + p + t][k + p + t] = ONE
            assert signature(Mat(data)) == (n - p, p, 0)

    def test_sylvester_invariance(self):
        rnd = random.Random(3)
        for n in (2, 3, 4):
            M = rand_mat(rnd, n, n, -3, 3)
            S = symmetrize(M)
            sig = signature(S)
            done = 0
            while done < 50:
                Q = rand_mat(rnd, n, n, -3, 3)
                if rank(Q) < n:
                    continue
                assert signature(from_sympy(congruent(Q, S))) == sig
                done += 1


def single_var_pencil():
    # t1 placed at row 2, column 1 of a 2x2 matrix
    return Pencil([[[0, 0], [1, 0]]], 2, 2)


def zero_pencil(nvars, rows, cols):
    return Pencil([[[0] * cols for _ in range(rows)] for _ in range(nvars)], rows, cols)


class TestPencil:
    def test_eval(self):
        M = Pencil([[[1, 2], [0, -1]], [[0, 3], [4, 0]]], 2, 2)
        assert M.nvars == 2
        assert M.eval([2, -1]) == [[2, 1], [-4, -2]]
        assert M.eval([0, 0]) == [[0, 0], [0, 0]]
        with pytest.raises(ValueError):
            M.eval([1])

    def test_no_variables(self):
        M = Pencil([], 2, 3)
        assert (M.nvars, M.rows, M.cols) == (0, 2, 3)
        assert M.eval([]) == [[0, 0, 0], [0, 0, 0]]
        assert generic_rank(M) == 0


class TestGenericRank:
    def test_single_entry(self):
        assert generic_rank(single_var_pencil()) == 1

    def test_zero(self):
        assert generic_rank(zero_pencil(2, 3, 3)) == 0

    def test_rank_two_pencil(self):
        # diag(t1, t2) padded: generic rank 2, every specialization <= 2
        M = Pencil(
            [
                [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
                [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
            ],
            3,
            3,
        )
        assert generic_rank(M) == 2

    def test_specialization_bounded(self):
        rnd = random.Random(4)
        for _ in range(20):
            nv = rnd.randint(1, 3)
            n = rnd.randint(1, 5)
            mats = [
                [[rnd.randint(-2, 2) if rnd.random() < 0.4 else 0 for _ in range(n)]
                 for _ in range(n)]
                for _ in range(nv)
            ]
            M = Pencil(mats, n, n)
            r = generic_rank(M)
            for _ in range(5):
                point = [rnd.randint(-5, 5) for _ in range(nv)]
                assert rank(Mat(M.eval(point))) <= r
            point, s = find_generic_point(M, seed=rnd.randint(0, 10**6))
            assert s == r == rank(Mat(M.eval(point)))


class TestFindGenericPoint:
    def test_single_entry(self):
        point, r = find_generic_point(single_var_pencil(), seed=0)
        assert point[0] != 0 and r == 1

    def test_zero_pencil(self):
        point, r = find_generic_point(zero_pencil(2, 2, 2), seed=0)
        assert len(point) == 2 and r == 0

    def test_attempt_cap_guard(self, monkeypatch):
        # a generic rank no point reaches must raise the dedicated error
        monkeypatch.setattr(exactlin, "generic_rank", lambda M: 2)
        with pytest.raises(GenericPointError):
            find_generic_point(single_var_pencil(), seed=0)

    def test_deterministic(self):
        M = single_var_pencil()
        assert find_generic_point(M, seed=9) == find_generic_point(M, seed=9)
