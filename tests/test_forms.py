import random

import pytest

from fnovikov import (
    Algebra,
    DegenerateFormError,
    DimensionMismatchError,
    Mat,
    SymForm,
    check_fermionic,
    check_left_symmetric,
    check_novikov,
    find_nondegenerate,
    invariant_form_space,
    is_invariant,
    make_family,
    normalize_orientation,
    rank,
    scramble,
    search_fermionic_not_novikov,
    theorem_check,
)
from fnovikov import canon, exactlin
from fnovikov.scalars import QQ

from test_exactlin import congruent
from test_integer_kernel import as_fractions, ref_right_ops


HYP2 = SymForm(Mat([[0, 1], [1, 0]]))


@pytest.fixture(scope="module")
def witness_list():
    return list(search_fermionic_not_novikov())


def sympy_form_space_dim(A):
    """Independent oracle: set up the self-adjointness equations in sympy
    and count the nullspace dimension."""
    import sympy

    n = A.dim
    c = as_fractions(A)
    unknowns = [(u, v) for u in range(n) for v in range(u, n)]
    index = {uv: t for t, uv in enumerate(unknowns)}
    rows = []
    for j in range(n):
        R = sympy.zeros(n, n)
        for i in range(n):
            for m in range(n):
                R[m, i] = sympy.Rational(str(c[i][j][m]))
        for r in range(n):
            for s in range(n):
                row = [sympy.Integer(0)] * len(unknowns)
                for t in range(n):
                    key = (t, s) if t <= s else (s, t)
                    row[index[key]] += R[t, r]
                    key = (r, t) if r <= t else (t, r)
                    row[index[key]] -= R[t, s]
                rows.append(row)
    M = sympy.Matrix(rows)
    return len(unknowns) - M.rank()


class TestIsInvariant:
    def test_family1_hyperbolic(self):
        assert is_invariant(make_family(1, 2), HYP2)

    def test_family1_identity_fails(self):
        assert not is_invariant(make_family(1, 2), SymForm(Mat.identity(2)))

    def test_form_of_another_dimension(self):
        for B in (SymForm(Mat.identity(3)), SymForm(Mat.identity(1))):
            with pytest.raises(DimensionMismatchError, match="^form dimension mismatch$"):
                is_invariant(make_family(1, 2), B)

    def test_nonsymmetric_matrix_is_no_form(self):
        for M in (Mat([[0, 1], [2, 0]]), Mat([[1, 0]])):
            with pytest.raises(ValueError, match="^form matrix must be symmetric$"):
                SymForm(M)

    def test_zero_algebra_any_form(self):
        A = Algebra.zero(3)
        rnd = random.Random(0)
        for _ in range(5):
            M = Mat([[rnd.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            S = [[M.data[i][j] + M.data[j][i] for j in range(3)] for i in range(3)]
            assert is_invariant(A, SymForm(Mat(S)))


class TestFormSpace:
    def test_zero_algebra_full_space(self):
        for n in (0, 1, 3):
            assert len(invariant_form_space(Algebra.zero(n))) == n * (n + 1) // 2

    def test_family1_dim2(self):
        space = invariant_form_space(make_family(1, 2))
        assert len(space) == 2
        # every member has the shape [[a, b], [b, 0]]
        for M in space:
            assert M.matrix.data[1][1] == 0

    def test_family3_dim3(self):
        space = invariant_form_space(make_family(3, 3))
        assert len(space) == 4
        # every member has the shape [[a, b, d], [b, 0, 0], [d, 0, f]]
        for M in space:
            assert M.matrix.data[1][1] == 0
            assert M.matrix.data[1][2] == 0

    @pytest.mark.parametrize(
        "algebra",
        [make_family(1, 2), make_family(3, 3), make_family(2, 4), Algebra.zero(2)],
        ids=["fam1_d2", "fam3_d3", "fam2_d4", "zero_d2"],
    )
    def test_against_sympy_oracle(self, algebra):
        assert len(invariant_form_space(algebra)) == sympy_form_space_dim(algebra)

    def test_members_are_invariant(self):
        for variant in (1, 2, 3):
            A = make_family(variant, 4)
            for M in invariant_form_space(A):
                assert is_invariant(A, M)

    def test_space_is_complete(self):
        # dimension agrees with the independent oracle, and members are
        # linearly independent, so the span is the full solution space
        A = make_family(2, 3)
        space = invariant_form_space(A)
        flat = [[M.matrix.data[u][v] for u in range(3) for v in range(u, 3)] for M in space]
        assert rank(Mat(flat)) == len(space) == sympy_form_space_dim(A)


class TestFindNondegenerate:
    def test_family1(self):
        space = invariant_form_space(make_family(1, 2))
        B = find_nondegenerate(space, seed=0)
        assert B is not None
        # the off-diagonal coefficient must be nonzero: det = -b^2
        assert B.matrix.data[0][1] != 0
        assert B.is_nondegenerate()

    def test_empty_space(self):
        assert find_nondegenerate([], seed=0) is None

    def test_family3(self):
        space = invariant_form_space(make_family(3, 3))
        B = find_nondegenerate(space, seed=0)
        assert B is not None and B.is_nondegenerate()
        assert B.matrix.data[0][1] != 0
        assert B.matrix.data[2][2] != 0

    @pytest.mark.parametrize("variant", [1, 2, 3])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_all_families_up_to_dim6(self, variant, n):
        A = make_family(variant, n)
        B = find_nondegenerate(invariant_form_space(A), seed=7)
        assert B is not None
        assert B.is_nondegenerate()
        assert is_invariant(A, B)

    def test_no_member_detected_exactly(self):
        # span of a single rank-1 matrix: no nondegenerate member
        space = [SymForm(Mat([[1, 0], [0, 0]]))]
        assert find_nondegenerate(space, seed=0) is None

    @pytest.mark.parametrize(
        "extra,picks",
        [(1, range(0, 210, 18)), (2, (5, 150))],
        ids=["dim5", "dim6"],
    )
    def test_padded_witnesses_admit_no_form(self, witness_list, extra, picks):
        # W + 0: a witness plus an `extra`-dimensional zero ideal, scrambled;
        # still fermionic, left-symmetric and not Novikov, so by the theorem
        # no nondegenerate invariant form exists.  Each is decided by the
        # symbolic generic_rank, of a 5- or 8-member form pencil: 12 at dim 5
        # took 0.2 s and 2 at dim 6 1.6 s, on a 2-vCPU Xeon, Python 3.11.7
        for i in picks:
            W = witness_list[i]
            n = W.dim + extra
            w = as_fractions(W)
            padded = Algebra.from_products(n, [
                (a, b, m, w[a][b][m])
                for a in range(W.dim) for b in range(W.dim) for m in range(W.dim)
                if w[a][b][m]
            ])
            A, _, _ = scramble(padded, None, i)
            assert check_fermionic(A) and check_left_symmetric(A)
            assert not check_novikov(A)
            assert find_nondegenerate(invariant_form_space(A), seed=i) is None


class TestNormalizeOrientation:
    def test_already_fine(self):
        B = SymForm(Mat.diagonal([1, 1, -1]))
        assert normalize_orientation(B) == B

    def test_flip(self):
        B = SymForm(Mat.diagonal([-1, -1, 1]))
        assert normalize_orientation(B) == SymForm(Mat.diagonal([1, 1, -1]))

    def test_hyperbolic_unchanged(self):
        assert normalize_orientation(HYP2) == HYP2

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateFormError):
            normalize_orientation(SymForm(Mat.zeros(2, 2)))

    def test_negation_swaps_type_and_keeps_invariance(self):
        A = make_family(1, 3)
        B = find_nondegenerate(invariant_form_space(A), seed=1)
        np_, nm, nz = B.signature()
        assert B.negate().signature() == (nm, np_, nz)
        assert is_invariant(A, B.negate())

    def test_negation_carries_the_cached_signature(self, monkeypatch):
        # normalize_orientation diagonalizes the form once; the flipped form
        # it returns holds the swapped signature, so theorem_check's
        # canonical_basis diagonalizes only its two pairings after that;
        # every diagonalization runs through the integer kernel
        calls = []
        real = exactlin.int_congruence

        def counted(rows, cols=None):
            calls.append(len(rows))
            return real(rows, cols)

        monkeypatch.setattr(exactlin, "int_congruence", counted)
        monkeypatch.setattr(canon, "int_congruence", counted)
        A = make_family(2, 5)
        B = normalize_orientation(find_nondegenerate(invariant_form_space(A), seed=1))
        np_, nm, nz = B.signature()
        assert nm < np_
        calls.clear()
        N = normalize_orientation(SymForm(Mat([[-x for x in row] for row in B.matrix.data])))
        assert N.signature() == (np_, nm, nz)
        assert N.negate().signature() == (nm, np_, nz)
        assert calls == [5]
        # the carried signatures are the ones a fresh diagonalization finds
        assert N.signature() == exactlin.signature(N.matrix)
        assert N.negate().signature() == exactlin.signature(N.negate().matrix)
        calls.clear()
        assert theorem_check(A, SymForm(Mat([[-x for x in row] for row in B.matrix.data])), seed=1)
        # the form's signature, then <u_i, w_j> (k = 1) and the complement
        assert calls == [5, 1, 3]


class TestIsotropyBounds:
    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_image_isotropic_and_bounded(self, variant):
        A = make_family(variant, 5)
        assert check_fermionic(A)
        B = normalize_orientation(find_nondegenerate(invariant_form_space(A), seed=3))
        _, p, _ = B.signature()
        for R in ref_right_ops(A):
            R = Mat(R)
            # <u, v> = 0 for every pair of columns of R
            assert congruent(R, B.matrix).is_zero_matrix
            assert rank(R) <= p
