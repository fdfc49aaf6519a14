import random
from fractions import Fraction

import pytest

from fnovikov import (
    Algebra,
    DimensionMismatchError,
    K2Params,
    Mat,
    Pencil,
    SymForm,
    check_fermionic,
    check_left_symmetric,
    check_novikov,
    classify_k1,
    find_nondegenerate,
    generate_corpus,
    generic_rank,
    invariant_form_space,
    is_invariant,
    k2_condition,
    make_family,
    make_k2,
    random_k2,
    scramble,
    signature,
    transport_basis,
)
from fnovikov.scalars import QQ

from test_integer_kernel import as_fractions


def unstructured_k2(rnd, n):
    """K2Params of three vectors of n randint(-3, 3) draws each, none
    zeroed: random_k2's draws before it zeroes the image directions."""
    return K2Params(n, *([rnd.randint(-3, 3) for _ in range(n)] for _ in range(3)))


def full_right_pencil(A):
    """The n x n pencil sum_j t_j R_{e_j} of A's integer tensor, every row
    kept, as an oracle for the k x n A.right_pencil()."""
    C, _ = A.int_tensor()
    n = A.dim
    return Pencil([[[C[i][j][m] for i in range(n)] for m in range(n)] for j in range(n)], n, n)


class TestMakeFamily:
    def test_variant1(self):
        c = as_fractions(make_family(1, 2))
        assert c[0][0][1] == 1
        assert sum(1 for i in range(2) for j in range(2) for m in range(2) if c[i][j][m]) == 1

    def test_variant0(self):
        assert make_family(0, 5) == Algebra.zero(5)

    def test_variant3_dim4(self):
        assert as_fractions(make_family(3, 4))[0][2][1] == 1

    def test_dimension_too_small(self):
        with pytest.raises(ValueError):
            make_family(3, 2)
        with pytest.raises(ValueError):
            make_family(1, 1)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            make_family(4, 3)

    @pytest.mark.parametrize("variant", [0, 1, 2, 3])
    def test_identities(self, variant):
        A = make_family(variant, 4)
        assert check_left_symmetric(A)
        assert check_fermionic(A)
        assert check_novikov(A)


class TestClassifyK1:
    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_families(self, variant):
        assert classify_k1(make_family(variant, 3 if variant == 3 else 2)) == variant

    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_scramble_invariant(self, variant):
        A = make_family(variant, 4)
        for seed in range(10):
            A2, _, _ = scramble(A, None, seed)
            assert classify_k1(A2) == variant

    def test_rejects_failed_identities(self):
        # e1 e1 = e1 is not fermionic, and e1 e2 = e1 not left-symmetric
        for A in (Algebra.from_products(1, [(0, 0, 0, 1)]), Algebra.from_products(2, [(0, 1, 0, 1)])):
            with pytest.raises(ValueError, match="^algebra must satisfy both defining identities$"):
                classify_k1(A)

    def test_rejects_wrong_derived_dim(self):
        with pytest.raises(ValueError):
            classify_k1(Algebra.zero(3))

    def test_builds_no_rational(self, monkeypatch):
        # A(AA) != 0 is read on the integer tensor: no Fraction is built
        cases = [(variant, scramble(make_family(variant, n), None, n)[0])
                 for variant in (1, 2, 3) for n in range(3, 9)]
        calls = []
        real_new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **kw: calls.append(a) or real_new(cls, *a, **kw))
        got = [classify_k1(A) for _, A in cases]
        monkeypatch.undo()
        assert calls == []
        assert got == [variant for variant, _ in cases]


class TestMakeK2:
    def test_zero_params(self):
        p = K2Params(n=5, lam=[0] * 5, mu=[0] * 5, gam=[0] * 5)
        assert make_k2(p) == Algebra.zero(5)

    def test_single_lambda(self):
        p = K2Params(n=5, lam=[0, 1, 0, 0, 0], mu=[0] * 5, gam=[0] * 5)
        assert as_fractions(make_k2(p))[0][1][1] == 1

    def test_derived_dim_bounded(self):
        rnd = random.Random(0)
        for _ in range(10):
            A = make_k2(unstructured_k2(rnd, 6))
            assert A.derived_dim() <= 2

    def test_dim_too_small(self):
        with pytest.raises(ValueError):
            K2Params(n=4, lam=[0] * 4, mu=[0] * 4, gam=[0] * 4)

    @pytest.mark.parametrize("name", ["lam", "mu", "gam"])
    def test_vector_of_wrong_length(self, name):
        for m in (4, 6):
            vectors = {"lam": [0] * 5, "mu": [0] * 5, "gam": [0] * 5, name: [0] * m}
            with pytest.raises(ValueError, match=f"^{name} must have length 5$"):
                K2Params(n=5, **vectors)

    def test_admits_invariant_form(self):
        # pairs (e1,e2), (e3,e4) hyperbolic plus identity complement is
        # invariant for every parameter choice
        rnd = random.Random(1)
        for _ in range(5):
            n = rnd.randint(5, 7)
            A = make_k2(unstructured_k2(rnd, n))
            data = [[0] * n for _ in range(n)]
            data[0][1] = data[1][0] = QQ(1)
            data[2][3] = data[3][2] = QQ(1)
            for t in range(4, n):
                data[t][t] = QQ(1)
            assert is_invariant(A, SymForm(Mat(data)))


class TestK2Condition:
    def test_zero_params(self):
        assert k2_condition(make_k2(K2Params(n=5, lam=[0] * 5, mu=[0] * 5, gam=[0] * 5)))

    def test_witness_failure(self):
        # lam_2 couples the image directions: the left multiplications of
        # e1 and e3 no longer commute, and left-symmetry fails with it
        p = K2Params(n=5, lam=[0, 1, 0, 0, 0], mu=[0, 0, 0, 0, 1], gam=[0] * 5)
        A = make_k2(p)
        assert not k2_condition(A)
        assert not check_left_symmetric(A)

    def test_structured_draws_pass(self):
        rnd = random.Random(2)
        for _ in range(10):
            A = make_k2(random_k2(rnd, rnd.randint(5, 8)))
            assert k2_condition(A)
            assert check_left_symmetric(A)

    def test_equivalence_with_full_checks(self):
        rnd = random.Random(3)
        for _ in range(30):
            A = make_k2(unstructured_k2(rnd, rnd.randint(5, 7)))
            assert check_fermionic(A)
            assert k2_condition(A) == check_left_symmetric(A)

    def test_refuses_dim_below_three(self):
        # the condition reads e1 and e3: a named error, not an IndexError
        with pytest.raises(DimensionMismatchError, match="e1 and e3"):
            k2_condition(Algebra.zero(2))
        assert k2_condition(Algebra.zero(3))


class TestScramble:
    def test_identity_transport_is_noop(self):
        A = make_family(2, 3)
        B = find_nondegenerate(invariant_form_space(A), seed=0)
        A2, B2 = transport_basis(A, B, Mat.identity(3))
        assert A2 == A
        assert B2 == B

    def test_invariants_preserved(self):
        A = make_family(3, 4)
        B = find_nondegenerate(invariant_form_space(A), seed=1)
        for seed in range(5):
            A2, B2, P = scramble(A, B, seed)
            assert check_left_symmetric(A2) and check_fermionic(A2)
            assert A2.derived_dim() == A.derived_dim()
            assert signature(B2.matrix) == signature(B.matrix)
            assert is_invariant(A2, B2)
            rank_A = generic_rank(full_right_pencil(A))
            assert generic_rank(full_right_pencil(A2)) == rank_A == generic_rank(A2.right_pencil())

    def test_dim_zero(self):
        A2, B2, P = scramble(Algebra.zero(0), None, 0)
        assert A2.dim == 0

    def test_basis_change_of_wrong_shape_is_refused(self):
        A = make_family(2, 3)
        for P in (Mat.identity(2), Mat.identity(4), Mat.zeros(3, 2), Mat.zeros(2, 3)):
            with pytest.raises(DimensionMismatchError, match="^basis change dimension mismatch$"):
                transport_basis(A, None, P)

    @pytest.mark.parametrize("m", [2, 4])
    def test_form_of_wrong_dimension_is_refused(self, m):
        # a 2x2 form would come back 3x3 with a zero last row, and a 4x4
        # one truncated to 3x3
        A = make_family(2, 3)
        B = SymForm(Mat.diagonal([1] * m))
        with pytest.raises(DimensionMismatchError):
            transport_basis(A, B, Mat.identity(3))
        with pytest.raises(DimensionMismatchError):
            scramble(A, B, 1)


class TestGenerateCorpus:
    def test_deterministic(self):
        first = [(name, as_fractions(A), B.matrix.data) for name, A, B in generate_corpus(9, 5)]
        second = [(name, as_fractions(A), B.matrix.data) for name, A, B in generate_corpus(9, 5)]
        assert first == second

    def test_instances_well_formed(self):
        for name, A, B in generate_corpus(4, 6):
            assert check_left_symmetric(A)
            assert check_fermionic(A)
            assert B.is_nondegenerate()
            assert is_invariant(A, B)
