import random

import pytest

from fnovikov import (
    Algebra,
    CLAIMS,
    Mat,
    PreconditionError,
    SymForm,
    basis_element,
    canonical_basis,
    find_nondegenerate,
    generic_rank,
    invariant_form_space,
    make_family,
    max_rank_element,
    normalize_orientation,
    rank,
    right_pencil,
    scramble,
    theorem_check,
    verify_structure,
)
from fnovikov.scalars import QQ, ONE


HYP2 = SymForm(Mat([[0, 1], [1, 0]]))


def family_with_form(variant, n, seed=0):
    A = make_family(variant, n)
    B = normalize_orientation(find_nondegenerate(invariant_form_space(A), seed=seed))
    return A, B


class TestRightPencil:
    def test_family3_generic_rank(self):
        # only the third basis direction acts nontrivially
        assert generic_rank(right_pencil(make_family(3, 3))) == 1

    def test_matches_right_ops(self):
        A = make_family(2, 3)
        pencil = right_pencil(A)
        x = [QQ(2), QQ(-1), QQ(3)]
        assert pencil.eval(x) == A.right_op(x)

    def test_matches_right_ops_rational(self):
        A, _, _ = scramble(make_family(2, 3), None, 4)
        assert any(x.denominator > 1 for row in A.c for vec in row for x in vec)
        x = [QQ(2), QQ(-1, 2), QQ(3)]
        assert right_pencil(A).eval(x) == A.right_op(x)


class TestMaxRankElement:
    def test_zero_algebra(self):
        x0, k = max_rank_element(Algebra.zero(3), seed=0)
        assert k == 0
        assert all(x == 0 for x in x0)

    def test_family2(self):
        A = make_family(2, 2)
        x0, k = max_rank_element(A, seed=1)
        assert k == 1
        assert x0[1] != 0
        assert rank(A.right_op(x0)) == 1

    def test_k2_instance(self):
        from fnovikov import make_k2, K2Params

        n = 5
        lam = [1, 0, 0, 0, 2]
        mu = [0, 0, 1, 0, 0]
        gam = [2, 0, 0, 0, -1]
        A = make_k2(K2Params(n=n, lam=lam, mu=mu, gam=gam))
        _, k = max_rank_element(A, seed=2)
        assert k == 2

    def test_precondition(self):
        bad = Algebra.from_products(1, [(0, 0, 0, 1)])
        with pytest.raises(PreconditionError):
            max_rank_element(bad, seed=0)


class TestCanonicalBasis:
    def test_family1_dim2(self):
        A = make_family(1, 2)
        rep = canonical_basis(A, HYP2, basis_element(2, 0))
        assert rep.k == 1
        assert rep.pair_weights == [ONE]
        assert rep.signs == [1]
        assert rep.complement_diag == []
        assert rep.P == Mat.identity(2)

    def test_zero_algebra_complement_only(self):
        A = Algebra.zero(3)
        B = SymForm(Mat.diagonal([1, 1, -1]))
        rep = canonical_basis(A, B, [QQ(0)] * 3)
        assert rep.k == 0
        assert len(rep.complement_diag) == 3
        assert all(d != 0 for d in rep.complement_diag)

    def test_scramble_preserves_k(self):
        for variant in (1, 2, 3):
            A, B = family_with_form(variant, 4)
            x0, k = max_rank_element(A, seed=3)
            A2, B2, _ = scramble(A, B, seed=5)
            B2 = normalize_orientation(B2)
            x02, k2 = max_rank_element(A2, seed=3)
            assert k2 == k == canonical_basis(A2, B2, x02).k

    def test_rejects_bad_orientation(self):
        A = Algebra.zero(3)
        B = SymForm(Mat.diagonal([-1, -1, 1]))
        with pytest.raises(PreconditionError):
            canonical_basis(A, B, [QQ(0)] * 3)

    def test_rejects_noninvariant_form(self):
        A = make_family(1, 2)
        with pytest.raises(PreconditionError):
            canonical_basis(A, SymForm(Mat.identity(2)), basis_element(2, 0))


class TestVerifyStructure:
    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_families_all_claims(self, variant):
        A, B = family_with_form(variant, 4)
        x0, _ = max_rank_element(A, seed=1)
        rep = canonical_basis(A, B, x0)
        claims = verify_structure(A, B, rep)
        assert set(claims) == set(CLAIMS)
        assert all(claims.values()), claims

    def test_zero_algebra_vacuous(self):
        A = Algebra.zero(2)
        B = SymForm(Mat.identity(2))
        rep = canonical_basis(A, B, [QQ(0)] * 2)
        assert all(verify_structure(A, B, rep).values())

    def test_corrupted_report_detected(self):
        A, B = family_with_form(1, 3)
        x0, _ = max_rank_element(A, seed=1)
        rep = canonical_basis(A, B, x0)
        # swap two basis columns of P
        data = [row[:] for row in rep.P.data]
        for row in data:
            row[0], row[1] = row[1], row[0]
        rep.P = Mat(data)
        claims = verify_structure(A, B, rep)
        assert not claims["metric_canonical"] or not claims["rx0_canonical"]


class TestTheoremCheck:
    @pytest.mark.parametrize("variant", [1, 2, 3])
    @pytest.mark.parametrize("n", [3, 5])
    def test_families(self, variant, n):
        A, B = family_with_form(variant, n)
        assert theorem_check(A, B, seed=11)

    def test_zero_algebra(self):
        A = Algebra.zero(4)
        B = SymForm(Mat.diagonal([1, -1, 2, -3]))
        assert theorem_check(A, B, seed=0)

    def test_scrambled_instances(self):
        rnd = random.Random(6)
        for variant in (1, 2, 3):
            A, B = family_with_form(variant, 5)
            for _ in range(3):
                A2, B2, _ = scramble(A, B, rnd.randrange(2**30))
                assert theorem_check(A2, B2, seed=rnd.randrange(2**30))

    def test_precondition_on_nonfermionic(self):
        A = Algebra.from_products(1, [(0, 0, 0, 1)])
        with pytest.raises(PreconditionError):
            theorem_check(A, SymForm(Mat.identity(1)), seed=0)
