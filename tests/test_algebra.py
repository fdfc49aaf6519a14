import random
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest

from fnovikov import (
    Algebra,
    DimensionMismatchError,
    basis_element,
    check_fermionic,
    check_left_symmetric,
    check_novikov,
    commutator_check,
    make_family,
    scramble,
    search_breaking_mutation,
    search_fermionic_not_novikov,
    zero_element,
)
from fnovikov.scalars import QQ

from test_integer_kernel import as_fractions, ref_right_ops, to_sympy


def e(n, i):
    return basis_element(n, i)


def idempotent_line():
    return Algebra.from_products(1, [(0, 0, 0, 1)])


class TestMultiply:
    def test_family1(self):
        A = make_family(1, 2)
        assert A.multiply(e(2, 0), e(2, 0)) == e(2, 1)

    def test_zero_algebra(self):
        A = Algebra.zero(3)
        assert A.multiply([1, 2, 3], [4, 5, 6]) == zero_element(3)

    def test_family2_one_sided(self):
        A = make_family(2, 2)
        assert A.multiply(e(2, 0), e(2, 1)) == e(2, 1)
        assert A.multiply(e(2, 1), e(2, 0)) == zero_element(2)

    def test_tensor_of_wrong_shape(self):
        z = [0, 0]
        for c in ([[z, z]], [[z, z], [z]], [[z, z], [z, [0]]], [[z, z], [z, [0, 0, 0]]], [[z, z, z], [z, z]]):
            with pytest.raises(ValueError, match="^structure tensor must be dim x dim x dim$"):
                Algebra(2, c)

    def test_dim_mismatch(self):
        A = Algebra.zero(2)
        with pytest.raises(DimensionMismatchError):
            A.multiply([1], [1, 2])


class TestOperators:
    # the right pencil, the one table of the R_x, holds the rows of R_x at
    # the pivots of AA
    def test_family1_right_op(self):
        A = make_family(1, 2)
        assert A.derived_pivots() == [1]
        assert A.right_pencil().eval(e(2, 0)) == [[1, 0]]

    def test_right_op_zero(self):
        A = make_family(1, 3)
        assert A.right_pencil().eval([0] * 3) == [[0, 0, 0]]

    def test_ops_match_products(self):
        rnd = random.Random(0)
        A = make_family(2, 4)
        pencil, rows = A.right_pencil(), A.derived_pivots()
        for _ in range(10):
            x = [rnd.randint(-3, 3) for _ in range(4)]
            y = [QQ(rnd.randint(-3, 3)) for _ in range(4)]
            xy = A.multiply(y, x)
            assert [sum(map(mul, row, y)) for row in pencil.eval(x)] == [xy[m] for m in rows]
            assert all(xy[m] == 0 for m in range(4) if m not in rows)


class TestIdentities:
    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_families(self, variant):
        A = make_family(variant, max(3, variant))
        assert check_left_symmetric(A)
        assert check_fermionic(A)
        assert check_novikov(A)

    def test_idempotent_line(self):
        A = idempotent_line()
        assert check_left_symmetric(A)
        assert not check_fermionic(A)

    def test_zero_algebra(self):
        A = Algebra.zero(3)
        assert check_left_symmetric(A)
        assert check_fermionic(A)
        assert check_novikov(A)

    def test_empty_algebra(self):
        A = Algebra.zero(0)
        assert check_left_symmetric(A)
        assert check_fermionic(A)
        assert check_novikov(A)
        assert commutator_check(A)

    def test_fermionic_implies_square_zero(self):
        for variant in (1, 2, 3):
            A = make_family(variant, 4)
            for R in map(to_sympy, ref_right_ops(A)):
                assert (R * R).is_zero_matrix

    def test_basis_triples_suffice(self):
        # randomized full-element cross-check of the left-symmetry identity
        rnd = random.Random(1)
        A = make_family(3, 4)
        assert check_left_symmetric(A)
        for _ in range(25):
            x, y, z = (
                [QQ(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in range(4)]
                for _ in range(3)
            )
            lhs = [
                u - v
                for u, v in zip(
                    A.multiply(A.multiply(x, y), z),
                    A.multiply(x, A.multiply(y, z)),
                )
            ]
            rhs = [
                u - v
                for u, v in zip(
                    A.multiply(A.multiply(y, x), z),
                    A.multiply(y, A.multiply(x, z)),
                )
            ]
            assert lhs == rhs

    def test_checks_invariant_under_basis_change(self):
        for variant in (1, 2, 3):
            A = make_family(variant, 4)
            for seed in range(5):
                A2, _, _ = scramble(A, None, seed)
                assert check_left_symmetric(A2)
                assert check_fermionic(A2)
                assert check_novikov(A2)


class TestCommutator:
    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_families(self, variant):
        assert commutator_check(make_family(variant, 4))

    def test_jacobi_failure(self):
        # e1 e2 = e1, e1 e3 = e2: the Jacobi sum at (e1, e2, e3) is e2
        A = Algebra.from_products(3, [(0, 1, 0, 1), (0, 2, 1, 1)])
        assert A.multiply(e(3, 0), e(3, 1)) == e(3, 0) and A.multiply(e(3, 0), e(3, 2)) == e(3, 1)
        assert not commutator_check(A)
        assert not commutator_check(scramble(A, None, 3)[0])

    def test_matches_jacobi_oracle(self):
        # the bracket [x, y] = xy - yx built from multiply, on random sparse
        # integer tensors over a random denominator, dims 0-4
        def bracket(A, x, y):
            return [a - b for a, b in zip(A.multiply(x, y), A.multiply(y, x))]

        def ref_jacobi(A):
            n = A.dim
            for i, j, k in combinations(range(n), 3):
                x, y, z = e(n, i), e(n, j), e(n, k)
                terms = (bracket(A, bracket(A, x, y), z), bracket(A, bracket(A, y, z), x),
                         bracket(A, bracket(A, z, x), y))
                if any(map(sum, zip(*terms))):
                    return False
            return True

        rnd = random.Random(0)
        verdicts = []
        for _ in range(250):
            n, p = rnd.randint(0, 4), rnd.choice((0.05, 0.15, 0.4))
            C = [[[rnd.randint(-2, 2) if rnd.random() < p else 0 for _ in range(n)]
                  for _ in range(n)] for _ in range(n)]
            A = Algebra.from_ints(C, rnd.randint(1, 3))
            verdicts.append((n, commutator_check(A)))
            assert verdicts[-1][1] == ref_jacobi(A)
        assert sum(not ok for _, ok in verdicts) >= 50
        assert sum(ok for n, ok in verdicts if n >= 3) >= 30

    def test_builds_no_rational(self, monkeypatch):
        # the identity is read on the integer tensor
        cases = [scramble(make_family(v, 4), None, 3)[0] for v in (1, 2, 3)]
        cases.append(Algebra.from_products(3, [(0, 1, 0, QQ(1, 2)), (0, 2, 1, 1)]))
        calls = []
        real_new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **kw: calls.append(a) or real_new(cls, *a, **kw))
        got = [commutator_check(A) for A in cases]
        monkeypatch.undo()
        assert calls == []
        assert got == [True, True, True, False]

    def test_family1_commutator_is_zero(self):
        c = as_fractions(make_family(1, 3))
        for i in range(3):
            for j in range(3):
                assert c[i][j] == c[j][i]


class TestDerivedDim:
    def test_zero(self):
        assert Algebra.zero(4).derived_dim() == 0

    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_k1_families(self, variant):
        assert make_family(variant, 5).derived_dim() == 1


class TestSearches:
    def test_mutation_breaks_family2(self):
        found = search_breaking_mutation(make_family(2, 2))
        assert found is not None
        i, j, m, value, mutated = found
        assert not (
            check_left_symmetric(mutated)
            and check_fermionic(mutated)
            and check_novikov(mutated)
        )

    def test_scaling_c122_never_breaks_left_symmetry(self):
        # the obvious one-entry target is actually identity-preserving:
        # rescaling the single product of the one-sided family keeps (1.1)
        for v in (-2, -1, 0, 2, 5):
            A = Algebra.from_products(2, [(0, 1, 1, v)])
            assert check_left_symmetric(A)

    def test_fermionic_not_novikov_witness(self):
        A = next(search_fermionic_not_novikov())
        assert check_fermionic(A)
        assert check_left_symmetric(A)
        assert not check_novikov(A)
        assert A.dim == 4
