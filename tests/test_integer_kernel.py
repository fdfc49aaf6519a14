"""Differential tests of the integer-scaled kernels against plain Fraction
references (and sympy for products), and of the certified ranks against
the symbolic generic rank."""

import itertools
import random
from fractions import Fraction

import pytest

from fnovikov import (
    Algebra,
    Mat,
    Poly,
    PolyMat,
    SymForm,
    check_fermionic,
    check_left_symmetric,
    check_novikov,
    det,
    find_nondegenerate,
    generate_corpus,
    generic_rank,
    inverse,
    invariant_form_space,
    is_invariant,
    k2_condition,
    kernel_basis,
    make_family,
    make_k2,
    max_rank_element,
    random_k2,
    rank,
    right_pencil,
    scramble,
    search_fermionic_not_novikov,
)
from fnovikov import canon, exactlin, forms
from fnovikov.exactlin import poly_divexact
from fnovikov.scalars import QQ


# ---------------------------------------------------------------------------
# plain Fraction references: the defining sums, term by term


def as_fractions(A):
    return [[[Fraction(str(x)) for x in vec] for vec in row] for row in A.c]


def ref_right_op(A, x):
    n = A.dim
    c = as_fractions(A)
    return [
        [sum((Fraction(str(x[j])) * c[i][j][m] for j in range(n)), Fraction(0))
         for i in range(n)]
        for m in range(n)
    ]


def ref_left_symmetric(A):
    n = A.dim
    c = as_fractions(A)
    for i, j, k, m in itertools.product(range(n), repeat=4):
        lhs = sum(c[i][j][t] * c[t][k][m] - c[j][k][t] * c[i][t][m] for t in range(n))
        rhs = sum(c[j][i][t] * c[t][k][m] - c[i][k][t] * c[j][t][m] for t in range(n))
        if lhs != rhs:
            return False
    return True


def ref_right_products(A, sign):
    """R_i R_j + sign R_j R_i == 0 for all i, j, as (xy)z + sign (xz)y."""
    n = A.dim
    c = as_fractions(A)
    for i, j, k, m in itertools.product(range(n), repeat=4):
        xy_z = sum(c[i][j][t] * c[t][k][m] for t in range(n))
        xz_y = sum(c[i][k][t] * c[t][j][m] for t in range(n))
        if xy_z + sign * xz_y:
            return False
    return True


def ref_is_invariant(A, B):
    n = A.dim
    c = as_fractions(A)
    b = [[Fraction(str(x)) for x in row] for row in B.matrix.data]
    for j in range(n):
        # R^T B = B R with R[m][i] = c[i][j][m]
        for r, s in itertools.product(range(n), repeat=2):
            lhs = sum(c[r][j][t] * b[t][s] for t in range(n))
            rhs = sum(b[r][t] * c[s][j][t] for t in range(n))
            if lhs != rhs:
                return False
    return True


def rand_q(rnd):
    if rnd.random() < 0.3:
        return QQ(0)
    return QQ(rnd.randint(-7, 7), rnd.randint(1, 9))


def rand_mat(rnd, rows, cols):
    return Mat([[rand_q(rnd) for _ in range(cols)] for _ in range(rows)])


def rand_algebra(rnd, n, density=0.3):
    return Algebra(
        n,
        [[[rand_q(rnd) if rnd.random() < density else 0 for _ in range(n)]
          for _ in range(n)] for _ in range(n)],
    )


def witnesses(count):
    return list(itertools.islice(search_fermionic_not_novikov(), count))


def k2_instances(seed, count):
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        A = make_k2(random_k2(rnd, rnd.randint(5, 7)))
        if k2_condition(A):
            out.append(A)
    return out


def algebra_cases():
    """Algebras passing every identity, passing only some, and random ones
    (which fail), each also under a rational basis change."""
    rnd = random.Random(3)
    cases = [Algebra.zero(0), Algebra.zero(3)]
    cases += [make_family(v, n) for v in (1, 2, 3) for n in (3, 4)]
    cases += k2_instances(4, 2)
    cases += witnesses(3)
    cases += [rand_algebra(rnd, n) for n in (1, 2, 3, 4) for _ in range(3)]
    scrambled = []
    for i, A in enumerate(cases):
        if A.dim:
            A2, _, _ = scramble(A, None, i)
            # a rational basis change, so denominators differ per entry
            A3, _, _ = scramble(A2, None, 100 + i)
            scrambled.append(A3)
    return cases + scrambled


# ---------------------------------------------------------------------------
# products and right multiplications


def test_mat_mul_matches_sympy():
    sympy = pytest.importorskip("sympy")

    def to_sympy(M):
        return sympy.Matrix(M.rows, M.cols, [sympy.Rational(str(x)) for row in M.data for x in row])

    rnd = random.Random(11)
    shapes = [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1)]
    shapes += [(rnd.randint(1, 6), rnd.randint(1, 6), rnd.randint(1, 6)) for _ in range(60)]
    for r, k, c in shapes:
        X, Y = rand_mat(rnd, r, k), rand_mat(rnd, k, c)
        if r == 0 or k == 0:
            X = Mat([[0] * k for _ in range(r)], k)
        if k == 0 or c == 0:
            Y = Mat([[0] * c for _ in range(k)], c)
        got = X * Y
        assert (got.rows, got.cols) == (r, c)
        expected = to_sympy(X) * to_sympy(Y)
        assert [[sympy.Rational(str(x)) for x in row] for row in got.data] == [
            [expected[i, j] for j in range(c)] for i in range(r)
        ]
        assert all(isinstance(x, QQ) for row in got.data for x in row)


def test_right_op_matches_reference():
    rnd = random.Random(12)
    for A in algebra_cases():
        for _ in range(3):
            x = [rand_q(rnd) for _ in range(A.dim)]
            R = A.right_op(x)
            assert R.data == ref_right_op(A, x)
            assert all(isinstance(v, QQ) for row in R.data for v in row)
    assert Algebra.zero(0).right_op([]).data == []


# ---------------------------------------------------------------------------
# identity checks and invariance


def test_identity_checks_match_reference():
    verdicts = set()
    for A in algebra_cases():
        got = (check_left_symmetric(A), check_fermionic(A), check_novikov(A))
        assert got == (ref_left_symmetric(A), ref_right_products(A, 1), ref_right_products(A, -1))
        verdicts.add(got)
    # every identity is seen both passing and failing
    for t in range(3):
        assert {v[t] for v in verdicts} == {True, False}
    assert (True, True, False) in verdicts  # the witnesses


def test_single_mutations_match_reference():
    # one changed structure constant of an algebra passing all three
    rnd = random.Random(13)
    A, _, _ = scramble(make_family(2, 3), None, 5)
    for i, j, m in itertools.product(range(3), repeat=3):
        mutated = Algebra(3, A.c)
        mutated.c[i][j][m] += rand_q(rnd) or QQ(1, 2)
        assert check_left_symmetric(mutated) == ref_left_symmetric(mutated)
        assert check_fermionic(mutated) == ref_right_products(mutated, 1)
        assert check_novikov(mutated) == ref_right_products(mutated, -1)


def test_is_invariant_matches_reference():
    rnd = random.Random(14)
    seen = set()
    assert is_invariant(Algebra.zero(0), SymForm(Mat.zeros(0, 0)))
    for _, A, B in generate_corpus(7, 12):
        S = rand_mat(rnd, A.dim, A.dim)
        sym = SymForm(S + S.transpose())
        scaled = SymForm(B.matrix.scale(QQ(1, 3)))
        for form in (B, scaled, sym):
            got = is_invariant(A, form)
            assert got == ref_is_invariant(A, form)
            seen.add(got)
    for A in algebra_cases():
        for M in invariant_form_space(A)[:2]:
            assert is_invariant(A, SymForm(M)) and ref_is_invariant(A, SymForm(M))
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# elimination kernels


def test_rank_det_inverse_kernel_match_sympy():
    sympy = pytest.importorskip("sympy")
    rnd = random.Random(15)
    for _ in range(80):
        r, c = rnd.randint(1, 6), rnd.randint(1, 6)
        M = rand_mat(rnd, r, c)
        if rnd.random() < 0.4 and r > 1:
            # a dependent row
            f = rand_q(rnd)
            data = M.copy_data()
            data[-1] = [f * x + y for x, y in zip(data[0], data[1 % r])]
            M = Mat(data)
        S = sympy.Matrix(r, c, [sympy.Rational(str(x)) for row in M.data for x in row])
        assert rank(M) == S.rank()
        ker = kernel_basis(M)
        assert len(ker) == c - S.rank()
        assert all(not any(M.apply(v)) for v in ker)
        if r == c:
            assert det(M) == QQ(str(S.det()))
            if S.det() != 0:
                assert inverse(M) * M == Mat.identity(r)
    assert det(Mat.zeros(0, 0)) == 1


# ---------------------------------------------------------------------------
# certified ranks against the symbolic generic rank


def _count_generic_rank(monkeypatch, module):
    """Record every generic_rank call made from module, directly or through
    find_generic_point."""
    calls = []
    real = exactlin.generic_rank

    def counted(M):
        calls.append(M.nvars)
        return real(M)

    monkeypatch.setattr(module, "generic_rank", counted)
    monkeypatch.setattr(exactlin, "generic_rank", counted)
    return calls


@pytest.mark.parametrize(
    "A",
    [make_family(v, n) for v in (1, 2, 3) for n in (3, 5)] + k2_instances(21, 3),
)
def test_certificate_path_rank(A, monkeypatch):
    A, _, _ = scramble(A, None, 8)
    calls = _count_generic_rank(monkeypatch, canon)
    x0, k = max_rank_element(A, seed=2)
    assert calls == []  # certified: rank R_{x0} reached dim AA
    assert k == A.derived_dim() == generic_rank(right_pencil(A))
    assert rank(A.right_op(x0)) == k


def test_fallback_path_rank(monkeypatch):
    for i, W in enumerate(witnesses(4)):
        A, _, _ = scramble(W, None, i)
        calls = _count_generic_rank(monkeypatch, canon)
        x0, k = max_rank_element(A, seed=i)
        assert A.derived_dim() == 3 and k == 2
        assert calls == [A.dim]  # the symbolic rank, computed once
        assert k == generic_rank(right_pencil(A))
        assert rank(A.right_op(x0)) == k


def test_nondegenerate_form_certified_or_computed_once(monkeypatch):
    calls = _count_generic_rank(monkeypatch, forms)
    for v, n in ((1, 4), (2, 5), (3, 6)):
        B = find_nondegenerate(invariant_form_space(make_family(v, n)), seed=3)
        assert B is not None and B.is_nondegenerate()
    assert calls == []
    for W in witnesses(3):
        assert find_nondegenerate(invariant_form_space(W), seed=3) is None
    assert len(calls) == 3


def test_nondegenerate_form_without_certificate(monkeypatch):
    # diag(t1..t4) is singular whenever a coordinate is 0: pick a seed whose
    # first CERTIFY_ATTEMPTS points all have a zero coordinate, so the
    # symbolic rank must prove existence and find_generic_point picks the
    # point (the sweep is switched off)
    space = [Mat.diagonal([1 if i == t else 0 for i in range(4)]) for t in range(4)]
    seed = next(
        s for s in range(10**4)
        if all(0 in p for p in exactlin.sample_points(4, s, exactlin.CERTIFY_ATTEMPTS))
    )
    point = next(p for p in exactlin.sample_points(4, seed) if 0 not in p)
    calls = _count_generic_rank(monkeypatch, forms)
    B = find_nondegenerate(space, seed=seed, sweep_cap=0)
    assert calls == [4]
    assert B.matrix == Mat.diagonal(point)


# ---------------------------------------------------------------------------
# the symbolic generic rank and exact division over integer coefficients


def rand_poly(rnd, nv, degree=2):
    terms = {}
    for _ in range(rnd.randint(0, 3)):
        e = [0] * nv
        for _ in range(rnd.randint(0, degree)):
            e[rnd.randrange(nv)] += 1
        terms[tuple(e)] = QQ(rnd.randint(-5, 5), rnd.randint(1, 6))
    return Poly(nv, terms)


def sympy_generic_rank(M):
    """Rank over the fraction field, computed by sympy's domain matrices."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    t = sympy.symbols(f"t0:{M.nvars}")

    def expr(p):
        return sum(
            (sympy.Rational(str(c)) * sympy.prod([v**k for v, k in zip(t, e)])
             for e, c in p.terms.items()),
            sympy.Integer(0),
        )

    S = sympy.Matrix(M.rows, M.cols, [expr(p) for row in M.data for p in row])
    return DomainMatrix.from_Matrix(S).to_field().rank()


def test_generic_rank_matches_sympy():
    rnd = random.Random(31)
    seen = set()
    for case in range(60):
        nv, rows, cols = rnd.randint(1, 3), rnd.randint(1, 5), rnd.randint(1, 5)
        data = [[rand_poly(rnd, nv) for _ in range(cols)] for _ in range(rows)]
        if case % 10 == 0:
            data = [[Poly.zero(nv)] * cols for _ in range(rows)]
        elif case % 3 == 0 and rows > 2:
            # the last row a polynomial combination of the first two
            f, g = QQ(rnd.randint(1, 5), rnd.randint(2, 7)), Poly.var(nv, 0)
            data[-1] = [p * f + q * g for p, q in zip(data[0], data[1])]
        M = PolyMat(nv, data, cols)
        r = generic_rank(M)
        assert r == sympy_generic_rank(M)
        seen.add(r < min(rows, cols))
    assert seen == {True, False}  # both full and deficient ranks


def test_integer_exact_division():
    assert exactlin._divexact({(2, 0): 6, (1, 1): -4}, {(1, 0): 2}) == {(1, 0): 3, (0, 1): -2}
    assert exactlin._divexact({}, {(0, 1): 3}) == {}
    inexact = [
        ({(1, 0): 3}, {(1, 0): 2}),  # the coefficient leaves a remainder
        ({(0, 1): 1}, {(1, 0): 1}),  # a negative quotient exponent
        ({(2, 0): 1, (0, 0): 1}, {(1, 0): 1}),  # a remainder term
    ]
    for r, b in inexact:
        with pytest.raises(ValueError, match="inexact polynomial division"):
            exactlin._divexact(r, b)


def test_poly_divexact_rational_quotients():
    rnd = random.Random(32)
    t0, t1 = Poly.var(2, 0), Poly.var(2, 1)
    assert poly_divexact(t0, t0 * 2) == Poly.const(2, QQ(1, 2))
    for _ in range(40):
        p, q = rand_poly(rnd, 2), rand_poly(rnd, 2)
        if q.is_zero():
            continue
        quotient = poly_divexact(p * q, q)
        assert quotient == p
        assert all(isinstance(c, QQ) for c in quotient.terms.values())
    for a, b in [(t0 * QQ(1, 2) + Poly.const(2, QQ(1, 3)), t0 * 3), (t0 * t1 + t1, t1 * t1 * QQ(2, 5))]:
        with pytest.raises(ValueError, match="inexact polynomial division"):
            poly_divexact(a, b)


# ---------------------------------------------------------------------------
# the invariant-form stage against term-by-term Fraction references


def ref_rref_kernel(rows, cols):
    """Right kernel of Fraction rows by plain Gauss-Jordan, as one vector
    per free column: 1 there, minus the reduced entries at the pivots."""
    a = [row[:] for row in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][c]
        a[r] = [x / p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


def ref_form_space(A):
    """(space, equations): every entry (r, s) of R_j^T B - B R_j for every
    j, term by term over Fraction, and the symmetric matrices of its
    kernel in the unknowns b_{uv}, u <= v."""
    n = A.dim
    c = as_fractions(A)
    unknowns = [(u, v) for u in range(n) for v in range(u, n)]
    index = {uv: t for t, uv in enumerate(unknowns)}
    rows = []
    for j, r, s in itertools.product(range(n), repeat=3):
        row = [Fraction(0)] * len(unknowns)
        for t in range(n):
            row[index[tuple(sorted((t, s)))]] += c[r][j][t]
            row[index[tuple(sorted((r, t)))]] -= c[s][j][t]
        rows.append(row)
    space = []
    for vec in ref_rref_kernel(rows, len(unknowns)):
        B = [[Fraction(0)] * n for _ in range(n)]
        for (u, v), x in zip(unknowns, vec):
            B[u][v] = B[v][u] = x
        space.append(B)
    return space, rows


def form_cases():
    cases = [Algebra.zero(2)]
    cases += [make_family(v, n) for v in (1, 2, 3) for n in range(v + 1, 6)]
    cases += k2_instances(33, 2)
    cases += witnesses(4)
    return cases + [scramble(A, None, 40 + i)[0] for i, A in enumerate(cases)]


def test_invariant_form_space_matches_reference():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    for A in form_cases():
        space = invariant_form_space(A)
        ref, equations = ref_form_space(A)
        assert [M.data for M in space] == ref
        unknowns = A.dim * (A.dim + 1) // 2
        S = DomainMatrix.from_list_sympy(
            len(equations),
            unknowns,
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in equations],
        )
        assert len(space) == unknowns - S.to_field().rank()


def ref_det(rows):
    a = [row[:] for row in rows]
    n = len(a)
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = -d
        d *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return d


def ref_find_nondegenerate(space, seed, sweep_cap=12):
    """find_nondegenerate's search order over Fraction matrices, for spaces
    that hold a nondegenerate member: a certificate among the first
    points, then the {-1, 0, 1} sweep, then the first nonsingular point."""
    d, n = len(space), space[0].rows
    mats = [[[Fraction(str(x)) for x in row] for row in M.data] for M in space]

    def combine(coeffs):
        return [
            [sum((Fraction(str(k)) * M[r][s] for k, M in zip(coeffs, mats)), Fraction(0))
             for s in range(n)]
            for r in range(n)
        ]

    points = list(exactlin.sample_points(d, seed))
    if d <= sweep_cap:
        for support in range(1, d + 1):
            for idxs in itertools.combinations(range(d), support):
                for signs in itertools.product((1, -1), repeat=support):
                    coeffs = [0] * d
                    for t, sgn in zip(idxs, signs):
                        coeffs[t] = sgn
                    if ref_det(combine(coeffs)):
                        return combine(coeffs)
    return combine(next(p for p in points if ref_det(combine(p))))


def test_find_nondegenerate_matches_reference():
    cases = [make_family(v, n) for v in (1, 2, 3) for n in range(v + 1, 6)]
    cases += k2_instances(34, 2)
    for i, A in enumerate(cases):
        A, _, _ = scramble(A, None, 50 + i)
        space = invariant_form_space(A)
        for seed in range(3):
            expected = ref_find_nondegenerate(space, seed)
            assert find_nondegenerate(space, seed).matrix.data == expected
            no_sweep = ref_find_nondegenerate(space, seed, sweep_cap=0)
            assert find_nondegenerate(space, seed, sweep_cap=0).matrix.data == no_sweep


def test_no_nondegenerate_form_on_any_witness():
    for i, W in enumerate(search_fermionic_not_novikov()):
        A, _, _ = scramble(W, None, i)
        assert find_nondegenerate(invariant_form_space(A), seed=i) is None
    assert i + 1 == 210
