import dataclasses
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from fnovikov import (
    Algebra,
    CLAIMS,
    CanonError,
    DegenerateFormError,
    Mat,
    PreconditionError,
    SymForm,
    basis_element,
    canonical_basis,
    canonicalize,
    find_nondegenerate,
    generate_corpus,
    generic_rank,
    invariant_form_space,
    k2_condition,
    make_family,
    make_k2,
    max_rank_element,
    normalize_orientation,
    random_k2,
    rank,
    scramble,
    serialize,
    theorem_check,
    verify_structure,
)
from fnovikov import canon
from fnovikov.cli import main as cli_main
from fnovikov.exactlin import scale_vector
from fnovikov.scalars import QQ, ONE

from test_exactlin import congruent
from test_integer_kernel import as_fractions, planes_sum, ref_right_op


HYP2 = SymForm(Mat([[0, 1], [1, 0]]))


def fraction_inverse(rows):
    """The inverse of a nonsingular square matrix by plain Gauss-Jordan."""
    n = len(rows)
    a = [list(row) + [QQ(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        piv = next(i for i in range(c, n) if a[i][c])
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                a[i] = [x - a[i][c] * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def family_with_form(variant, n, seed=0):
    A = make_family(variant, n)
    B = normalize_orientation(find_nondegenerate(invariant_form_space(A), seed=seed))
    return A, B


class TestRightPencil:
    def test_family3_generic_rank(self):
        # only the third basis direction acts nontrivially
        assert generic_rank(make_family(3, 3).right_pencil()) == 1

    def test_matches_right_ops(self):
        # the pencil holds the rows of R_x at the pivots of AA only
        A = make_family(2, 3)
        pencil = A.right_pencil()
        x = [2, -1, 3]
        assert A.derived_pivots() == [1]
        assert pencil.eval(x) == [ref_right_op(A, x)[1]]

    def test_matches_right_ops_rational(self):
        # the pencil holds the integer-scaled constants: its value at x is
        # den * R_x at the pivot rows, with den the denominator of the
        # integer tensor
        A, _, _ = scramble(make_family(2, 3), None, 4)
        assert any(x.denominator > 1 for row in as_fractions(A) for vec in row for x in vec)
        _, den = A.int_tensor()
        assert den > 1
        for x in ([2, -1, 3], [0, 5, -7]):
            values = A.right_pencil().eval(x)
            assert all(isinstance(v, int) for row in values for v in row)
            R = ref_right_op(A, x)
            assert values == [[den * v for v in R[m]] for m in A.derived_pivots()]
            assert rank(Mat(R)) == rank(Mat(values))


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
        assert rank(Mat(ref_right_op(A, x0))) == 1

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
        assert rep.pair_weights == [(1, 1)]
        assert rep.complement_diag == []
        assert rep.P == [([1, 0], 1), ([0, 1], 1)]

    def test_x0_of_wrong_length_refused(self):
        for x0 in ([ONE], [ONE, ONE, ONE]):
            with pytest.raises(PreconditionError, match="^dimension mismatch$"):
                canonical_basis(make_family(1, 2), HYP2, x0)

    def test_zero_algebra_complement_only(self):
        A = Algebra.zero(3)
        B = SymForm(Mat.diagonal([1, 1, -1]))
        rep = canonical_basis(A, B, [QQ(0)] * 3)
        assert rep.k == 0
        assert len(rep.complement_diag) == 3
        assert all(c != 0 for c, _ in rep.complement_diag)

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

    def test_rejects_degenerate_form(self):
        # the zero algebra leaves every form invariant, so only the
        # signature refuses diag(1, 1, 0)
        with pytest.raises(PreconditionError, match="form must be nondegenerate"):
            canonical_basis(Algebra.zero(3), SymForm(Mat.diagonal([1, 1, 0])), [QQ(0)] * 3)

    def test_rejects_noninvariant_form(self):
        A = make_family(1, 2)
        with pytest.raises(PreconditionError):
            canonical_basis(A, SymForm(Mat.identity(2)), basis_element(2, 0))

    def test_singular_basis_change(self, monkeypatch):
        # a complement vector inside span(u_1, w_1) makes P singular; the
        # reduction of P's columns in transport_columns fails, and that
        # surfaces as CanonError
        A, B = family_with_form(1, 3)
        x0, k = max_rank_element(A, seed=1)
        assert (A.dim, k) == (3, 1)
        Binv = fraction_inverse(B.matrix.data)
        real = canon.rref_kernel

        def complement_in_span(z, pivots, cols):
            # the kernel of R_{x0} has one pivot, the complement's two
            if len(pivots) < 2:
                return real(z, pivots, cols)
            # z's rows span B u_1 and B w_1, so v_0, v_1 = Binv z span the
            # hyperbolic plane span(u_1, w_1): v_0, v_1 or v_0 + v_1 pairs
            # with itself to a nonzero value, so the complement metric check
            # passes
            v0, v1 = ([sum(b * x for b, x in zip(brow, row)) for brow in Binv] for row in z)
            v = next(v for v in (v0, v1, [a + b for a, b in zip(v0, v1)])
                     if not congruent(Mat([[x] for x in v]), B.matrix).is_zero_matrix)
            return [scale_vector(v)]

        monkeypatch.setattr(canon, "rref_kernel", complement_in_span)
        with pytest.raises(CanonError, match="basis change is singular"):
            canonical_basis(A, B, x0)

    def test_complement_not_orthogonal_is_refused(self, monkeypatch):
        # a complement vector v + x with x in span(u_1, w_1) leaves P
        # nonsingular, but P^T B P is then not the canonical metric, so
        # Pinv is not G^-1 P^T B; it is refused before any claim is read
        A, B = family_with_form(1, 3)
        x0, _ = max_rank_element(A, seed=1)
        Binv = fraction_inverse(B.matrix.data)
        real = canon.rref_kernel

        def shifted(z, pivots, cols):
            ker = real(z, pivots, cols)
            if len(pivots) < 2:
                return ker
            # the vectors Binv z_r span span(u_1, w_1); v + x must pair with
            # itself to a nonzero value, so the complement metric check
            # passes, and with it P keeps full rank
            (v, d), = ker
            plane = [[sum(b * t for b, t in zip(brow, row)) for brow in Binv] for row in z]
            for x in plane:
                y = [QQ(a, d) + b for a, b in zip(v, x)]
                if not congruent(Mat([[t] for t in y]), B.matrix).is_zero_matrix:
                    assert rank(Mat(plane + [y])) == cols
                    return [scale_vector(y)]

        read = []
        monkeypatch.setattr(canon, "rref_kernel", shifted)
        monkeypatch.setattr(canon, "_read_claims", lambda *a: read.append(a))
        with pytest.raises(CanonError, match="basis change is singular"):
            canonical_basis(A, B, x0)
        assert not read

    def test_kernel_orthogonality_is_checked(self, monkeypatch):
        # Im R is orthogonal to Ker R when every B w_j lies in the row space
        # of R, which one reduction of [R's reduced rows; B w] decides:
        # B w_1 shifted by a unit row at a column where R's one reduced row
        # is 0 leaves that row space, which the check must see
        A, B = family_with_form(2, 4)
        x0, _ = max_rank_element(A, seed=1)
        real = canon.rref
        checks = []

        def skewed(rows, cols):
            rows = list(rows)
            if len(rows) == 2 and not checks:
                checks.append(rows)
                (r,), bw = rows[:1], rows[1]
                t = r.index(0)
                rows[1] = [x + (c == t) for c, x in enumerate(bw)]
            return real(rows, cols)

        monkeypatch.setattr(canon, "rref", skewed)
        with pytest.raises(CanonError, match="not orthogonal to Ker"):
            canonical_basis(A, B, x0)
        # the reduction read R's reduced row, then B w_1
        (reduced, bw), = checks
        assert reduced == real(canon._int_right_op(A, x0)[0], 4)[0][0] and any(bw)


class TestVerifyStructure:
    @pytest.mark.parametrize("variant", [1, 2, 3])
    def test_families_all_claims(self, variant):
        A, B = family_with_form(variant, 4)
        x0, _ = max_rank_element(A, seed=1)
        rep = canonical_basis(A, B, x0)
        claims = verify_structure(A, B, rep)
        assert list(claims) == list(CLAIMS)
        assert all(claims.values()), claims
        assert claims == rep.claims

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
        rep.P = [rep.P[1], rep.P[0], *rep.P[2:]]
        claims = verify_structure(A, B, rep)
        assert not claims["metric_canonical"] or not claims["rx0_canonical"]

    def test_recheck_transports_again(self, monkeypatch):
        # verify_structure always transports rep.P again, so equal inputs
        # in other objects verify, and its claims are the report's
        A, B = family_with_form(2, 4)
        x0, k = max_rank_element(A, seed=1)
        assert k == 1
        rep = canonical_basis(A, B, x0)
        transports = []
        real = canon.transport_columns
        monkeypatch.setattr(canon, "transport_columns", lambda *a: transports.append(a) or real(*a))
        cases = [
            (A, B, rep),
            (Algebra(A.dim, as_fractions(A)), B, rep),
            (A, SymForm(Mat(B.matrix.data)), rep),
            (A, B, dataclasses.replace(rep, P=[(list(v), d) for v, d in rep.P])),
        ]
        for i, (A2, B2, rep2) in enumerate(cases):
            assert verify_structure(A2, B2, rep2) == rep.claims
            assert len(transports) == 1 + i

    def test_recheck_reads_the_report(self):
        A, B = family_with_form(2, 4)
        x0, _ = max_rank_element(A, seed=1)
        rep = canonical_basis(A, B, x0)
        # another form is read in the basis P, not taken from the report
        twice = SymForm(Mat([[2 * x for x in row] for row in B.matrix.data]))
        assert not verify_structure(A, twice, rep)["metric_canonical"]
        # the Jordan form is checked for the report's x0 and k
        rep.x0[:] = [0] * 4
        assert not verify_structure(A, B, rep)["rx0_canonical"]
        rep.x0[:] = x0
        assert verify_structure(A, B, rep)["rx0_canonical"]
        # k comes with its k pair weights, as a report of rank 0 has none
        rep = dataclasses.replace(rep, k=0, pair_weights=[])
        assert not verify_structure(A, B, rep)["rx0_canonical"]

    @pytest.mark.parametrize("case", [
        "P_not_square", "P_singular", "x0_too_short", "k_above_weights", "weights_above_k",
        "k_above_half", "column_too_short", "column_too_long", "column_zero_den",
        "column_negative_den", "weight_zero_den", "complement_zero_den",
    ])
    def test_malformed_report_refused(self, case):
        # a report whose shape does not fit the algebra is refused by name,
        # never by a ValueError of the transport or the pencil, nor by an
        # IndexError while the claims are read; nor, as its integer fields
        # can hold a zero denominator where a Fraction cannot, by a
        # ZeroDivisionError or a verdict
        A, B = family_with_form(2, 4)
        rep = canonical_basis(A, B, max_rank_element(A, seed=1)[0])
        assert rep.k == 1 and len(rep.complement_diag) == 2
        (v, d), *rest = rep.P
        (w, _), = rep.pair_weights
        (c, _), *cs = rep.complement_diag
        bad = {
            "P_not_square": dict(P=rep.P[:3]),
            # P's second column replaced by its first
            "P_singular": dict(P=[rep.P[0], rep.P[0], *rep.P[2:]]),
            "x0_too_short": dict(x0=rep.x0[:3]),
            "k_above_weights": dict(k=2),
            "weights_above_k": dict(pair_weights=rep.pair_weights * 2),
            "k_above_half": dict(k=3, pair_weights=rep.pair_weights * 3),
            "column_too_short": dict(P=[(v[:-1], d), *rest]),
            "column_too_long": dict(P=[(v + [1], d), *rest]),
            "column_zero_den": dict(P=[(v, 0), *rest]),
            "column_negative_den": dict(P=[(v, -d), *rest]),
            "weight_zero_den": dict(pair_weights=[(w, 0)]),
            "complement_zero_den": dict(complement_diag=[(c, 0), *cs]),
        }[case]
        with pytest.raises(PreconditionError, match="report/algebra mismatch"):
            verify_structure(A, B, dataclasses.replace(rep, **bad))


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

    def test_nonfermionic_wins_over_degenerate_form(self):
        # the anticommutation check runs before the form is normalized, so
        # a degenerate form does not mask it with a DegenerateFormError
        A = Algebra.from_products(1, [(0, 0, 0, 1)])
        with pytest.raises(PreconditionError):
            theorem_check(A, SymForm(Mat([[0]])), seed=0)

    def test_form_of_another_dimension_refused_first(self):
        # the dimension is checked before the signature is read, so a
        # degenerate form of another dimension is refused for its size,
        # and canonicalize, theorem_check and canonical_basis agree
        A, B = make_family(1, 3), SymForm.from_ints([[1, 0], [0, 0]], 1)
        for run in (lambda: canonicalize(A, B, seed=0), lambda: theorem_check(A, B, seed=0),
                    lambda: canonical_basis(A, B, [0, 0, 0])):
            with pytest.raises(PreconditionError, match="dimension mismatch"):
                run()
        assert B._signature is None

    def test_degenerate_form_refused_by_each_entry_point(self, tmp_path, capsys):
        # a degenerate form of A's dimension: canonicalize and theorem_check
        # normalize its orientation first, which raises DegenerateFormError,
        # a ValueError but no PreconditionError, and canon exits 2 on it;
        # canonical_basis takes the form as it is and raises
        # PreconditionError
        A, B = make_family(1, 2), SymForm.from_ints([[1, 0], [0, 0]], 1)
        for run in (lambda: canonicalize(A, B, seed=0), lambda: theorem_check(A, B, seed=0)):
            with pytest.raises(DegenerateFormError) as err:
                run()
            assert not isinstance(err.value, PreconditionError)
        with pytest.raises(PreconditionError, match="form must be nondegenerate"):
            canonical_basis(A, B, [0, 0])
        path = tmp_path / "degenerate.json"
        path.write_text(serialize(A, form=B))
        assert cli_main(["canon", "--input", str(path)]) == 2
        capsys.readouterr()

    def test_precondition_on_noninvariant_form(self):
        with pytest.raises(PreconditionError, match="form must be invariant"):
            theorem_check(make_family(1, 2), SymForm(Mat.identity(2)), seed=0)

    def test_derived_dim_must_equal_k(self, monkeypatch):
        # every claim holds, and only the count dim AA = k fails
        A, B = family_with_form(2, 4)
        bases = []
        real_build_basis = canon._build_basis
        monkeypatch.setattr(
            canon, "_build_basis", lambda *a: bases.append(real_build_basis(*a)) or bases[-1]
        )
        real_derived_dim = Algebra.derived_dim
        monkeypatch.setattr(Algebra, "derived_dim", lambda self: real_derived_dim(self) + 1)
        assert not theorem_check(A, B, seed=1)
        assert len(bases) == 1 and all(bases[0].claims.values())

    def test_builds_no_rational(self, monkeypatch):
        # the verdict is read on the integer construction: no Fraction is
        # built and no Mat, by theorem_check or by canonicalize, whose
        # report holds the construction's integers; the verdict is the
        # report's
        rnd = random.Random(27)
        corpus = [(A, B, rnd.randrange(2**30)) for _, A, B in generate_corpus(2024, 30)]
        expected = []
        for A, B, seed in corpus:
            rep = canonicalize(A, B, seed)
            expected.append(all(rep.claims.values()) and A.derived_dim() == rep.k)
        assert all(expected)
        calls = []
        real_raw, real_new = Mat._raw, Fraction.__new__
        monkeypatch.setattr(Mat, "_raw", classmethod(lambda cls, *a: calls.append(a) or real_raw(*a)))
        monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **kw: calls.append(a) or real_new(cls, *a, **kw))
        got = [theorem_check(A, B, seed) for A, B, seed in corpus]
        reports = [canonicalize(A, B, seed) for A, B, seed in corpus]
        monkeypatch.undo()
        assert calls == []
        assert got == expected
        assert [not canon.failed_conclusions(A, rep.k, rep.claims)
                for (A, _, _), rep in zip(corpus, reports)] == got

    def test_noninvariant_form_refused_before_the_rank_search(self, monkeypatch):
        # four scrambled copies of A3 (e3 e1 = -e2, e3 e3 = -e1), dim 12:
        # every specialization of the right pencil is singular, so ranking
        # it falls back to the symbolic generic_rank, which had not
        # finished after 20 s.  The identity form is not invariant, and
        # is_invariant decides that in well under a millisecond
        m = 4
        n = 3 * m
        A3s = Algebra.from_products(n, [p for c in range(m) for p in (
            (3 * c + 2, 3 * c, 3 * c + 1, -1), (3 * c + 2, 3 * c + 2, 3 * c, -1))])
        A, _, _ = scramble(A3s, None, 3)
        identity = SymForm.from_ints([[int(i == j) for j in range(n)] for i in range(n)], 1)
        start = time.perf_counter()
        with pytest.raises(PreconditionError, match="form must be invariant"):
            canonicalize(A, identity, 0)
        assert time.perf_counter() - start < 1.0
        # x0 is never searched for
        monkeypatch.setattr(canon, "max_rank_element", None)
        with pytest.raises(PreconditionError, match="form must be invariant"):
            canonicalize(A, identity, 0)

    def test_form_checked_once(self, monkeypatch):
        # canonicalize checks the form before the rank search and builds
        # the basis without checking it again
        calls = []
        real = canon.is_invariant
        monkeypatch.setattr(canon, "is_invariant", lambda A, B: calls.append(B) or real(A, B))
        A, B = family_with_form(2, 4)
        assert all(canonicalize(A, B, 1).claims.values())
        assert len(calls) == 1
        canonical_basis(A, normalize_orientation(B), max_rank_element(A, 1)[0])
        assert len(calls) == 2

    def test_dimension_zero(self):
        # the 0x0 form is nondegenerate: with no form given, canonicalize
        # takes it, and the report equals the one for the explicit form
        A = Algebra.zero(0)
        assert invariant_form_space(A) == [] and find_nondegenerate([], 0) is None
        rep = canonicalize(A, None, 0)
        assert rep.k == 0 and rep.x0 == [] and all(rep.claims.values())
        assert rep == canonicalize(A, SymForm(Mat.zeros(0, 0)), 0)
        assert theorem_check(A, SymForm.from_ints([], 1), seed=0)

    def test_form_is_required(self):
        # only `fnovikov canon` searches for a form when none is given
        with pytest.raises(PreconditionError, match="a form is required"):
            theorem_check(make_family(2, 4), None, seed=0)


class TestHighDimension:
    def test_dim24_k2_theorem_check_time(self):
        # one scrambled dim-24 k2 instance, the first k2 draw of
        # random.Random(1) with the seed-1 form and scramble: its
        # theorem_check took 0.208, 0.251, 0.281, 0.296 and 0.300 s
        # (median 0.281 s) on a 2-vCPU Xeon under Python 3.11.7; the bound
        # is 3x that median, rounded up to the second
        rnd = random.Random(1)
        while True:
            A = make_k2(random_k2(rnd, 24))
            if k2_condition(A):
                break
        B = find_nondegenerate(invariant_form_space(A), seed=1)
        A, B, _ = scramble(A, B, 1)
        assert A.derived_dim() == 2
        start = time.perf_counter()
        assert theorem_check(A, B, seed=1)
        assert time.perf_counter() - start < 1.0

    def test_dim16_half_rank_theorem_check_time(self):
        # the sum of eight planes e_{2b} e_{2b} = e_{2b+1}, k = 8 = n/2, with
        # its hyperbolic form, scrambled with seed 3: its theorem_check took
        # a median of 0.105 s over 5 runs, each on a fresh Algebra, on a
        # 2-vCPU Xeon under Python 3.11.7; the bound is 3x that median,
        # rounded up to the second
        n = 16
        B = SymForm.from_ints([[int(i ^ 1 == j) for j in range(n)] for i in range(n)], 1)
        A, B, _ = scramble(planes_sum(n // 2), B, 3)
        assert A.derived_dim() == 8
        start = time.perf_counter()
        assert theorem_check(A, B, seed=1)
        assert time.perf_counter() - start < 1.0

    def test_dim16_half_rank_form_space_time(self):
        # the sum of eight planes, k = 8 = n/2, scrambled with seed 3, with
        # no form: invariant_form_space on a fresh Algebra reduces 960
        # equations, of which 868 reduce to zero, to 44 members; it took
        # 0.249, 0.284, 0.314, 0.326 and 0.363 s (median 0.314 s) on a
        # 2-vCPU Xeon under Python 3.11.7; the bound is 3x that median,
        # rounded up to the second
        A, _, _ = scramble(planes_sum(8), None, 3)
        A = Algebra.from_ints(*A.int_tensor())
        start = time.perf_counter()
        space = invariant_form_space(A)
        assert time.perf_counter() - start < 1.0
        assert len(space) == 44

    def test_dim32_half_rank_identities_time(self):
        # the sum of sixteen planes, k = 16 = n/2, scrambled with seed 3:
        # identities() on a fresh Algebra, which decides (AA)A = 0 and then
        # the commuting left multiplications, took 0.128, 0.129, 0.129,
        # 0.130 and 0.131 s (median 0.129 s) on a 2-vCPU Xeon under Python
        # 3.11.7, where the two general passes took 2.8 s; the bound is 3x
        # that median, rounded up to the second
        A, _, _ = scramble(planes_sum(16), None, 3)
        A = Algebra.from_ints(*A.int_tensor())
        start = time.perf_counter()
        assert A.identities() == (True, True, True)
        assert time.perf_counter() - start < 1.0
        assert A.derived_dim() == 16


class TestScrambleInvariance:
    @given(
        kind=st.sampled_from(["family1", "family2", "family3", "k2"]),
        n=st.integers(2, 5),
        draw_seed=st.integers(0, 2**30),
        scramble_seed=st.integers(0, 2**30),
        seed=st.integers(0, 2**30),
    )
    @settings(max_examples=25, deadline=None)
    def test_scramble_keeps_invariants(self, kind, n, draw_seed, scramble_seed, seed):
        # a corpus instance, built as generate_corpus builds one, and a
        # further scramble of it agree on every basis-free quantity
        rnd = random.Random(draw_seed)
        if kind == "k2":
            A = make_k2(random_k2(rnd, 5))
            assume(k2_condition(A))
        else:
            assume(kind != "family3" or n >= 3)
            A = make_family(int(kind[-1]), n)
        B = find_nondegenerate(invariant_form_space(A), seed=rnd.randrange(2**30))
        assume(B is not None)
        A, B, _ = scramble(A, B, rnd.randrange(2**30))
        A2, B2, _ = scramble(A, B, scramble_seed)

        def invariants(A, B):
            return (
                A.derived_dim(),
                max_rank_element(A, seed)[1],
                B.signature(),
                len(invariant_form_space(A)),
                theorem_check(A, B, seed),
            )

        got = invariants(A, B)
        assert got[-1] is True
        assert invariants(A2, B2) == got
