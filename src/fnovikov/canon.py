"""Canonicalization pipeline for square-zero self-adjoint right
multiplications, and the end-to-end theorem verifier.

Given an algebra with pairwise-anticommuting right multiplications and an
invariant nondegenerate symmetric form, pick a maximal-rank element x0,
build a basis in which R_{x0} is a sum of 2x2 nilpotent Jordan blocks and
the metric is hyperbolic pairs plus a diagonal complement, then check
every structural claim about a general right multiplication in that basis
down to R_x R_y = 0.

Over the rationals the hyperbolic pairs carry nonzero weights w_i rather
than being scaled to +-1 (that scaling needs real square roots); the signs
of the weights are recorded separately and every claim is weight-aware.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .scalars import QQ, ZERO, ONE
from .exactlin import (
    CERTIFY_ATTEMPTS,
    Mat,
    Pencil,
    _rref,
    congruent_diagonalize,
    find_generic_point,
    generic_rank,
    int_rank,
    lowest_terms,
    rref_kernel,
    sample_points,
    scale_columns,
    scale_vector,
)
from .algebra import (
    Algebra,
    _int_right_ops,
    check_fermionic,
    check_left_symmetric,
    check_novikov,
)
from .forms import (
    SymForm,
    find_nondegenerate,
    invariant_form_space,
    is_invariant,
    normalize_orientation,
)
from .classify import transport_columns


class PreconditionError(ValueError):
    pass


class CanonError(RuntimeError):
    """An internal claim failed that is impossible under the preconditions;
    signals corrupted input or an implementation bug."""


@dataclass
class CanonReport:
    """Everything the canonicalization produced.

    P's columns are ordered u_1, w_1, ..., u_k, w_k, then the orthogonal
    complement; pair_weights[i] is <u_i, w_i> and signs[i] its sign;
    complement_diag holds the diagonal metric entries of the complement;
    d_forms[j] is the k x k matrix of lower-left block entries of the
    leading 2k x 2k block of R_{e'_j} in the new basis.

    claims maps each name of CLAIMS to its truth value, as canonical_basis
    read it on the basis it built and transported; verify_structure reads
    the same claims again from the other fields.
    """

    x0: list
    k: int
    P: Mat
    pair_weights: list
    signs: list
    complement_diag: list
    d_forms: list
    claims: dict


def right_pencil(A: Algebra) -> Pencil:
    """The k x n pencil sum_j t_j R_{e_j} on the rows A.derived_pivots(),
    times the denominator of A.int_tensor().  Every R_x maps into AA, which
    projects injectively onto those rows, so the value at x has the rank of
    R_x, and the pencil the generic rank of the full n x n one."""
    C, _ = A.int_tensor()
    pivots = A.derived_pivots()
    return Pencil(_int_right_ops(C, pivots), len(pivots), A.dim)


def max_rank_element(A: Algebra, seed):
    """(x0, k): an integer element whose right multiplication attains the
    generic rank k of the right-multiplication pencil.

    Every R_x maps into AA, so k <= dim AA, and a sampled point whose
    rank reaches dim AA proves k without polynomial arithmetic.  The first
    CERTIFY_ATTEMPTS points of find_generic_point's seeded sequence are
    tried; only when none reaches dim AA is the symbolic generic_rank
    computed, and its value handed on as the target.  Either way x0 is the
    first point of that sequence of rank k, and k is maximal: on the
    certificate path no R_x can exceed dim AA, and on the fallback path no
    specialization of the pencil exceeds its generic rank.

    The right multiplications must anticommute, or PreconditionError is
    raised; the verdict is A's cached check_fermionic(A).
    """
    if not check_fermionic(A):
        raise PreconditionError("right multiplications must anticommute")
    n = A.dim
    k = A.derived_dim()
    if k == 0:
        return [0] * n, 0
    pencil = right_pencil(A)
    x0 = next(
        (x for x in sample_points(n, seed, CERTIFY_ATTEMPTS)
         if int_rank(pencil.eval(x), n) == k),
        None,
    )
    if x0 is None:
        k = generic_rank(pencil)
        x0 = find_generic_point(pencil, seed, target=k)
    return x0, k


def _canonical_metric(n, k, weights, comp_diag):
    """The entries that P^T B P must equal: hyperbolic pairs of the given
    weights, then the diagonal complement."""
    metric = Mat.zeros(n, n).copy_data()
    for i in range(k):
        metric[2 * i][2 * i + 1] = weights[i]
        metric[2 * i + 1][2 * i] = weights[i]
    for t, d in enumerate(comp_diag):
        metric[2 * k + t][2 * k + t] = d
    return metric


def _int_right_op(A: Algebra, x0):
    """(Rk, FT, den): R_{x0} = FT Rk / den, with F, L = A.derived_basis().

    Rk[a][t] is the entry at the pivot p_a of e_t x0, times x0's
    denominator and that of A.int_tensor(), and FT = F^T as n rows.  Every
    column of R_{x0} lies in AA, and F has full rank, so R_{x0} has Rk's
    row space, and R_{x0} v vanishes exactly when Rk v does."""
    pivots, F, L = A.derived_basis()
    C, dc = A.int_tensor()
    xv, dx = scale_vector(x0)
    Rk = [[sum(x * ctj[p] for x, ctj in zip(xv, Ct)) for Ct in C] for p in pivots]
    return Rk, [[f[m] for f in F] for m in range(A.dim)], dx * dc * L


def _reaches_jordan(Rk, FT, den, cols, k):
    """Whether R = FT Rk / den (see _int_right_op) maps column 2i of P to
    column 2i+1 for i < k and every other column to 0, i.e. R P = P J with
    J one 2x2 nilpotent Jordan block per pair.  cols are P's columns as
    (ints, den) pairs; the comparison runs on integers, one column at a
    time, through the k entries Rk v."""
    for j, (v, d) in enumerate(cols):
        lam = [sum(map(mul, row, v)) for row in Rk]
        if j < 2 * k and j % 2 == 0:
            w, dw = cols[j + 1]
            # R v / d == w / dw, with R v = FT lam / den
            s = den * d
            if any(sum(map(mul, fm, lam)) * dw != b * s for fm, b in zip(FT, w)):
                return False
        elif any(lam):
            return False
    return True


def canonical_basis(A: Algebra, B: SymForm, x0) -> CanonReport:
    """Build the canonical basis for R_{x0} and the metric; every
    intermediate claim is asserted, not assumed.

    R_{x0} enters as FT Rk / den (_int_right_op): its k rows Rk at the
    pivots of AA have its reduced form, pivots and kernel.  Every basis
    vector is built as integer numerators over its own denominator, an
    (ints, den) pair.  Rationals appear only at the boundary: the pairings
    that congruent_diagonalize takes and the coefficients it returns, the
    weights, and P's entries, built last for the report.

    P's integer columns are transported once (transport_columns), and
    every claim of CLAIMS is read on that transport."""
    n = A.dim
    if B.dim != n or len(x0) != n:
        raise PreconditionError("dimension mismatch")
    np_, nm, nz = B.signature()
    if nz:
        raise PreconditionError("form must be nondegenerate")
    if nm > np_:
        raise PreconditionError("orientation must satisfy p <= n - p")
    if not is_invariant(A, B):
        raise PreconditionError("form must be invariant")
    Rk, FT, den = _int_right_op(A, x0)
    Bi, db = B.matrix.scaled()

    def apply_form(v):
        return [sum(map(mul, row, v)) for row in Bi]

    def gram(xs, ys):
        # the pairings <x, y> of (ints, den) pairs, a row per x
        bys = [(apply_form(y), dy) for y, dy in ys]
        return [[QQ(sum(map(mul, x, by)), dx * dy * db) for by, dy in bys] for x, dx in xs]

    def combine(vectors, coeffs):
        # sum_t coeffs[t] vectors[t] as an (ints, den) pair
        terms = [(c / d, v) for c, (v, d) in zip(coeffs, vectors) if c]
        mults, den = scale_vector([f for f, _ in terms])
        out = [sum(map(mul, mults, col)) for col in zip(*[v for _, v in terms])]
        return lowest_terms(out, den)

    # preimages u_i = e_j with w_i = R u_i spanning Im R: the pivot
    # columns of R's reduced row echelon form, which is Rk's
    reduced = [row[:] for row in Rk]
    pivots = _rref(reduced, len(reduced), n)
    k = len(pivots)
    if k > nm:
        raise CanonError("rank of R_{x0} exceeds the negative index")
    us = [([int(t == j) for t in range(n)], 1) for j in pivots]
    ws = [lowest_terms([sum(map(mul, fm, [row[j] for row in Rk])) for fm in FT], den)
          for j in pivots]

    # Im R totally isotropic, and Im R = (Ker R)^perp
    if any(any(row) for row in gram(ws, ws)):
        raise CanonError("Im R_{x0} is not totally isotropic")
    ker = rref_kernel(reduced, pivots, n)
    if len(ker) != n - k:
        raise CanonError("kernel dimension mismatch")
    if any(any(row) for row in gram(ker, ws)):
        raise CanonError("Im R_{x0} not orthogonal to Ker R_{x0}")

    # pairing G_{ij} = <u_i, w_j>: symmetric and nondegenerate
    G = Mat._raw(gram(us, ws), k)
    if not G.is_symmetric():
        raise CanonError("preimage/image pairing is not symmetric")
    Q, D = congruent_diagonalize(G)
    weights = [D.data[i][i] for i in range(k)]
    if any(not g for g in weights):
        raise CanonError("preimage/image pairing is degenerate")
    us = [combine(us, Q.col(i)) for i in range(k)]
    ws = [combine(ws, Q.col(i)) for i in range(k)]

    # isotropize the u_i inside span(u, w); corrections along w leave the
    # pairing with w untouched and are killed by R
    H = gram(us, us)
    half = QQ(1, 2)
    us = [
        combine([us[i]] + ws, [ONE] + [-half * H[i][j] / weights[j] for j in range(k)])
        for i in range(k)
    ]
    isotropic, cross = gram(us, us), gram(us, ws)
    for i in range(k):
        for j in range(k):
            if isotropic[i][j]:
                raise CanonError("isotropization failed")
            if cross[i][j] != (weights[i] if i == j else ZERO):
                raise CanonError("pair weights corrupted")

    # orthogonal complement of span(u, w), metric-diagonalized; its rows
    # B v are integer, and the kernel does not depend on their scale
    rows = [apply_form(v) for v, _ in us + ws]
    comp = rref_kernel(rows, _rref(rows, 2 * k, n), n)
    if len(comp) != n - 2 * k:
        raise CanonError("complement dimension mismatch")
    Pc, Dc = congruent_diagonalize(Mat._raw(gram(comp, comp), n - 2 * k))
    comp = [combine(comp, Pc.col(i)) for i in range(n - 2 * k)]
    comp_diag = [Dc.data[i][i] for i in range(n - 2 * k)]
    if any(not d for d in comp_diag):
        raise CanonError("complement metric is degenerate")

    cols = []
    for i in range(k):
        cols.append(us[i])
        cols.append(ws[i])
    cols.extend(comp)
    # transport_columns raises ValueError when P is singular
    try:
        new, newB = transport_columns(A, B, cols)
    except ValueError:
        raise CanonError("basis change is singular") from None
    claims = _read_claims(new, newB, k, weights, comp_diag,
                          _reaches_jordan(Rk, FT, den, cols, k),
                          check_fermionic(A) and check_novikov(A))
    # the metric and the shape of R_{x0} hold by construction
    if not claims["metric_canonical"]:
        raise CanonError("metric does not reach the canonical block form")
    if not claims["rx0_canonical"]:
        raise CanonError("R_{x0} does not reach the canonical Jordan form")

    # d_forms[j][a][b] = R'_j[2a+1][2b] = c'[2b][j][2a+1]
    d_forms = [
        Mat._raw([[new.c[2 * b][j][2 * a + 1] for b in range(k)] for a in range(k)], k)
        for j in range(n)
    ]

    return CanonReport(
        x0=list(x0),
        k=k,
        P=Mat._raw([[QQ(v[i], d) if v[i] else ZERO for v, d in cols] for i in range(n)], n),
        pair_weights=weights,
        signs=[1 if g > 0 else -1 for g in weights],
        complement_diag=comp_diag,
        d_forms=d_forms,
        claims=claims,
    )


CLAIMS = (
    "metric_canonical",
    "rx0_canonical",
    "lower_right_zero",
    "side_blocks_zero",
    "core_block_shape",
    "weighted_symmetry",
    "products_vanish",
)


def _read_claims(new, newB, k, weights, comp_diag, rx0_canonical, products_vanish):
    """Each claim of CLAIMS, in that order, read on new and newB, the
    algebra and the form rewritten in the canonical basis P.  The targets
    are rebuilt from k, the pair weights and the complement diagonal;
    rx0_canonical is whether R_{x0} P = P J.

    R'_j[r][s] = c'[s][j][r] is read from new.c, with no matrix built.
    The zero-block claims are decided by where the nonzero entries fall:
    the core allows them only at (2a+1, 2b).  weighted_symmetry reads its
    entries by index, as canonical_basis reads d_forms.

    products_vanish is whether every R_i R_j = 0, read on A itself, as no
    basis is needed: R'_i R'_j = Pinv R_{P e_i} R_{P e_j} P, and the
    transport's reduction of P's integer columns proves P invertible.  It
    is check_fermionic(A) and check_novikov(A), as R_i R_j = -R_j R_i and
    R_i R_j = R_j R_i force R_i R_j = 0."""
    n, h, c = newB.dim, 2 * k, new.c
    zero = dict.fromkeys(("lower_right_zero", "side_blocks_zero", "core_block_shape"), True)
    for s, row in enumerate(c):
        for r, v in ((r, v) for vec in row for r, v in enumerate(vec) if v):
            if r >= h and s >= h:
                zero["lower_right_zero"] = False
            elif (r < h) != (s < h):
                zero["side_blocks_zero"] = False
            elif r % 2 == 0 or s % 2:
                zero["core_block_shape"] = False
    return {
        "metric_canonical": newB.matrix.data == _canonical_metric(n, k, weights, comp_diag),
        "rx0_canonical": rx0_canonical,
        **zero,
        # the pair (a, b) reads the equation of (b, a), and a = b holds
        "weighted_symmetry": all(
            c[2 * b][j][2 * a + 1] * weights[a] == c[2 * a][j][2 * b + 1] * weights[b]
            for j in range(n)
            for a in range(k)
            for b in range(a + 1, k)
        ),
        "products_vanish": products_vanish,
    }


def verify_structure(A: Algebra, B: SymForm, rep: CanonReport):
    """Read every structural claim again and return each claim's truth
    value (see CLAIMS): the independent re-check of a report.

    The columns of rep.P are transported again, R_{x0} P compared with P J
    for rep.x0 and rep.k, and the claims read by the helper canonical_basis
    uses, with every target rebuilt from the report's fields, so a
    corrupted report is caught.  rep.claims is not read."""
    n = A.dim
    if B.dim != n or rep.P.rows != n:
        raise PreconditionError("report/algebra mismatch")
    cols = scale_columns(rep.P)
    new, newB = transport_columns(A, B, cols)
    rx0_canonical = _reaches_jordan(*_int_right_op(A, rep.x0), cols, rep.k)
    return _read_claims(new, newB, rep.k, rep.pair_weights,
                        rep.complement_diag, rx0_canonical,
                        check_fermionic(A) and check_novikov(A))


def check_identities(A: Algebra):
    """Raise PreconditionError naming the first of left-symmetry and
    anticommuting right multiplications that A fails."""
    if not check_left_symmetric(A):
        raise PreconditionError("algebra must be left-symmetric")
    if not check_fermionic(A):
        raise PreconditionError("right multiplications must anticommute")


def canonicalize(A: Algebra, B, seed) -> CanonReport:
    """The theorem's pipeline: check the preconditions, pick a maximal-rank
    x0, and build the canonical basis, every claim read on it.

    A's identity verdicts, decided once, give the anticommutation
    precondition and products_vanish, which is the Novikov identity once
    the R_i anticommute.  With B None, a nondegenerate member of A's
    invariant form space is searched for with seed.  The identities are
    checked before the form is searched for or normalized, so they win
    over a degenerate form.  A failed precondition raises
    PreconditionError naming it."""
    check_identities(A)
    if B is None:
        B = find_nondegenerate(invariant_form_space(A), seed=seed)
        if B is None:
            raise PreconditionError("no nondegenerate invariant form exists")
    B = normalize_orientation(B)
    x0, _ = max_rank_element(A, seed)
    return canonical_basis(A, B, x0)


def theorem_check(A: Algebra, B: SymForm, seed) -> bool:
    """Whether the theorem's conclusions hold for A and the form B: every
    claim of canonicalize's report, and dim AA equal to the rank k of
    R_{x0}.  B is required; a missing form raises PreconditionError."""
    if B is None:
        raise PreconditionError("a form is required")
    rep = canonicalize(A, B, seed)
    return all(rep.claims.values()) and A.derived_dim() == rep.k
