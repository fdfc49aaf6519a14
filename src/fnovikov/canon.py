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
    kernel_basis,
    lowest_terms,
    rref_kernel,
    sample_points,
    scale_columns,
    scale_vector,
)
from .algebra import (
    Algebra,
    check_fermionic,
    check_left_symmetric,
    int_right_ops,
    int_right_products,
)
from .forms import (
    SymForm,
    find_nondegenerate,
    invariant_form_space,
    is_invariant,
    normalize_orientation,
)
from .classify import transport_basis


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
    """The pencil sum_j t_j R_{e_j} in n variables, times the denominator
    of A.int_tensor(): its value at x is that multiple of R_x."""
    C, _ = A.int_tensor()
    return Pencil(int_right_ops(C, range(A.dim)), A.dim, A.dim)


def max_rank_element(A: Algebra, seed, products=None):
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
    raised.  A caller that has already checked this with
    check_fermionic(A, products) passes the same right-product table as
    products, and the check is not repeated.
    """
    if products is None and not check_fermionic(A):
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
    """(Rz, dR): R_{x0} = Rz / dR with Rz an integer matrix, the right
    pencil at x0 scaled to integers; dR is x0's denominator times the
    denominator of A.int_tensor()."""
    xv, dx = scale_vector(x0)
    return right_pencil(A).eval(xv), dx * A.int_tensor()[1]


def _reaches_jordan(Rz, dR, cols, k):
    """Whether R = Rz / dR maps column 2i of P to column 2i+1 for i < k and
    every other column to 0, i.e. R P = P J with J one 2x2 nilpotent Jordan
    block per pair.  cols are P's columns as (ints, den) pairs; the
    comparison runs on integers, one column at a time."""
    for j, (v, d) in enumerate(cols):
        Rv = [sum(map(mul, row, v)) for row in Rz]
        if j < 2 * k and j % 2 == 0:
            w, dw = cols[j + 1]
            # R v / d == w / dw, with R v = Rv / dR
            s = dR * d
            if any(a * dw != b * s for a, b in zip(Rv, w)):
                return False
        elif any(Rv):
            return False
    return True


def canonical_basis(A: Algebra, B: SymForm, x0, products=None) -> CanonReport:
    """Build the canonical basis for R_{x0} and the metric; every
    intermediate claim is asserted, not assumed.

    Every basis vector is built as integer numerators over its own
    denominator, an (ints, den) pair, from R_{x0} and the form scaled to
    integers once.  Rationals appear only at the boundary: the pairings
    that congruent_diagonalize takes and the coefficients it returns, the
    weights, and P's entries.

    The basis is transported once, and every claim of CLAIMS is read on
    that transport into the report's claims; products is A's right-product
    table int_right_products(A), built here when the caller holds none."""
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
    Rz, dR = _int_right_op(A, x0)
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
    # columns of R's reduced row echelon form
    reduced = [row[:] for row in Rz]
    pivots = _rref(reduced, n, n)
    k = len(pivots)
    if k > nm:
        raise CanonError("rank of R_{x0} exceeds the negative index")
    us = [([int(t == j) for t in range(n)], 1) for j in pivots]
    ws = [lowest_terms([row[j] for row in Rz], dR) for j in pivots]

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
    comp = kernel_basis(Mat._raw([apply_form(v) for v, _ in us + ws], n))
    if len(comp) != n - 2 * k:
        raise CanonError("complement dimension mismatch")
    comp = [scale_vector(c) for c in comp]
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
    P = Mat._raw([[QQ(v[i], d) if v[i] else ZERO for v, d in cols] for i in range(n)], n)
    # transport_basis inverts P, which raises ValueError when P is singular
    try:
        new, newB = transport_basis(A, B, P)
    except ValueError:
        raise CanonError("basis change is singular") from None
    new_ops = new.right_ops()
    if products is None:
        products = int_right_products(A)
    claims = _read_claims(new_ops, newB, k, weights, comp_diag,
                          _reaches_jordan(Rz, dR, cols, k), products)
    # the metric and the shape of R_{x0} hold by construction
    if not claims["metric_canonical"]:
        raise CanonError("metric does not reach the canonical block form")
    if not claims["rx0_canonical"]:
        raise CanonError("R_{x0} does not reach the canonical Jordan form")

    d_forms = [
        Mat._raw([[Rj.data[2 * a + 1][2 * b] for b in range(k)] for a in range(k)], k)
        for Rj in new_ops
    ]

    return CanonReport(
        x0=list(x0),
        k=k,
        P=P,
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


def _read_claims(new_ops, newB, k, weights, comp_diag, rx0_canonical, products):
    """Each claim of CLAIMS, in that order, read on new_ops and newB, the
    right multiplications and the form rewritten in the canonical basis P.
    The targets are rebuilt from k, the pair weights and the complement
    diagonal; rx0_canonical is whether R_{x0} P = P J.

    products_vanish reads A's own table int_right_products(A), as no basis
    is needed: R'_i R'_j = Pinv R_{P e_i} R_{P e_j} P, and transport_basis's
    inverse of P's integer columns proves P invertible.  The table holds
    only the rows of each R_i R_j at A.derived_pivots(), which vanish
    exactly when R_i R_j does, as its columns lie in AA."""
    n = newB.dim
    claims = {
        "metric_canonical": newB.matrix.data == _canonical_metric(n, k, weights, comp_diag),
        "rx0_canonical": rx0_canonical,
    }
    claims["lower_right_zero"] = all(
        not op.data[r][s]
        for op in new_ops
        for r in range(2 * k, n)
        for s in range(2 * k, n)
    )
    claims["side_blocks_zero"] = all(
        not op.data[r][s]
        for op in new_ops
        for r in range(n)
        for s in range(n)
        if (r < 2 * k) != (s < 2 * k)
    )
    claims["core_block_shape"] = not any(
        op.data[2 * a][2 * b] or op.data[2 * a][2 * b + 1] or op.data[2 * a + 1][2 * b + 1]
        for op in new_ops
        for a in range(k)
        for b in range(k)
    )
    claims["weighted_symmetry"] = all(
        op.data[2 * a + 1][2 * b] * weights[a] == op.data[2 * b + 1][2 * a] * weights[b]
        for op in new_ops
        for a in range(k)
        for b in range(k)
    )
    claims["products_vanish"] = not any(any(p) for row in products for p in row)
    return claims


def verify_structure(A: Algebra, B: SymForm, rep: CanonReport):
    """Read every structural claim again and return each claim's truth
    value (see CLAIMS): the independent re-check of a report.

    The basis rep.P is transported again, R_{x0} P compared with P J for
    rep.x0 and rep.k, and the claims read by the helper canonical_basis
    uses, with every target rebuilt from the report's fields, so a
    corrupted report is caught.  rep.claims is not read."""
    n = A.dim
    if B.dim != n or rep.P.rows != n:
        raise PreconditionError("report/algebra mismatch")
    new, newB = transport_basis(A, B, rep.P)
    rx0_canonical = _reaches_jordan(*_int_right_op(A, rep.x0), scale_columns(rep.P), rep.k)
    return _read_claims(new.right_ops(), newB, rep.k, rep.pair_weights,
                        rep.complement_diag, rx0_canonical, int_right_products(A))


def canonicalize(A: Algebra, B, seed) -> CanonReport:
    """The theorem's pipeline: check the preconditions, pick a maximal-rank
    x0, and build the canonical basis, every claim read on it.

    One right-product table decides the anticommutation precondition and
    products_vanish, which is the Novikov identity once the R_i anticommute:
    R_i R_j = R_j R_i = -R_i R_j forces R_i R_j = 0.  With B None, a
    nondegenerate member of A's invariant form space is searched for with
    seed.  The identities are checked before the form is searched for or
    normalized, so they win over a degenerate form.  A failed precondition
    raises PreconditionError naming it."""
    if not check_left_symmetric(A):
        raise PreconditionError("algebra must be left-symmetric")
    products = int_right_products(A)
    if not check_fermionic(A, products):
        raise PreconditionError("right multiplications must anticommute")
    if B is None:
        B = find_nondegenerate(invariant_form_space(A), seed=seed)
        if B is None:
            raise PreconditionError("no nondegenerate invariant form exists")
    B = normalize_orientation(B)
    x0, _ = max_rank_element(A, seed, products)
    return canonical_basis(A, B, x0, products)


def theorem_check(A: Algebra, B: SymForm, seed) -> bool:
    """Whether the theorem's conclusions hold for A and the form B: every
    claim of canonicalize's report, and dim AA equal to the rank k of
    R_{x0}.  B is required; a missing form raises PreconditionError."""
    if B is None:
        raise PreconditionError("a form is required")
    rep = canonicalize(A, B, seed)
    return all(rep.claims.values()) and A.derived_dim() == rep.k
