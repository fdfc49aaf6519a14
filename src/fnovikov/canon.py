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
    PolyMat,
    congruent_diagonalize,
    det,
    find_generic_point,
    generic_rank,
    inverse,
    int_rank,
    kernel_basis,
    linear_pencil,
    rank,
    sample_points,
    scale_to_int,
)
from .algebra import (
    Algebra,
    basis_element,
    check_fermionic,
    check_left_symmetric,
    check_novikov,
    int_right_ops,
    zero_element,
)
from .forms import SymForm, is_invariant, normalize_orientation


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
    """

    x0: list
    k: int
    P: Mat
    pair_weights: list
    signs: list
    complement_diag: list
    d_forms: list


def right_pencil(A: Algebra) -> PolyMat:
    """The pencil sum_j t_j R_{e_j} as a polynomial matrix in n variables."""
    C, den = A.int_tensor()
    return linear_pencil(int_right_ops(C), den)


def max_rank_element(A: Algebra, seed):
    """(x0, k): a rational element whose right multiplication attains the
    generic rank k of the right-multiplication pencil.

    Every R_x maps into AA, so k <= dim AA, and a sampled point whose
    rank reaches dim AA proves k without polynomial arithmetic.  The first
    CERTIFY_ATTEMPTS points of find_generic_point's seeded sequence are
    tried; only when none reaches dim AA is the symbolic generic_rank
    computed, and its value handed on as the target.  Either way x0 is the
    first point of that sequence of rank k.

    Also certifies maximality: for every basis direction y and k+2 pencil
    values l, the rank of R_{x0 + l y} stays <= k (all (k+1)-minors
    vanish), matching the degree bound of the pencil-determinant
    argument.
    """
    if not check_fermionic(A):
        raise PreconditionError("right multiplications must anticommute")
    n = A.dim
    # rank R_x is the rank of the integer matrix with rows x . C[i]: R_x
    # transposed, with x and c scaled to integers.
    C, _ = A.int_tensor()
    cols = [list(zip(*Ci)) for Ci in C]

    def rank_at(x):
        (xi,), _ = scale_to_int([x])
        return int_rank([[sum(map(mul, xi, col)) for col in Ci] for Ci in cols], n)

    k = A.derived_dim()
    if k == 0:
        x0 = zero_element(n)
    else:
        x0 = next(
            (x for x in sample_points(n, seed, CERTIFY_ATTEMPTS) if rank_at(x) == k),
            None,
        )
        if x0 is None:
            pencil = right_pencil(A)
            k = generic_rank(pencil)
            x0 = find_generic_point(pencil, seed, target=k)
    for j in range(n):
        for l in range(k + 2):
            x = list(x0)
            x[j] = x[j] + QQ(l)
            if rank_at(x) > k:
                raise CanonError("rank certificate failed: x0 is not maximal")
    return x0, k


def _extend_span(echelon, vec):
    """Row-reduce vec against echelon rows; append and return True if it
    enlarges the span."""
    v = list(vec)
    for pivot_col, row in echelon:
        if v[pivot_col]:
            f = v[pivot_col]
            for t in range(len(v)):
                v[t] = v[t] - f * row[t]
    for col, x in enumerate(v):
        if x:
            inv = ONE / x
            echelon.append((col, [inv * y for y in v]))
            return True
    return False


def canonical_basis(A: Algebra, B: SymForm, x0) -> CanonReport:
    """Build the canonical basis for R_{x0} and the metric; every
    intermediate claim is asserted, not assumed."""
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
    R = A.right_op(x0)
    k = rank(R)
    if k > nm:
        raise CanonError("rank of R_{x0} exceeds the negative index")
    Bm = B.matrix

    # preimages u_i with w_i = R u_i spanning Im R
    us, ws = [], []
    echelon = []
    for j in range(n):
        w = R.col(j)
        if _extend_span(echelon, w):
            us.append(basis_element(n, j))
            ws.append(w)
    if len(ws) != k:
        raise CanonError("image dimension mismatch")

    # Im R totally isotropic, and Im R = (Ker R)^perp
    for wi in ws:
        for wj in ws:
            if B.pair(wi, wj):
                raise CanonError("Im R_{x0} is not totally isotropic")
    ker = kernel_basis(R)
    if len(ker) != n - k:
        raise CanonError("kernel dimension mismatch")
    for wi in ws:
        for z in ker:
            if B.pair(wi, z):
                raise CanonError("Im R_{x0} not orthogonal to Ker R_{x0}")

    # pairing G_{ij} = <u_i, w_j>: symmetric and nondegenerate
    G = Mat._raw([[B.pair(ui, wj) for wj in ws] for ui in us], k)
    if not G.is_symmetric():
        raise CanonError("preimage/image pairing is not symmetric")
    Q, D = congruent_diagonalize(G)
    weights = [D.data[i][i] for i in range(k)]
    if any(not g for g in weights):
        raise CanonError("preimage/image pairing is degenerate")

    def combine(vectors, coeffs):
        out = [ZERO] * n
        for coeff, vec in zip(coeffs, vectors):
            if coeff:
                for t in range(n):
                    out[t] += coeff * vec[t]
        return out

    us = [combine(us, Q.col(i)) for i in range(k)]
    ws = [combine(ws, Q.col(i)) for i in range(k)]

    # isotropize the u_i inside span(u, w); corrections along w leave the
    # pairing with w untouched and are killed by R
    H = [[B.pair(ui, uj) for uj in us] for ui in us]
    half = QQ(1, 2)
    us = [
        combine([us[i]] + ws, [ONE] + [-half * H[i][j] / weights[j] for j in range(k)])
        for i in range(k)
    ]
    for i in range(k):
        for j in range(k):
            if B.pair(us[i], us[j]):
                raise CanonError("isotropization failed")
            expect = weights[i] if i == j else ZERO
            if B.pair(us[i], ws[j]) != expect:
                raise CanonError("pair weights corrupted")

    # orthogonal complement of span(u, w), metric-diagonalized
    if k:
        rows = [Bm.apply(v) for v in us + ws]
        comp = kernel_basis(Mat._raw(rows, n))
    else:
        comp = [basis_element(n, j) for j in range(n)]
    if len(comp) != n - 2 * k:
        raise CanonError("complement dimension mismatch")
    gram = Mat._raw([[B.pair(a, b) for b in comp] for a in comp], n - 2 * k)
    Pc, Dc = congruent_diagonalize(gram)
    comp = [combine(comp, Pc.col(i)) for i in range(n - 2 * k)]
    comp_diag = [Dc.data[i][i] for i in range(n - 2 * k)]
    if any(not d for d in comp_diag):
        raise CanonError("complement metric is degenerate")

    cols = []
    for i in range(k):
        cols.append(us[i])
        cols.append(ws[i])
    cols.extend(comp)
    P = Mat._raw([[cols[j][i] for j in range(n)] for i in range(n)], n)
    if n and not det(P):
        raise CanonError("basis change is singular")

    # exact metric and R_{x0} shape checks in the new basis
    expected = Mat.zeros(n, n).copy_data()
    for i in range(k):
        expected[2 * i][2 * i + 1] = weights[i]
        expected[2 * i + 1][2 * i] = weights[i]
    for t, d in enumerate(comp_diag):
        expected[2 * k + t][2 * k + t] = d
    if (P.transpose() * Bm * P).data != expected:
        raise CanonError("metric does not reach the canonical block form")
    Pinv = inverse(P) if n else Mat.zeros(0, 0)
    R_new = Pinv * R * P
    jordan = Mat.zeros(n, n).copy_data()
    for i in range(k):
        jordan[2 * i + 1][2 * i] = ONE
    if R_new.data != jordan:
        raise CanonError("R_{x0} does not reach the canonical Jordan form")

    d_forms = []
    for j in range(n):
        Rj = Pinv * A.right_op(P.col(j)) * P
        d_forms.append(
            Mat._raw(
                [[Rj.data[2 * a + 1][2 * b] for b in range(k)] for a in range(k)], k
            )
        )

    return CanonReport(
        x0=list(x0),
        k=k,
        P=P,
        pair_weights=weights,
        signs=[1 if g > 0 else -1 for g in weights],
        complement_diag=comp_diag,
        d_forms=d_forms,
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


def verify_structure(A: Algebra, B: SymForm, rep: CanonReport):
    """Recompute every structural claim in the canonical basis and return
    each claim's truth value (see CLAIMS)."""
    n = A.dim
    if B.dim != n or rep.P.rows != n:
        raise PreconditionError("report/algebra mismatch")
    k = rep.k
    P = rep.P
    Pinv = inverse(P) if n else Mat.zeros(0, 0)
    claims = {}

    expected = Mat.zeros(n, n).copy_data()
    for i in range(k):
        expected[2 * i][2 * i + 1] = rep.pair_weights[i]
        expected[2 * i + 1][2 * i] = rep.pair_weights[i]
    for t, d in enumerate(rep.complement_diag):
        expected[2 * k + t][2 * k + t] = d
    claims["metric_canonical"] = (P.transpose() * B.matrix * P).data == expected

    jordan = Mat.zeros(n, n).copy_data()
    for i in range(k):
        jordan[2 * i + 1][2 * i] = ONE
    claims["rx0_canonical"] = (Pinv * A.right_op(rep.x0) * P).data == jordan

    new_ops = [Pinv * A.right_op(P.col(j)) * P for j in range(n)]

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
    core_ok = True
    for op in new_ops:
        for a in range(k):
            for b in range(k):
                blk = (
                    op.data[2 * a][2 * b],
                    op.data[2 * a][2 * b + 1],
                    op.data[2 * a + 1][2 * b + 1],
                )
                if any(blk):
                    core_ok = False
    claims["core_block_shape"] = core_ok

    w = rep.pair_weights
    claims["weighted_symmetry"] = all(
        op.data[2 * a + 1][2 * b] * w[a] == op.data[2 * b + 1][2 * a] * w[b]
        for op in new_ops
        for a in range(k)
        for b in range(k)
    )

    claims["products_vanish"] = all(
        (x * y).is_zero() for x in new_ops for y in new_ops
    )
    return claims


def theorem_check(A: Algebra, B: SymForm, seed) -> bool:
    """Full pipeline: canonicalize, verify every structural claim, and
    confirm that commuting right multiplications and the derived-dimension
    count follow."""
    if not check_left_symmetric(A):
        raise PreconditionError("algebra must be left-symmetric")
    if not check_fermionic(A):
        raise PreconditionError("right multiplications must anticommute")
    Bn = normalize_orientation(B)
    if not is_invariant(A, Bn):
        raise PreconditionError("form must be invariant")
    x0, k = max_rank_element(A, seed)
    rep = canonical_basis(A, Bn, x0)
    claims = verify_structure(A, Bn, rep)
    return (
        all(claims.values())
        and check_novikov(A)
        and A.derived_dim() == rep.k
    )
