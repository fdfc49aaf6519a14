"""Canonicalization pipeline for square-zero self-adjoint right
multiplications, and the end-to-end theorem verifier.

Given an algebra with pairwise-anticommuting right multiplications and an
invariant nondegenerate symmetric form, pick a maximal-rank element x0,
build a basis in which R_{x0} is a sum of 2x2 nilpotent Jordan blocks and
the metric is hyperbolic pairs plus a diagonal complement, then check
every structural claim about a general right multiplication in that basis
down to R_x R_y = 0.

Over the rationals the hyperbolic pairs carry nonzero weights w_i rather
than being scaled to +-1 (that scaling needs real square roots); the CLI
prints the signs of the weights separately, and every claim is
weight-aware.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import mul

from .exactlin import (
    GenericPoint,
    find_generic_point,
    int_congruence,
    lowest_terms,
    rref,
    rref_kernel,
    scale_vector,
)
from .algebra import (
    Algebra,
    check_fermionic,
    check_left_symmetric,
    check_novikov,
)
from .forms import (
    SymForm,
    is_invariant,
    nondegenerate_form,
    normalize_orientation,
)
from .classify import SingularBasisError, transport_columns, transport_form, transport_products


class PreconditionError(ValueError):
    pass


class CanonError(RuntimeError):
    """An internal claim failed that is impossible under the preconditions;
    signals corrupted input or an implementation bug."""


@dataclass
class CanonReport:
    """Everything the canonicalization produced, on integers: the one result
    of canonical_basis and canonicalize, as _build_basis builds it.

    P holds P's columns, ordered u_1, w_1, ..., u_k, w_k, then the
    orthogonal complement, as (ints, den) pairs; pair_weights[i] is
    <u_i, w_i>, and complement_diag holds the diagonal metric entries of
    the complement, each a (numerator, denominator) pair.  Every
    denominator is positive.  prods maps each (i, j) with f_i f_j nonzero,
    f_i the i-th column of P, to that product in the basis P as an (ints,
    den) pair, as transport_products returns it: R'_j[r][s] = c'[s][j][r],
    so the lower-left block entries of the leading 2k x 2k block of
    R'_j are R'_j[2a+1][2b] = prods[2b, j][0][2a+1] / prods[2b, j][1].

    claims maps each name of CLAIMS to its truth value, as _build_basis
    read it on that basis and its transport; verify_structure reads the
    same claims again from the other fields.
    """

    x0: list
    k: int
    P: list
    pair_weights: list
    complement_diag: list
    prods: dict
    claims: dict


def max_rank_element(A: Algebra, seed):
    """(x0, k): the first point of find_generic_point's seeded sequence
    where A.right_pencil() attains its generic rank k.  The pencil has
    dim AA rows, so a point of rank dim AA proves k with no polynomial
    arithmetic; the symbolic rank runs only when none does.  It is the
    search's GenericPoint, so it also holds R_{x0}'s integer rows at the
    pivots of AA and their rref, which canonicalize hands to _build_basis.

    The right multiplications must anticommute, or PreconditionError is
    raised; the verdict is A's cached check_fermionic(A).
    """
    if not check_fermionic(A):
        raise PreconditionError("right multiplications must anticommute")
    if A.derived_dim() == 0:
        return GenericPoint([0] * A.dim, 0, [], ([], []))
    return find_generic_point(A.right_pencil(), seed)


def _int_right_op(A: Algebra, x0, Rk=None):
    """(Rk, FT, den): R_{x0} = FT Rk / den, with F, L = A.derived_basis().

    Rk = A.right_pencil() at x0 scaled to integers, so Rk[a][t] is the
    entry at the pivot p_a of e_t x0 times den / L, and FT = F^T as n rows;
    a caller that already holds the pencil's value at x0 scaled to
    integers passes it as Rk, and it is not evaluated again.  Every
    column of R_{x0} lies in AA, and F has full rank, so R_{x0} has Rk's
    row space, and R_{x0} v vanishes exactly when Rk v does."""
    _, F, L = A.derived_basis()
    xv, dx = scale_vector(x0)
    if Rk is None:
        Rk = A.right_pencil().eval(xv)
    return Rk, [[f[m] for f in F] for m in range(A.dim)], dx * A.int_tensor()[1] * L


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


def _check_form(A: Algebra, B: SymForm):
    """Raise PreconditionError naming the first of these that B fails: the
    dimension of A, nondegenerate, n_minus <= n_plus, invariant."""
    if B.dim != A.dim:
        raise PreconditionError("dimension mismatch")
    np_, nm, nz = B.signature()
    if nz:
        raise PreconditionError("form must be nondegenerate")
    if nm > np_:
        raise PreconditionError("orientation must satisfy p <= n - p")
    if not is_invariant(A, B):
        raise PreconditionError("form must be invariant")


def canonical_basis(A: Algebra, B: SymForm, x0) -> CanonReport:
    """The form's checks (_check_form), then the construction's report
    (_build_basis).  x0 is the caller's, rational or not: its
    GenericPoint holds the right pencil's value at x0 scaled to integers
    and that value's rref, as max_rank_element's does for its x0."""
    if len(x0) != A.dim:
        raise PreconditionError("dimension mismatch")
    _check_form(A, B)
    value = A.right_pencil().eval(scale_vector(x0)[0])
    reduced = rref(value, A.dim)
    return _build_basis(A, B, GenericPoint(x0, len(reduced[1]), value, reduced))


def _build_basis(A: Algebra, B: SymForm, found: GenericPoint) -> CanonReport:
    """Build the canonical basis for R_{x0} and the metric, B checked by
    _check_form; every intermediate claim is asserted, not assumed.

    found is a GenericPoint at x0 = found[0]: max_rank_element's, or the
    one canonical_basis builds for its caller's x0.  R_{x0} enters as
    FT Rk / den (_int_right_op), Rk = found.value its k rows at the pivots
    of AA, whose reduced form and pivots are found.reduced.

    Every basis vector is an (ints, den) pair, every pairing <x, y> is
    x^T Bi y over dx dy db, and each image Bi y is computed once, n + 2k
    of them: k for R's first images w_i, 2k for the u_i before and after
    their isotropization, k for the w_i after the pairing's congruence and
    n - 2k for the complement, whose images ride through its
    int_congruence.  int_congruence diagonalizes both Gram matrices, of
    vectors over one denominator, carrying the vectors along.  No rational
    is built: the report holds these integers.  A complement not
    orthogonal to span(u, w) raises CanonError; else P^T B P is the
    canonical metric G, so Pinv = G^-1 P^T B, and the transport (transport_products) reads
    Pinv F^T from G and the held images, with no elimination, as
    transport_form reads the form.  _read_claims reads every claim of
    CLAIMS on that transport and on the R_{x0} triple built here."""
    n = A.dim
    rx0 = _int_right_op(A, found[0], found.value)
    reduced, pivots = found.reduced
    Rk, FT, den = rx0
    Bi, db = B.int_matrix()

    def apply_form(vectors):
        # Bi y for each integer vector y
        return [[sum(map(mul, row, y)) for row in Bi] for y in vectors]

    def gram(xs, bys):
        # x^T Bi y for integer vectors x and the products Bi y, a row per x
        return [[sum(map(mul, x, by)) for by in bys] for x in xs]

    def over(vectors):
        # (ints, den) pairs as integer vectors over their lcm m, and m
        m = lcm(*[d for _, d in vectors])
        return [[x * (m // d) for x in v] for v, d in vectors], m

    def images(vectors, bys, scales):
        # Bi z for each (ints, den) pair (z, d), from the image by of the
        # same vector over the scale m, z (m / d)
        return [by if d == m else [x // (m // d) for x in by]
                for (_, d), by, m in zip(vectors, bys, scales)]

    # preimages u_i = e_j with w_i = R u_i spanning Im R: the pivot
    # columns of R's reduced row echelon form, which is Rk's
    k = len(pivots)
    if k > B.signature()[1]:
        raise CanonError("rank of R_{x0} exceeds the negative index")
    W, dw = [[sum(map(mul, fm, [row[j] for row in Rk])) for fm in FT] for j in pivots], den

    # Im R totally isotropic, and Im R = (Ker R)^perp: each B w_j lies in
    # the row space of R, which is Rk's, so [reduced; BW] keeps rank k
    BW = apply_form(W)
    if any(any(row) for row in gram(W, BW)):
        raise CanonError("Im R_{x0} is not totally isotropic")
    if len(rref(reduced + BW, n)[1]) > k:
        raise CanonError("Im R_{x0} not orthogonal to Ker R_{x0}")

    # pairing G_{ij} = <u_i, w_j> = (Bi w_j)[p_i] / (dw db), as u_i is the
    # unit vector at p_i: symmetric and nondegenerate; u_i and w_i take the
    # same column operations, carried side by side
    G = [[bw[j] for bw in BW] for j in pivots]
    if any(G[i][j] != G[j][i] for i in range(k) for j in range(i)):
        raise CanonError("preimage/image pairing is not symmetric")
    U = [[int(t == j) for t in range(n)] for j in pivots]
    d, p, s = int_congruence(G, [u + w for u, w in zip(U, W)])
    if not all(d):
        raise CanonError("preimage/image pairing is degenerate")
    # <u_i, w_i> = wn / wd for (wn, wd) in pws
    pws = [(di, dw * db * si) for di, si in zip(d, s)]
    us = [lowest_terms(v[:n], si) for v, si in zip(p, s)]
    ws = [lowest_terms(v[n:], dw * si) for v, si in zip(p, s)]

    # isotropize the u_i inside span(u, w): u_i -= <u_i, u_j> / (2 w_j) w_j,
    # over 2 du^2 db dw m, m the lcm of the weights' numerators; the
    # corrections along w leave the pairing with w untouched and are
    # killed by R
    U, du = over(us)
    W, dw = over(ws)
    BW = apply_form(W)
    H, Wt = gram(U, apply_form(U)), list(zip(*W))
    m = lcm(*[wn for wn, _ in pws])
    f = 2 * du * db * dw * m
    for i in range(k):
        cs = [h * wd * (m // wn) for h, (wn, wd) in zip(H[i], pws)]
        us[i] = lowest_terms([f * x - sum(map(mul, cs, col)) for x, col in zip(U[i], Wt)], f * du)
    U, du = over(us)
    BU = apply_form(U)
    isotropic, cross = gram(U, BU), gram(U, BW)
    for i in range(k):
        for j in range(k):
            if isotropic[i][j]:
                raise CanonError("isotropization failed")
            wn, wd = pws[i]
            if cross[i][j] * wd != (wn * du * dw * db if i == j else 0):
                raise CanonError("pair weights corrupted")

    # orthogonal complement of span(u, w), metric-diagonalized; its rows
    # B v are integer, and the kernel does not depend on their scale
    comp = rref_kernel(*rref(BU + BW, n), n)
    Z, dz = over(comp)
    # P^T B P is the nonsingular metric G only if Z is orthogonal to span(u, w)
    if any(any(row) for row in gram(Z, BU + BW)):
        raise CanonError("basis change is singular")
    # the images Bi z take the vectors' column operations; every image
    # entry is a multiple of the gcd of its vector, so each divides exactly
    BZ = apply_form(Z)
    d, p, s = int_congruence(gram(Z, BZ), [z + bz for z, bz in zip(Z, BZ)])
    if not all(d):
        raise CanonError("complement metric is degenerate")
    comp = [lowest_terms(v[:n], dz * si) for v, si in zip(p, s)]
    BZ = images(comp, [v[n:] for v in p], [dz * si for si in s])
    comp_diag = [(di, dz * dz * db * si) for di, si in zip(d, s)]

    cols = [v for pair in zip(us, ws) for v in pair] + comp
    Bz = [v for pair in zip(images(us, BU, [du] * k), images(ws, BW, [dw] * k)) for v in pair] + BZ
    # Pinv F^T = G^-1 P^T B F^T: row m is F B c_s / G[s][m] for the partner
    # s of m (w_i at u_i, u_i at w_i, c_t at c_t), G[s][m] = wn / wd, so its
    # integers F Bi z_s wd are over d_s db wn
    F = A.derived_basis()[1]
    partner = [m ^ 1 for m in range(2 * k)] + list(range(2 * k, n))
    rows = [([sum(map(mul, fa, Bz[s])) * wd for fa in F], cols[s][1] * db * wn)
            for s, (wn, wd) in zip(partner, [x for w in pws for x in (w, w)] + comp_diag)]
    g = lcm(*[t for _, t in rows])
    transport = (transport_products(A, cols, [[y * (g // t) for y in ys] for ys, t in rows], g),
                 transport_form(cols, Bz, db))
    claims = _read_claims(A, rx0, cols, transport, k, pws, comp_diag)
    # the metric and the shape of R_{x0} hold by construction
    if not claims["metric_canonical"]:
        raise CanonError("metric does not reach the canonical block form")
    if not claims["rx0_canonical"]:
        raise CanonError("R_{x0} does not reach the canonical Jordan form")
    return CanonReport(list(found[0]), k, cols, pws, comp_diag, transport[0], claims)


CLAIMS = (
    "metric_canonical",
    "rx0_canonical",
    "lower_right_zero",
    "side_blocks_zero",
    "core_block_shape",
    "weighted_symmetry",
    "products_vanish",
)


def _read_claims(A: Algebra, rx0, cols, transport, k, weights, comp_diag):
    """Each claim of CLAIMS, in that order: the one place a claim is
    decided.  cols are P's columns as (ints, den) pairs, transport is
    their (prods, form), as transport_columns returns them, and rx0 is
    R_{x0} as _int_right_op's triple, which the caller already holds.  The
    metric and block claims are read on transport, the algebra and the form
    in the canonical basis P as integer numerators with their scales.  The
    targets are rebuilt from k, the k pair weights and the complement
    diagonal, given as (numerator, denominator) pairs with positive
    denominators, in lowest terms or not, and compared by
    cross-multiplying.  The form is symmetric, as transport_form mirrors
    it, and so is its target, so metric_canonical reads each entry i <= j.

    R'_j[r][s] = c'[s][j][r] is read from the numerators, with no matrix
    built.  The zero-block claims are decided by where the nonzero
    numerators fall: the core allows them only at (2a+1, 2b).
    weighted_symmetry reads its entries by index, as the CLI reads the
    lower-left block entries (see CanonReport).

    rx0_canonical is whether R_{x0} P = P J, compared on integers
    (_reaches_jordan).  products_vanish is whether every R_i R_j = 0, read
    on A itself, as no basis is needed: R'_i R'_j = Pinv R_{P e_i} R_{P e_j}
    P, with P invertible: _build_basis proves P^T B P the canonical
    metric, and verify_structure's transport reduces P's integer columns.
    It is A's cached check_fermionic(A) and check_novikov(A), as
    R_i R_j = -R_j R_i and R_i R_j = R_j R_i force R_i R_j = 0."""
    prods, form = transport
    n, h = len(form), 2 * k
    zero = dict.fromkeys(("lower_right_zero", "side_blocks_zero", "core_block_shape"), True)
    for (s, _), (v, _) in prods.items():
        for r in (r for r, x in enumerate(v) if x):
            if r >= h and s >= h:
                zero["lower_right_zero"] = False
            elif (r < h) != (s < h):
                zero["side_blocks_zero"] = False
            elif r % 2 == 0 or s % 2:
                zero["core_block_shape"] = False
    # the canonical metric as (numerator, denominator) pairs: hyperbolic
    # pairs of the given weights, then the diagonal complement, 0 elsewhere
    target = {(h + t, h + t): c for t, c in enumerate(comp_diag)}
    for a, w in enumerate(weights):
        target[2 * a, 2 * a + 1] = target[2 * a + 1, 2 * a] = w

    none = ([0] * n, 1)

    def weighted(i, j, m, w):
        # c'[i][j][m] w as a (numerator, denominator) pair
        v, t = prods.get((i, j), none)
        return v[m] * w[0], t * w[1]

    def equal(x, y):
        return x[0] * y[1] == y[0] * x[1]

    return {
        "metric_canonical": len(comp_diag) == n - h and all(
            equal(row[j], target.get((i, j), (0, 1)))
            for i, row in enumerate(form) for j in range(i, n)
        ),
        "rx0_canonical": _reaches_jordan(*rx0, cols, k),
        **zero,
        # the pair (a, b) reads the equation of (b, a), and a = b holds
        "weighted_symmetry": all(
            equal(weighted(2 * b, j, 2 * a + 1, weights[a]),
                  weighted(2 * a, j, 2 * b + 1, weights[b]))
            for j in range(n)
            for a in range(k)
            for b in range(a + 1, k)
        ),
        "products_vanish": check_fermionic(A) and check_novikov(A),
    }


def verify_structure(A: Algebra, B: SymForm, rep: CanonReport):
    """Read every structural claim again and return each claim's truth
    value (see CLAIMS): the independent re-check of a report.

    The columns rep.P are transported again by transport_columns, whose one
    reduction of [Z | F^T] raises SingularBasisError on a singular P, and
    every claim read by _read_claims, as _build_basis reads them, for
    R_{x0} at rep.x0 and for rep.k, with every target rebuilt from the
    report's fields, so a corrupted report is caught.  rep.claims and rep.prods are not read.  A
    report that does not fit A (B of another dimension, P not n columns
    of length n or singular, a denominator of P, the pair weights or the
    complement diagonal not positive, x0 not of length n, k not the
    number of pair weights or more than n / 2) raises
    PreconditionError("report/algebra mismatch"); of the transport's
    errors, only SingularBasisError is caught."""
    n, k = A.dim, rep.k
    dens = [d for pairs in (rep.P, rep.pair_weights, rep.complement_diag) for _, d in pairs]
    if (B.dim != n or len(rep.P) != n or any(len(v) != n for v, _ in rep.P)
            or any(d <= 0 for d in dens) or len(rep.x0) != n
            or len(rep.pair_weights) != k or 2 * k > n):
        raise PreconditionError("report/algebra mismatch")
    try:
        transport = transport_columns(A, B, rep.P)
    except SingularBasisError:
        raise PreconditionError("report/algebra mismatch") from None
    return _read_claims(A, _int_right_op(A, rep.x0), rep.P, transport, k,
                        rep.pair_weights, rep.complement_diag)


def check_identities(A: Algebra):
    """Raise PreconditionError naming the first of left-symmetry and
    anticommuting right multiplications that A fails."""
    if not check_left_symmetric(A):
        raise PreconditionError("algebra must be left-symmetric")
    if not check_fermionic(A):
        raise PreconditionError("right multiplications must anticommute")


def canonicalize(A: Algebra, B, seed) -> CanonReport:
    """The theorem's pipeline: check the preconditions, pick a maximal-rank
    x0, and build the canonical basis, every claim read on it, as its
    report (_build_basis).

    A's identity verdicts, decided once, give the anticommutation
    precondition and products_vanish, which is the Novikov identity once
    the R_i anticommute; _read_claims reads both.  With B None the form is
    nondegenerate_form's choice for seed: a nondegenerate member of A's
    invariant form space, or the empty form at dim 0.  The identities
    are checked before the form is searched for or normalized, and the
    form before x0 is searched for, so each wins over what follows and no
    rank is computed for a refused form.  A failed precondition raises
    PreconditionError naming it, except a degenerate B of A's dimension:
    normalize_orientation refuses it first with forms.DegenerateFormError,
    a ValueError (exit 2 in the CLI), where canonical_basis, which takes B
    as it is, raises PreconditionError."""
    check_identities(A)
    if B is None:
        _, B = nondegenerate_form(A, seed)
        if B is None:
            raise PreconditionError("no nondegenerate invariant form exists")
    # _check_form refuses a form of another dimension before its signature
    if B.dim == A.dim:
        B = normalize_orientation(B)
    _check_form(A, B)
    return _build_basis(A, B, max_rank_element(A, seed))


def theorem_check(A: Algebra, B: SymForm, seed) -> bool:
    """Whether the theorem's conclusions hold for A and the form B, that is
    whether failed_conclusions finds none in canonicalize's report, which
    holds only integers, so no rational is built.  B is required; a
    missing form raises PreconditionError, and a degenerate one of A's
    dimension forms.DegenerateFormError, as in canonicalize."""
    if B is None:
        raise PreconditionError("a form is required")
    rep = canonicalize(A, B, seed)
    return not failed_conclusions(A, rep.k, rep.claims)


def failed_conclusions(A: Algebra, k, claims):
    """The theorem's conclusions that fail for A, the one verdict of
    theorem_check and `fnovikov canon`: each false claim of CLAIMS, then
    "derived_dim_is_k" when dim AA is not the rank k of R_{x0}.  claims
    maps each name of CLAIMS, in that order, to its truth value."""
    return [c for c, ok in {**claims, "derived_dim_is_k": A.derived_dim() == k}.items() if not ok]
