"""Constructors, classifier and scrambling harness for small derived
dimension.

The one-dimensional-derived-subspace case has exactly three families up
to isomorphism; the classifier separates them by two basis-free
invariants (commutativity; whether A(AA) vanishes).  The
two-dimensional case is exposed only as a parametric constructor, since
no complete classification is available.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm
from operator import mul

from .exactlin import Mat, int_rank, is_symmetric, rref, scale_columns
from .algebra import (
    Algebra,
    DimensionMismatchError,
    check_fermionic,
    check_left_symmetric,
)
from .forms import SymForm, nondegenerate_form


class ScrambleError(RuntimeError):
    pass


def make_family(variant: int, n: int) -> Algebra:
    """The zero algebra (variant 0) or one of the three one-product
    families: e1 e1 = e2, e1 e2 = e2, e1 e3 = e2 (variants 1-3), padded
    with zero directions up to dimension n."""
    minimum = {0: 0, 1: 2, 2: 2, 3: 3}
    if variant not in minimum:
        raise ValueError(f"unknown family variant {variant}")
    if n < minimum[variant]:
        raise ValueError(f"variant {variant} needs dimension >= {minimum[variant]}")
    return Algebra.from_products(n, [(0, variant - 1, 1, 1)] if variant else [])


def classify_k1(A: Algebra) -> int:
    """Which of the three one-dimensional-derived-subspace families A is
    isomorphic to: 1 if commutative, else 2 if A(AA) != 0, else 3, both
    read on int_tensor() C, commutativity as is_symmetric(C)."""
    if not (check_left_symmetric(A) and check_fermionic(A)):
        raise ValueError("algebra must satisfy both defining identities")
    if A.derived_dim() != 1:
        raise ValueError("derived subspace must be one-dimensional")
    if is_symmetric(A.int_tensor()[0]):
        return 1
    # the one row f of the reduced basis spans the derived line, and
    # (e_i f)[m] = sum_t f[t] C[i][t][m] / den on the integer tensor
    C, _ = A.int_tensor()
    f = A.derived_basis()[1][0]
    return 2 if any(sum(map(mul, f, col)) for row in C for col in zip(*row)) else 3


@dataclass
class K2Params:
    """Parameters of the two-dimensional-derived-subspace family:
    e1 e_i = lam_i e2 + mu_i e4, e3 e_i = mu_i e2 + gam_i e4.  The
    length-n vectors are kept as given; make_k2 converts them."""

    n: int
    lam: list
    mu: list
    gam: list

    def __post_init__(self):
        if self.n < 5:
            raise ValueError("dimension must be at least 5")
        for name in ("lam", "mu", "gam"):
            vec = getattr(self, name)
            if len(vec) != self.n:
                raise ValueError(f"{name} must have length {self.n}")


def make_k2(params: K2Params) -> Algebra:
    return Algebra.from_products(params.n, [
        t for i, (lam, mu, gam) in enumerate(zip(params.lam, params.mu, params.gam))
        for t in ((0, i, 1, lam), (0, i, 3, mu), (2, i, 1, mu), (2, i, 3, gam))])


def k2_condition(A: Algebra) -> bool:
    """Left multiplications of e1 and e3 commute.  On make_k2 outputs this
    is equivalent to the full identity checks.  L1 L3 e_j = L3 L1 e_j
    reads sum_t c[0][t][m] c[2][j][t] = sum_t c[2][t][m] c[0][j][t] for
    every m; both sides are quadratic in c, so int_tensor() decides it.
    Raises DimensionMismatchError below dimension 3, which has no e3."""
    n = A.dim
    if n < 3:
        raise DimensionMismatchError(f"k2_condition needs e1 and e3, so dimension >= 3, not {n}")
    C, _ = A.int_tensor()
    return all(
        sum(C[0][t][m] * C[2][j][t] - C[2][t][m] * C[0][j][t] for t in range(n)) == 0
        for j in range(n) for m in range(n)
    )


def random_k2(rnd: random.Random, n: int) -> K2Params:
    """Random integer parameters in [-3, 3] that vanish on the two image
    directions (v[1] = v[3] = 0), so L_{e1} L_{e3} = L_{e3} L_{e1} = 0 and
    k2_condition holds."""

    def vec():
        v = [rnd.randint(-3, 3) for _ in range(n)]
        v[1] = v[3] = 0
        return v

    return K2Params(n=n, lam=vec(), mu=vec(), gam=vec())


def transport_basis(A: Algebra, B, P: Mat):
    """Rewrite the algebra (and optional form) in the basis given by the
    columns of the invertible matrix P; raises ValueError when P is
    singular.  Each column of P is scaled to integers over its own
    denominator, and transport_columns rewrites A and B in that basis on
    integers; the products, and the form, go over the lcm of their scales."""
    if (P.rows, P.cols) != (A.dim, A.dim):
        raise DimensionMismatchError("basis change dimension mismatch")
    n = A.dim
    prods, form = transport_columns(A, B, scale_columns(P))
    den = lcm(*[t for _, t in prods.values()])
    C = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), (v, t) in prods.items():
        C[i][j] = v if t == den else [x * (den // t) for x in v]
    new = Algebra.from_ints(C, den)
    if form is None:
        return new, None
    db = lcm(*[t for row in form for _, t in row])
    return new, SymForm.from_ints([[x * (db // t) for x, t in row] for row in form], db)


def transport_columns(A: Algebra, B, cols):
    """transport_basis for P = Z diag(1/d) given by its columns, the
    (ints, den) pairs (z_i, d_i), on integers: (prods, form); raises
    ValueError when P is singular, and DimensionMismatchError when B is
    not of A's dimension.  prods is transport_products', and form is None
    without B, else transport_form's entries, on images Bi z_j computed
    here for every column, as P is arbitrary.

    Pinv F^T, with F = A.derived_basis()[1], is read from the integer
    reduction of [Z | F^T], which proves P invertible: it ends with p_m at
    (m, m) and y_m after column n, so Pinv F^T = diag(d) Z^-1 F^T has row m
    d_m y_m / p_m = q_m / g, q_m = d_m y_m g / p_m with g the lcm of the p_m.
    """
    n = A.dim
    if B is not None and B.dim != n:
        raise DimensionMismatchError("form dimension mismatch")
    _, F, _ = A.derived_basis()
    zrows = zip(*[z for z, _ in cols])
    a, apivots = rref([list(row) + [f[m] for f in F] for m, row in enumerate(zrows)], n + len(F))
    if apivots[:n] != list(range(n)):
        raise ValueError("singular basis change")
    g = lcm(*[row[m] for m, row in enumerate(a)])
    qs = [[y * dm * (g // row[m]) for y in row[n:]] for m, ((_, dm), row) in enumerate(zip(cols, a))]
    prods = transport_products(A, cols, qs, g)
    if B is None:
        return prods, None
    Bi, db = B.int_matrix()
    return prods, transport_form(cols, [[sum(map(mul, row, z)) for row in Bi] for z, _ in cols], db)


def transport_products(A: Algebra, cols, qs, g):
    """The products of A in the basis of P's columns cols, (ints, den)
    pairs (z_i, d_i), given Pinv F^T as the integer rows qs over g: a dict
    mapping each (i, j) with f_i f_j nonzero to that product as an (ints,
    den) pair.  Every caller has proved P invertible before it built qs.

    Every product lies in AA; F, L = A.derived_basis().  With C = dc c the
    integer tensor, f_i f_j = sum_a pi_ij[a] F[a] / (L dc d_i d_j) for
    f_i = z_i / d_i, where pi_ij[a] = z_i^T C^(p_a) z_j is its entry at the
    pivot p_a, and C^(p_a) z_j is row a of A.right_pencil() at z_j.  The
    pencil is read through its rho independent members, A.right_basis()'s
    (K, coef, gr): at z_j it is sum_l w_j[l] Lambda_{K_l} / gr with w_j =
    coef z_j, so gr pi_ij = sum_l w_j[l] V_i[l] with V_i[l] = Lambda_{K_l}
    z_i, in rho k n^2 multiply-adds, not the n^4 of a full contraction.
    Only the pairs with V_i and w_j both nonzero are contracted: V_i = 0
    is f_i A = 0, and w_j = 0 is A f_j = 0.  Then c'[i][j][m] = sum_a gr
    pi_ij[a] qs[m][a] / (dc L d_i d_j g gr), expanded only where pi_ij is
    nonzero, and only on the nonzero rows qs[m]; the other entries are 0.
    """
    zcols, d = [z for z, _ in cols], [dj for _, dj in cols]
    _, _, L = A.derived_basis()
    kept, coef, gr = A.right_basis()
    mats = A.right_pencil().mats
    ws = [[sum(map(mul, c, zj)) for c in coef] for zj in zcols]
    # V[i][a][l] = (Lambda_{K_l} z_i)[a], so gr pi_ij[a] = sum_l ws[j][l] V[i][a][l]
    V = [list(zip(*[[sum(map(mul, row, zi)) for row in mats[j]] for j in kept])) for zi in zcols]
    left = [(i, Vi) for i, Vi in enumerate(V) if any(map(any, Vi))]
    right = [(j, wj) for j, wj in enumerate(ws) if any(wj)]
    rows = [(m, q) for m, q in enumerate(qs) if any(q)]
    _, dc = A.int_tensor()
    prods = {}
    for i, Vi in left:
        for j, wj in right:
            pi = [sum(map(mul, wj, v)) for v in Vi]
            if any(pi):
                v = [0] * len(qs)
                for m, q in rows:
                    v[m] = sum(map(mul, pi, q))
                prods[i, j] = (v, dc * L * d[i] * d[j] * g * gr)
    return prods


def transport_form(cols, Bz, db):
    """The form in the basis of P's columns cols, (ints, den) pairs (z_i,
    d_i), given their images Bz[j] = Bi z_j, with Bi, db = B.int_matrix():
    the (numerator, denominator) pairs (z_i^T Bi z_j, d_i d_j db).  Each
    entry is computed once, for i <= j, and mirrored, as Bi is symmetric."""
    n = len(cols)
    form = [[None] * n for _ in range(n)]
    for i, (zi, di) in enumerate(cols):
        for j in range(i, n):
            form[i][j] = form[j][i] = (sum(map(mul, zi, Bz[j])), di * cols[j][1] * db)
    return form


def scramble(A: Algebra, B, seed):
    """Transport the algebra (and optional form) through a seeded random
    invertible integer basis change P with entries in [-3, 3].

    Returns (Algebra, SymForm or None, P).  All identity checks, the
    derived dimension, the signature and the generic rank are invariant
    under this transport.
    """
    n = A.dim
    rnd = random.Random(seed)
    P = None
    for _ in range(64):
        cand = [[rnd.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if int_rank(cand, n) == n:
            P = Mat(cand)
            break
    if P is None:
        raise ScrambleError("no invertible basis change found in 64 attempts")
    new, newB = transport_basis(A, B, P)
    return new, newB, P


def generate_corpus(seed, count):
    """Seeded corpus for end-to-end verification: the three families with
    random padding dimension, plus two-dimensional-derived-subspace draws
    admitting a nondegenerate invariant form, each scrambled.

    Yields (name, Algebra, SymForm)."""
    rnd = random.Random(seed)
    made = 0
    while made < count:
        kind = rnd.randrange(4)
        if kind < 3:
            variant = kind + 1
            n = rnd.randint(3 if variant == 3 else 2, 8)
            A = make_family(variant, n)
            name = f"family{variant}_dim{n}"
        else:
            n = rnd.randint(5, 8)
            A = make_k2(random_k2(rnd, n))
            name = f"k2_dim{n}"
        _, B = nondegenerate_form(A, rnd.randrange(2**30))
        if B is None:
            continue
        A2, B2, _ = scramble(A, B, rnd.randrange(2**30))
        yield f"{name}_{made}", A2, B2
        made += 1
