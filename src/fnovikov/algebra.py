"""Structure-constant algebras and the defining identity checkers.

An algebra of dimension n is a rank-3 tensor c with e_i e_j = sum_m
c[i][j][m] e_m.  Elements are plain length-n lists of exact rationals.
All identity checks run over basis triples, which suffices by
trilinearity.
"""

from __future__ import annotations

from operator import mul

from .scalars import QQ, ZERO, ONE
from .exactlin import Mat, rank, scale_to_int


class DimensionMismatchError(ValueError):
    pass


def basis_element(dim, i):
    """Standard basis vector e_i (0-based)."""
    v = [ZERO] * dim
    v[i] = ONE
    return v


def zero_element(dim):
    return [ZERO] * dim


class Algebra:
    """Finite-dimensional algebra given by its structure constants."""

    __slots__ = ("dim", "c")

    def __init__(self, dim, c):
        self.dim = dim
        self.c = [
            [[QQ(x) for x in vec] for vec in row] for row in c
        ]
        if len(self.c) != dim or any(
            len(row) != dim or any(len(vec) != dim for vec in row)
            for row in self.c
        ):
            raise ValueError("structure tensor must be dim x dim x dim")

    @classmethod
    def zero(cls, dim):
        a = object.__new__(cls)
        a.dim = dim
        a.c = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        return a

    @classmethod
    def from_products(cls, dim, products):
        """Build from sparse products: iterable of (i, j, m, coeff), 0-based."""
        a = cls.zero(dim)
        for i, j, m, coeff in products:
            a.c[i][j][m] = QQ(coeff)
        return a

    def __eq__(self, other):
        return isinstance(other, Algebra) and self.dim == other.dim and self.c == other.c

    def __repr__(self):
        nz = [
            (i, j, m, str(v))
            for i, row in enumerate(self.c)
            for j, vec in enumerate(row)
            for m, v in enumerate(vec)
            if v
        ]
        return f"Algebra(dim={self.dim}, nonzero={nz!r})"

    def multiply(self, x, y):
        """Bilinear extension of the structure tensor."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise DimensionMismatchError("element dimension mismatch")
        out = [ZERO] * n
        for i, xi in enumerate(x):
            if not xi:
                continue
            ci = self.c[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                f = xi * yj
                cij = ci[j]
                for m in range(n):
                    if cij[m]:
                        out[m] += f * cij[m]
        return out

    def right_op(self, x) -> Mat:
        """Matrix of y -> yx in the standard basis."""
        n = self.dim
        if len(x) != n:
            raise DimensionMismatchError("element dimension mismatch")
        js = [j for j in range(n) if x[j]]
        data = [[ZERO] * n for _ in range(n)]
        if not js:
            return Mat._raw(data, n)
        (xv,), dx = scale_to_int([[x[j] for j in js]])
        vecs, dc = scale_to_int([self.c[i][j] for i in range(n) for j in js])
        den = dx * dc
        s = len(js)
        for i in range(n):
            # column i is sum_j x_j c[i][j]
            for m, col in enumerate(zip(*vecs[i * s:(i + 1) * s])):
                v = sum(map(mul, xv, col))
                if v:
                    data[m][i] = QQ(v, den)
        return Mat._raw(data, n)

    def left_op(self, x) -> Mat:
        """Matrix of y -> xy in the standard basis."""
        n = self.dim
        if len(x) != n:
            raise DimensionMismatchError("element dimension mismatch")
        data = [[ZERO] * n for _ in range(n)]
        for i, xi in enumerate(x):
            if not xi:
                continue
            ci = self.c[i]
            for j in range(n):
                cij = ci[j]
                for m in range(n):
                    if cij[m]:
                        data[m][j] += xi * cij[m]
        return Mat._raw(data, n)

    def right_ops(self):
        """Right-multiplication matrices of all basis elements."""
        n = self.dim
        c = self.c
        return [
            Mat._raw([[c[i][j][m] for i in range(n)] for m in range(n)], n)
            for j in range(n)
        ]

    def int_tensor(self):
        """(C, den): C is the structure constants times den, the lcm of
        their denominators, as a nested list of ints indexed like c."""
        n = self.dim
        flat, den = scale_to_int([vec for row in self.c for vec in row])
        return [flat[i * n:(i + 1) * n] for i in range(n)], den

    def derived_dim(self) -> int:
        """Dimension of the span of all basis products e_i e_j."""
        rows = [self.c[i][j] for i in range(self.dim) for j in range(self.dim)]
        if not rows:
            return 0
        return rank(Mat(rows, self.dim))


# The identity checks run on int_tensor(): every identity is homogeneous in
# the structure constants, so scaling them to integers keeps each verdict.


def int_right_ops(C):
    """rows[j][m][t] = C[t][j][m]: row m of the integer matrix of R_{e_j}."""
    n = len(C)
    return [[[C[t][j][m] for t in range(n)] for m in range(n)] for j in range(n)]


def _dot(u, v):
    return sum(map(mul, u, v))


def check_left_symmetric(A: Algebra) -> bool:
    """(xy)z - x(yz) = (yx)z - y(xz) on all basis triples."""
    n = A.dim
    C, _ = A.int_tensor()
    right = int_right_ops(C)
    # left[i][m][t] = C[i][t][m]: row m of the integer matrix of L_{e_i}
    left = [[[C[i][t][m] for t in range(n)] for m in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            # the identity is trivially true for x = y, so skip i == j;
            # for x = e_i, y = e_j, z = e_k it reads
            # R_k (xy - yx) = L_i (yz) - L_j (xz)
            comm = [a - b for a, b in zip(C[i][j], C[j][i])]
            Li, Lj = left[i], left[j]
            for k in range(n):
                Rk = right[k]
                cjk, cik = C[j][k], C[i][k]
                for m in range(n):
                    if _dot(Rk[m], comm) != _dot(Li[m], cjk) - _dot(Lj[m], cik):
                        return False
    return True


def _right_ops_relation(A: Algebra, sign, diagonal) -> bool:
    """R_i R_j + sign * R_j R_i = 0 for all i < j (i <= j with diagonal)."""
    n = A.dim
    C, _ = A.int_tensor()
    right = int_right_ops(C)
    # column t of R_{e_j} is C[t][j], so (R_i R_j)[m][t] = right[i][m] . C[t][j]
    for i in range(n):
        Ri = right[i]
        for j in range(i if diagonal else i + 1, n):
            Rj = right[j]
            for m in range(n):
                for t in range(n):
                    if _dot(Ri[m], C[t][j]) + sign * _dot(Rj[m], C[t][i]):
                        return False
    return True


def check_fermionic(A: Algebra) -> bool:
    """(xy)z = -(xz)y, i.e. the right multiplications pairwise anticommute."""
    return _right_ops_relation(A, 1, diagonal=True)


def check_novikov(A: Algebra) -> bool:
    """(xy)z = (xz)y, i.e. the right multiplications pairwise commute."""
    return _right_ops_relation(A, -1, diagonal=False)


def commutator_check(A: Algebra) -> bool:
    """Jacobi identity for the commutator [x,y] = xy - yx.

    Must hold whenever A is left-symmetric; exposed as a cross-check.
    """
    n = A.dim
    b = [
        [[A.c[i][j][m] - A.c[j][i][m] for m in range(n)] for j in range(n)]
        for i in range(n)
    ]

    def brk(x, y):
        out = [ZERO] * n
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                f = xi * yj
                for m in range(n):
                    if b[i][j][m]:
                        out[m] += f * b[i][j][m]
        return out

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                ei, ej, ek = (basis_element(n, t) for t in (i, j, k))
                total = brk(brk(ei, ej), ek)
                for m, v in enumerate(brk(brk(ej, ek), ei)):
                    total[m] += v
                for m, v in enumerate(brk(brk(ek, ei), ej)):
                    total[m] += v
                if any(total):
                    return False
    return True


# ---------------------------------------------------------------------------
# witness search

# Wedge table on a 4-dimensional exterior algebra with basis
# 1, v1, v2, v1^v2: _WEDGE[s][i] is (index, sign) of e_i ^ v_{s+1}, or None.
_WEDGE = (
    ((1, 1), None, (3, -1), None),  # wedge by v1
    ((2, 1), (3, 1), None, None),  # wedge by v2
)


def search_fermionic_not_novikov(values=(-1, 0, 1)):
    """Search for algebras that pass the anticommutation identity and
    left-symmetry but fail the commutation identity (so some R_x R_y != 0).

    Two anticommuting square-zero operators with nonzero product need at
    least a 4-dimensional space, where they act like exterior
    multiplications on Lambda(R^2).  The search therefore enumerates all
    maps phi: A -> span(v1, v2) with coordinates drawn from `values`,
    forms the product y x = y ^ phi(x), and keeps candidates confirmed by
    the full identity checkers.  Yields witnesses as Algebra instances.
    """
    coords = [(a, b) for a in values for b in values]
    for phi in _phi_choices(coords):
        # R_x R_y != 0 needs phi of rank 2; cheap prefilter
        if not any(
            p[0] * q[1] - p[1] * q[0]
            for pi, p in enumerate(phi)
            for q in phi[pi + 1:]
        ):
            continue
        A = Algebra.zero(4)
        for j, (p1, p2) in enumerate(phi):
            for i in range(4):
                for coeff, w in ((p1, _WEDGE[0][i]), (p2, _WEDGE[1][i])):
                    if coeff and w is not None:
                        A.c[i][j][w[0]] += coeff * w[1]
        # every rank-2 candidate anticommutes and few are left-symmetric,
        # so left-symmetry rejects them soonest
        if check_left_symmetric(A) and check_fermionic(A) and not check_novikov(A):
            yield A


def _phi_choices(coords):
    for a in coords:
        for b in coords:
            for c in coords:
                for d in coords:
                    yield (a, b, c, d)


def search_breaking_mutation(A: Algebra, values=(-1, 1, 2)):
    """First single-entry mutation of the structure tensor that breaks one
    of the three defining identities; returns (i, j, m, value, mutated)
    or None."""
    n = A.dim
    for i in range(n):
        for j in range(n):
            for m in range(n):
                for v in values:
                    if A.c[i][j][m] == v:
                        continue
                    mutated = Algebra(n, A.c)
                    mutated.c[i][j][m] = QQ(v)
                    if not (
                        check_left_symmetric(mutated)
                        and check_fermionic(mutated)
                        and check_novikov(mutated)
                    ):
                        return i, j, m, QQ(v), mutated
    return None
