"""Structure-constant algebras and the defining identity checkers.

An algebra of dimension n is held as one integer tensor C over one
denominator den: e_i e_j = sum_m (C[i][j][m] / den) e_m.  Elements are
plain length-n lists of exact rationals.  All identity checks run over
basis triples, which suffices by trilinearity.  The R_x anticommute and
commute exactly when (AA)A = 0, the theorem's conclusion, which is read
on all the R_x first; then left-symmetry is commuting left
multiplications, which one commutation pass decides.  Otherwise one
commutation pass on the independent R_x decides both product identities.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
from operator import add, mul, sub

from .scalars import QQ, ZERO, ONE
from .exactlin import Pencil, rref, scale_to_int


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
    """Finite-dimensional algebra given by its structure constants.

    Its one state is int_tensor(), the pair (C, den), set by the
    constructors and never changed: den is the lcm of the constants'
    lowest-terms denominators.  Algebra(dim, c) scales rational constants
    c[i][j][m] once; from_ints, from_products and zero take integers or
    sparse products.  The reduced basis of the derived algebra,
    the right pencil (the one integer table of the R_x) and the verdicts
    of the three defining identities are computed from it on first use
    and cached, and so are the independent members of the right pencil.
    """

    __slots__ = ("dim", "_tensor", "_derived_basis", "_right_pencil", "_right_basis", "_identities")

    def __init__(self, dim, c):
        c = [[[QQ(x) for x in vec] for vec in row] for row in c]
        if len(c) != dim or any(
            len(row) != dim or any(len(vec) != dim for vec in row)
            for row in c
        ):
            raise ValueError("structure tensor must be dim x dim x dim")
        flat, den = scale_to_int([vec for row in c for vec in row])
        self.dim, self._tensor = dim, ([flat[i * dim:(i + 1) * dim] for i in range(dim)], den)
        self._derived_basis = self._right_pencil = self._right_basis = self._identities = None

    @classmethod
    def from_ints(cls, C, den):
        """The algebra with structure constants C[i][j][m] / den, for ints
        and den > 0, with the gcd of den and the entries divided out.  The
        gcd is taken one nonzero vector C[i][j] at a time and stops at 1,
        so no sequence of all n^3 entries is built.  C is kept as it came
        when the gcd is 1: never mutate it."""
        g = den
        for vec in itertools.chain.from_iterable(C):
            if g == 1:
                break
            if any(vec):
                g = gcd(g, *vec)
        if g != 1:
            C = [[[x // g for x in vec] for vec in row] for row in C]
        a = object.__new__(cls)
        a.dim, a._tensor = len(C), (C, den // g)
        a._derived_basis = a._right_pencil = a._right_basis = a._identities = None
        return a

    @classmethod
    def zero(cls, dim):
        return cls.from_ints([[[0] * dim for _ in range(dim)] for _ in range(dim)], 1)

    @classmethod
    def from_products(cls, dim, products):
        """Build from sparse products: iterable of (i, j, m, coeff), 0-based."""
        products = [(i, j, m, QQ(x)) for i, j, m, x in products]
        den = lcm(*[x.denominator for *_, x in products])
        C = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        for i, j, m, x in products:
            C[i][j][m] = x.numerator * (den // x.denominator)
        return cls.from_ints(C, den)

    def __eq__(self, other):
        return isinstance(other, Algebra) and self.dim == other.dim and self._tensor == other._tensor

    def __repr__(self):
        C, den = self._tensor
        nz = [
            (i, j, m, str(QQ(x, den)))
            for i, row in enumerate(C)
            for j, vec in enumerate(row)
            for m, x in enumerate(vec)
            if x
        ]
        return f"Algebra(dim={self.dim}, nonzero={nz!r})"

    def multiply(self, x, y):
        """Bilinear extension of the structure tensor."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise DimensionMismatchError("element dimension mismatch")
        C, den = self._tensor
        out = [ZERO] * n
        for xi, ci in zip(x, C):
            if not xi:
                continue
            for yj, cij in zip(y, ci):
                if not yj:
                    continue
                f = QQ(xi * yj, den)
                for m, v in enumerate(cij):
                    if v:
                        out[m] += f * v
        return out

    def int_tensor(self):
        """(C, den): C is the structure constants times den, the lcm of
        their lowest-terms denominators, as a nested list of ints indexed
        C[i][j][m].  Every caller shares the lists, which must not be
        mutated."""
        return self._tensor

    def derived_basis(self):
        """(pivots, F, L): the integer reduced row echelon form of the n^2
        product vectors e_i e_j of int_tensor(), whose span is the derived
        algebra AA, computed once per instance.

        pivots are its pivot columns p_0 < ... < p_{k-1}, k = dim AA, and F
        its k nonzero rows, scaled so that F[a] is L at p_a and 0 at every
        other pivot.  So AA projects injectively onto the pivots, and v in
        AA is sum_a v[p_a] F[a] / L.  The lists are shared; never mutate."""
        if self._derived_basis is None:
            C, _ = self.int_tensor()
            F, pivots = rref((vec for row in C for vec in row), self.dim)
            L = lcm(*[f[p] for f, p in zip(F, pivots)])
            F = [f if f[p] == L else [x * (L // f[p]) for x in f] for f, p in zip(F, pivots)]
            self._derived_basis = pivots, F, L
        return self._derived_basis

    def derived_pivots(self):
        """The pivot columns of derived_basis(), in increasing order."""
        return self.derived_basis()[0]

    def derived_dim(self) -> int:
        """Dimension of the span AA of all basis products e_i e_j: the
        number of derived_pivots()."""
        return len(self.derived_pivots())

    def right_pencil(self) -> Pencil:
        """The k x n pencil sum_j t_j R_{e_j} on the rows derived_pivots(),
        on int_tensor() C, computed once per instance: mats[j][a][t] =
        C[t][j][p_a].  Every R_x maps into AA, which projects injectively
        onto those rows, so the value at x has the rank of R_x, and the
        pencil the generic rank of the full n x n one."""
        if self._right_pencil is None:
            rows = self.derived_pivots()
            self._right_pencil = Pencil(_int_right_ops(self.int_tensor()[0], rows),
                                        len(rows), self.dim)
        return self._right_pencil

    def right_basis(self):
        """(K, coef, g) = _independent(right_pencil().mats), computed once
        per instance: the rho j whose R_{e_j} is independent of the earlier
        ones (AA projects injectively onto the pencil's rows), and g
        Lambda_t = sum_l coef[l][t] Lambda_{K_l} for every member Lambda_t.
        The lists are shared; never mutate."""
        if self._right_basis is None:
            self._right_basis = _independent(self.right_pencil().mats)
        return self._right_basis

    def identities(self):
        """(left_symmetric, fermionic, novikov): the verdicts of the three
        defining identities, decided once per instance on int_tensor() at
        derived_pivots().

        The first test is whether (AA)A = 0, read on all n members of
        right_pencil() (_annihilates), in k^2 n^2 multiply-adds that stop
        at the first nonzero entry.  In characteristic 0 fermionic and
        Novikov both hold exactly when it does, and then left-symmetry
        reads x(yz) = y(xz): the left multiplications commute, which the
        commutation pass decides on the L_x that _independent finds
        independent, with no right_basis().  Otherwise one commutation
        pass on the independent members of the pencil, right_basis()'s K,
        decides fermionic and Novikov, as the anticommute and commute
        tests are bilinear in the R_x, so a basis of their span decides
        them; the general left-symmetry pass decides left-symmetry."""
        if self._identities is None:
            C = self.int_tensor()[0]
            rows, F, _ = self.derived_basis()
            right = self.right_pencil().mats
            if _annihilates(F, right):
                left = _int_left_ops(C, rows)
                left = [left[x] for x in _independent(left)[0]]
                self._identities = (_commutation(F, left)[1], True, True)
            else:
                fermionic, novikov = _commutation(F, [right[j] for j in self.right_basis()[0]])
                self._identities = (_left_symmetric(C, rows, right), fermionic, novikov)
        return self._identities


# The identity passes run on an integer structure tensor C, int_tensor() or
# a witness candidate's: every identity is homogeneous in the structure
# constants, so scaling them to integers keeps each verdict.  Every term
# of every identity is a product, so it lies in AA, and each pass reads
# only coordinates onto which AA projects injectively: derived_pivots(),
# k = dim AA of them, and for the commutation pass derived_basis()'s F,
# unless the caller knows such coordinates, and a basis there, without an
# elimination.  Whether every R_j kills AA is read on all n of them, in
# k^2 n^2 multiply-adds, with no elimination.  The commutation pass runs
# on the independent operators of a family, which _independent finds in
# one rref of k n rows of n entries: on the rho kept R_j, which it reads
# only when some product is nonzero, it costs rho^2 k^2 n multiply-adds,
# and on the kept L_x rho k^2 n when every product vanishes; the witness
# search passes all four R_j.  The general left-symmetry pass costs k n^4,
# not n^5.


def _independent(ops):
    """(K, coef, g) for integer matrices ops of one shape: K, increasing,
    are the t whose ops[t] is independent of the earlier ones, and g ops[t]
    = sum_l coef[l][t] ops[K[l]] for every t, g > 0.  One rref of the table
    whose column t is ops[t] flattened gives both: K are its pivot
    columns, and row operations keep the relations between columns."""
    z, K = rref(zip(*map(itertools.chain.from_iterable, ops)), len(ops))
    g = lcm(*[row[t] for row, t in zip(z, K)])
    return K, [row if row[t] == g else [x * (g // row[t]) for x in row] for row, t in zip(z, K)], g


def _int_right_ops(C, rows):
    """ops[j][r][t] = C[t][j][m] with m = rows[r]: the rows `rows` of the
    integer matrix of R_{e_j}."""
    n = len(C)
    return [[[C[t][j][m] for t in range(n)] for m in rows] for j in range(n)]


def _int_left_ops(C, rows):
    """ops[i][r][t] = C[i][t][m] with m = rows[r]: the rows `rows` of the
    integer matrix of L_{e_i}."""
    n = len(C)
    return [[[C[i][t][m] for t in range(n)] for m in rows] for i in range(n)]


def _left_symmetric(C, rows, right) -> bool:
    """(xy)z - x(yz) = (yx)z - y(xz) on all basis triples of the algebra
    with integer structure tensor C, compared at the coordinates rows;
    right = _int_right_ops(C, rows)."""
    n = len(C)
    left = _int_left_ops(C, rows)
    for i in range(n):
        Li = left[i]
        for j in range(i + 1, n):
            # the identity is trivially true for x = y, so skip i == j;
            # for x = e_i, y = e_j, z = e_k it reads
            # R_k (xy - yx) = L_i (yz) - L_j (xz), compared at one
            # coordinate of rows at a time, so the check stops at the first
            # unequal entry
            Lj = left[j]
            comm = [a - b for a, b in zip(C[i][j], C[j][i])]
            for Rk, cjk, cik in zip(right, C[j], C[i]):
                for r, a, b in zip(Rk, Li, Lj):
                    if sum(map(mul, r, comm)) != sum(map(mul, a, cjk)) - sum(map(mul, b, cik)):
                        return False
    return True


def _annihilates(F, ops):
    """Whether every T_i maps the span of the rows F[a] = f_a to 0, for F
    and ops as _commutation takes them: whether every (T_i f_a)[p_b] =
    sum_t ops[i][b][t] f_a[t] vanishes, which stops at the first that does
    not.  On all n R_x that is (AA)A = 0, in k^2 n^2 multiply-adds."""
    return not any(sum(map(mul, row, f)) for T in ops for row in T for f in F)


def _commutation(F, ops):
    """(anticommute, commute): whether T_i T_j + T_j T_i = 0 for all i, j,
    and whether T_i T_j = T_j T_i, for operators T_i that map into the span
    of the rows F[a] = f_a, given by their rows at the pivots p_a of F:
    ops[i][b][t] = (T_i e_t)[p_b].  F is derived_basis()'s, or any integer
    basis that is L at p_a and 0 at the other pivots.

    T_j e_t is sum_a ops[j][a][t] f_a / L, so (T_i T_j e_t)[p_b] is
    sum_a G_i[b][a] ops[j][a][t] / L, with G_i[b][a] = (T_i f_a)[p_b]: a
    pair is compared as the k x n products G_i ops[j] and -+G_j ops[i], one
    pair i <= j at a time.  When every G_i vanishes, every product does:
    for the R_x that is (AA)A = 0, decided in k^2 n^2 multiply-adds."""
    if _annihilates(F, ops):
        return True, True
    G = [[[sum(map(mul, row, f)) for f in F] for row in T] for T in ops]
    cols = [list(zip(*T)) for T in ops]

    def product(i, j):
        return [sum(map(mul, g, c)) for g in G[i] for c in cols[j]]

    anticommute = commute = True
    for i, j in itertools.combinations_with_replacement(range(len(ops)), 2):
        pij = product(i, j)
        pji = product(j, i) if j > i else pij
        anticommute = anticommute and not any(map(add, pij, pji))
        commute = commute and pij == pji
        if not (anticommute or commute):
            return False, False
    return anticommute, commute


def check_left_symmetric(A: Algebra) -> bool:
    """(xy)z - x(yz) = (yx)z - y(xz): A.identities()[0]."""
    return A.identities()[0]


def check_fermionic(A: Algebra) -> bool:
    """(xy)z = -(xz)y, the R_x pairwise anticommute: A.identities()[1]."""
    return A.identities()[1]


def check_novikov(A: Algebra) -> bool:
    """(xy)z = (xz)y, the R_x pairwise commute: A.identities()[2]."""
    return A.identities()[2]


def commutator_check(A: Algebra) -> bool:
    """Jacobi identity for the commutator [x,y] = xy - yx on basis triples
    i < j < k, read on int_tensor() C: with D[i][j] = C[i][j] - C[j][i],
    sum_m D[i][j][m] D[m][k] plus its two cyclic terms must vanish.

    Must hold whenever A is left-symmetric; exposed as a cross-check.
    """
    n = A.dim
    C, _ = A.int_tensor()
    D = [[list(map(sub, C[i][j], C[j][i])) for j in range(n)] for i in range(n)]
    # cols[k][t] = (D[m][k][t])_m: term(i, j, k) is den^2 [[e_i, e_j], e_k]
    cols = [list(zip(*(D[m][k] for m in range(n)))) for k in range(n)]

    def term(i, j, k):
        return [sum(map(mul, D[i][j], col)) for col in cols[k]]

    return not any(any(map(add, term(i, j, k), map(add, term(j, k, i), term(k, i, j))))
                   for i, j, k in itertools.combinations(range(n), 3))


# ---------------------------------------------------------------------------
# witness search

# The values a v1 + b v2 of phi(e_j) that the search tries, and the wedge
# by each on Lambda(R^2), with basis 1, v1, v2, v1^v2: _WEDGE_BY[a, b][i] =
# e_i ^ (a v1 + b v2), the column C[i][j] of every candidate with phi(e_j)
# = (a, b).  No wedge has a part along 1, so every candidate's AA lies in
# span(v1, v2, v1^v2): the checks read the rows _WEDGE_ROWS with no
# elimination, the commutation pass with the unit rows there as its basis,
# and _WEDGE_RIGHT[p] holds those rows of the wedge by p.
_WEDGE_BY = {(a, b): [[0, a, b, 0], [0, 0, 0, b], [0, 0, 0, -a], [0, 0, 0, 0]]
             for a in (-1, 0, 1) for b in (-1, 0, 1)}
_WEDGE_ROWS = (1, 2, 3)
_WEDGE_BASIS = [[int(t == m) for t in range(4)] for m in _WEDGE_ROWS]
_WEDGE_RIGHT = {p: [[col[m] for col in cols] for m in _WEDGE_ROWS] for p, cols in _WEDGE_BY.items()}


def _wedge_tensor(phi):
    """(C, right) of the candidate y x = y ^ phi(x), phi(e_j) = phi[j]: its
    integer structure tensor, linear in phi, and _int_right_ops(C,
    _WEDGE_ROWS).  The lists are shared between candidates; never mutate."""
    return [[_WEDGE_BY[p][i] for p in phi] for i in range(4)], [_WEDGE_RIGHT[p] for p in phi]


def search_fermionic_not_novikov():
    """Search for algebras that pass the anticommutation identity and
    left-symmetry but fail the commutation identity (so some R_x R_y != 0).

    Two anticommuting square-zero operators with nonzero product need at
    least a 4-dimensional space, where they act like exterior
    multiplications on Lambda(R^2).  The search therefore tries maps phi:
    A -> span(v1, v2) with coordinates in {-1, 0, 1}, phi(e_j) = a_j v1 +
    b_j v2 = phi[j] on the basis e0 = 1, e1 = v1, e2 = v2, e3 = v1^v2, with
    the product y x = y ^ phi(x), so L_y = (y ^) phi and L_1 = phi.
    R_x R_y != 0 needs phi of rank 2, and then left-symmetry, L_{xy - yx}
    = [L_x, L_y], forces two conditions at x = 1:
    - phi(v1^v2) = 0: at y = v1^v2, y 1 = 0 and L_y = 0, so phi(v1^v2) ^
      phi(z) = 0 for every z, and phi has rank 2;
    - a1 + b2 = 0: at y = v1 or v2, with phi(v1^v2) = 0, the identity
      reads (a1 + b2) phi(e_j) = 0 for every j, and phi != 0.
    So it enumerates only phi[3] = (0, 0), in the order of the full grid,
    and examines 243 candidates instead of 6561; 210 have rank 2.  Both
    conditions are necessary only: each rank-2 survivor runs the
    left-symmetry and commutation passes on its integer tensor.  Only a
    witness is built as an Algebra, and it decides its identities afresh
    on its own tensor.  Yields witnesses.
    """
    for head in itertools.product(_WEDGE_BY, repeat=3):
        phi = (*head, (0, 0))
        # left-symmetry forces a1 + b2 = 0, and R_x R_y != 0 needs phi of
        # rank 2; cheap prefilters
        if phi[1][0] + phi[2][1]:
            continue
        if not any(p[0] * q[1] - p[1] * q[0] for pi, p in enumerate(phi) for q in phi[pi + 1:]):
            continue
        C, right = _wedge_tensor(phi)
        if not _left_symmetric(C, _WEDGE_ROWS, right):
            continue
        fermionic, novikov = _commutation(_WEDGE_BASIS, right)
        if fermionic and not novikov:
            yield Algebra.from_ints(C, 1)


def search_breaking_mutation(A: Algebra):
    """First single-entry mutation of the structure tensor, to -1, 1 or 2,
    that breaks one of the defining identities; returns (i, j, m, value,
    mutated) or None."""
    C, den = A.int_tensor()
    for i, j, m in itertools.product(range(A.dim), repeat=3):
        for v in (-1, 1, 2):
            if C[i][j][m] != v * den:
                T = [[vec[:] for vec in row] for row in C]
                T[i][j][m] = v * den
                mutated = Algebra.from_ints(T, den)
                if not all(mutated.identities()):
                    return i, j, m, QQ(v), mutated
    return None
