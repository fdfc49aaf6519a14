"""Exact rational and polynomial-matrix linear algebra kernel.

Everything here is over exact rationals (see scalars.py).  Rational
matrices are scaled to Python ints over a common denominator for products,
rank, determinant and row reduction, which run fraction-free; polynomial
matrices use dense multivariate polynomials, scaled to integer
coefficients in the same way, and fraction-free (Bareiss) elimination so
that rank over the fraction field is computed without any
rational-function arithmetic.

Pivoting is deterministic everywhere: first nonzero entry in row-major
order.
"""

from __future__ import annotations

import random
from math import gcd, lcm
from operator import add, mul, sub

from .scalars import QQ, ZERO, ONE


class GenericPointError(RuntimeError):
    """Raised when no full-rank specialization point is found within the
    attempt cap.  For a nonzero determinantal locus over the rationals this
    is (Schwartz-Zippel) essentially impossible; hitting it means a bug."""


# ---------------------------------------------------------------------------
# integer arithmetic over a common denominator


def scale_to_int(rows):
    """(int_rows, den): den is the lcm of the denominators of the rationals
    in rows, and rows[i][j] == int_rows[i][j] / den exactly.

    Python ints multiply and add far faster than normalized rationals, so
    the hot loops run on the scaled integers and divide by the scale once.
    """
    dens = [int(x.denominator) for row in rows for x in row]
    den = lcm(*dens)
    if den == 1:
        return [[int(x.numerator) for x in row] for row in rows], 1
    it = iter(dens)
    return [
        [int(x.numerator) * (den // next(it)) for x in row] for row in rows
    ], den


def int_rank(rows, cols):
    """Rank of an integer matrix given as a list of row lists."""
    return _bareiss(list(rows), cols)[0]


# ---------------------------------------------------------------------------
# rational matrices


class Mat:
    """Dense row-major matrix over exact rationals.

    Treated as immutable after construction; all operations return new
    matrices, and the integer-scaled entries are computed once (scaled()).
    """

    __slots__ = ("rows", "cols", "data", "_scaled")

    def __init__(self, data, cols=None):
        self._scaled = None
        self.data = [[QQ(x) for x in row] for row in data]
        self.rows = len(self.data)
        if self.data:
            self.cols = len(self.data[0])
        else:
            self.cols = 0 if cols is None else cols
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")

    @classmethod
    def _raw(cls, data, cols=None):
        # internal: entries already exact scalars, skip conversion
        m = object.__new__(cls)
        m._scaled = None
        m.data = data
        m.rows = len(data)
        m.cols = len(data[0]) if data else (0 if cols is None else cols)
        return m

    @classmethod
    def zeros(cls, rows, cols):
        return cls._raw([[ZERO] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n):
        return cls._raw(
            [[ONE if i == j else ZERO for j in range(n)] for i in range(n)], n
        )

    @classmethod
    def diagonal(cls, entries):
        entries = [QQ(x) for x in entries]
        n = len(entries)
        return cls._raw(
            [[entries[i] if i == j else ZERO for j in range(n)] for i in range(n)], n
        )

    def scaled(self):
        """scale_to_int(self.data), computed once per matrix."""
        if self._scaled is None:
            self._scaled = scale_to_int(self.data)
        return self._scaled

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return f"Mat({self.data!r})"

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Mat._raw(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
            self.cols,
        )

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Mat._raw(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ],
            self.cols,
        )

    def __neg__(self):
        return Mat._raw([[-a for a in row] for row in self.data], self.cols)

    def scale(self, c):
        c = QQ(c)
        return Mat._raw([[c * a for a in row] for row in self.data], self.cols)

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return self.scale(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        a, da = self.scaled()
        b, db = other.scaled()
        den = da * db
        bcols = list(zip(*b)) if b else [()] * other.cols
        return Mat._raw(
            [[QQ(s, den) if s else ZERO for s in (sum(map(mul, ra, col)) for col in bcols)]
             for ra in a],
            other.cols,
        )

    def transpose(self):
        return Mat._raw(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            self.rows,
        )

    def apply(self, vec):
        """Matrix-vector product, vec a sequence of length cols."""
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        a, da = self.scaled()
        (v,), dv = scale_to_int([vec])
        den = da * dv
        return [QQ(s, den) if s else ZERO for s in (sum(map(mul, row, v)) for row in a)]

    def col(self, j):
        return [row[j] for row in self.data]

    def is_zero(self):
        return all(not x for row in self.data for x in row)

    def is_symmetric(self):
        if self.rows != self.cols:
            return False
        d = self.data
        return all(
            d[i][j] == d[j][i] for i in range(self.rows) for j in range(i + 1, self.rows)
        )

    def copy_data(self):
        return [row[:] for row in self.data]


def _bareiss(a, cols):
    """Fraction-free (Bareiss) forward elimination of the integer rows a,
    in place, with row-major pivot choice.

    Returns (rank, sign of the row permutation).  Every entry stays an
    integer minor of the input, so each division by the previous pivot is
    exact; for a square nonsingular input a[-1][-1] * sign is its
    determinant.
    """
    rows = len(a)
    r = 0
    sign = 1
    prev = 1
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        prow = a[r]
        p = prow[c]
        for i in range(r + 1, rows):
            f = a[i][c]
            a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], prow)]
        prev = p
        r += 1
        if r == rows:
            break
    return r, sign


def rank(M: Mat) -> int:
    """Row rank, by fraction-free elimination of the integer-scaled rows."""
    return int_rank(M.scaled()[0], M.cols)


def _rref(a, rows, cols):
    """In-place reduced row echelon form; returns pivot column list.

    Eliminates on the integer-scaled rows without division, dividing each
    new row by the gcd of its entries; scaling a row leaves the reduced
    form unchanged.
    """
    z, _ = scale_to_int(a)
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if z[i][c]:
                piv = i
                break
        if piv is None:
            continue
        z[r], z[piv] = z[piv], z[r]
        prow = z[r]
        p = prow[c]
        for i in range(rows):
            f = z[i][c]
            if i != r and f:
                row = [x * p - f * y for x, y in zip(z[i], prow)]
                g = gcd(*row)
                z[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(rows):
        if i < r:
            p = z[i][pivots[i]]
            a[i] = [QQ(x, p) if x else ZERO for x in z[i]]
        else:
            a[i] = [ZERO] * cols
    return pivots


def kernel_basis(M: Mat):
    """Basis of the right kernel of M, as a list of length-cols vectors."""
    a = [row[:] for row in M.data if any(row)]
    cols = M.cols
    pivots = _rref(a, len(a), cols)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [ZERO] * cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


def solve(M: Mat, b):
    """One solution x of M x = b, or None if inconsistent."""
    if len(b) != M.rows:
        raise ValueError("shape mismatch")
    cols = M.cols
    a = [row[:] + [QQ(v)] for row, v in zip(M.data, b)]
    pivots = _rref(a, M.rows, cols + 1)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for r, pc in enumerate(pivots):
        x[pc] = a[r][cols]
    return x


def det(M: Mat):
    """Determinant, by fraction-free elimination of the integer-scaled
    rows: det(M) = det(den * M) / den**n."""
    if M.rows != M.cols:
        raise ValueError("square matrix required")
    n = M.rows
    if n == 0:
        return ONE
    a, den = M.scaled()
    a = list(a)
    r, sign = _bareiss(a, n)
    if r < n:
        return ZERO
    return QQ(sign * a[-1][-1], den**n)


def inverse(M: Mat) -> Mat:
    """Exact inverse by Gauss-Jordan; raises on singular input."""
    if M.rows != M.cols:
        raise ValueError("square matrix required")
    n = M.rows
    a = [row[:] + [ONE if i == j else ZERO for j in range(n)]
         for i, row in enumerate(M.data)]
    pivots = _rref(a, n, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return Mat._raw([row[n:] for row in a], n)


def congruent_diagonalize(S: Mat):
    """Return (P, D) with P invertible and P^T S P = D diagonal, exactly.

    Symmetric Gaussian congruence over the rationals; replaces orthogonal
    diagonalization, which would need real eigenvalues.
    """
    if not S.is_symmetric():
        raise ValueError("symmetric matrix required")
    n = S.rows
    a = S.copy_data()
    p = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]

    def swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        a[i], a[j] = a[j], a[i]
        for row in p:
            row[i], row[j] = row[j], row[i]

    def add_col(i, j, f):
        # col_i += f * col_j (and the matching row op on a)
        for row in a:
            row[i] = row[i] + f * row[j]
        for t in range(n):
            a[i][t] = a[i][t] + f * a[j][t]
        for row in p:
            row[i] = row[i] + f * row[j]

    for i in range(n):
        if not a[i][i]:
            # bring a nonzero diagonal entry into position i, or create one
            for j in range(i + 1, n):
                if a[j][j]:
                    swap(i, j)
                    break
            else:
                for j in range(i + 1, n):
                    if a[i][j]:
                        add_col(i, j, ONE)
                        break
        if not a[i][i]:
            # row/col i is zero on the trailing block: zero diagonal entry
            continue
        inv = ONE / a[i][i]
        for j in range(i + 1, n):
            if a[i][j]:
                add_col(j, i, -a[i][j] * inv)
    P = Mat._raw(p, n)
    D = Mat.diagonal([a[i][i] for i in range(n)])
    return P, D


def signature(S: Mat):
    """(n_plus, n_minus, n_zero) of a symmetric matrix, by congruence."""
    _, D = congruent_diagonalize(S)
    np_ = nm = nz = 0
    for i in range(S.rows):
        d = D.data[i][i]
        if d > 0:
            np_ += 1
        elif d < 0:
            nm += 1
        else:
            nz += 1
    return np_, nm, nz


# ---------------------------------------------------------------------------
# multivariate polynomials and polynomial matrices


class Poly:
    """Dense-dict multivariate polynomial over exact rationals.

    terms maps exponent tuples (length nvars) to nonzero coefficients.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {e: QQ(c) for e, c in (terms or {}).items() if c}

    @classmethod
    def _raw(cls, nvars, terms):
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, nvars):
        return cls._raw(nvars, {})

    @classmethod
    def const(cls, nvars, c):
        c = QQ(c)
        return cls._raw(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def var(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls._raw(nvars, {tuple(e): ONE})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Poly({self.nvars}, {self.terms!r})"

    def __add__(self, other):
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, ZERO) + c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        return Poly._raw(self.nvars, t)

    def __sub__(self, other):
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, ZERO) - c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        return Poly._raw(self.nvars, t)

    def __neg__(self):
        return Poly._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = QQ(other)
            if not c:
                return Poly.zero(self.nvars)
            return Poly._raw(self.nvars, {e: c * v for e, v in self.terms.items()})
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = t.get(e, ZERO) + c1 * c2
                if s:
                    t[e] = s
                else:
                    t.pop(e, None)
        return Poly._raw(self.nvars, t)

    __rmul__ = __mul__

    def eval(self, point):
        """Evaluate at a sequence of rationals, length nvars."""
        if len(point) != self.nvars:
            raise ValueError("wrong number of values")
        point = [QQ(v) for v in point]
        total = ZERO
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                if k:
                    v = v * x**k
            total += v
        return total


def poly_divexact(a: Poly, b: Poly) -> Poly:
    """Exact polynomial division a / b; raises if the division is not exact.

    Both are scaled to integer coefficients over one denominator, and b
    then divided by its content g: a / b = (A / B') / g with B' primitive,
    and by Gauss's lemma A / B' has integer coefficients whenever a is a
    polynomial multiple of b.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    (A, B), _ = _scale_terms([a, b])
    g = gcd(*B.values())
    q = _divexact(A, {e: c // g for e, c in B.items()})
    return Poly._raw(a.nvars, {e: QQ(c, g) for e, c in q.items()})


# Integer term dicts map exponent tuples to nonzero Python ints; the
# symbolic elimination runs on them, with no rational arithmetic.


def _scale_terms(polys):
    """(term dicts, den): the Polys' terms times den, the lcm of all their
    coefficient denominators, with int coefficients."""
    den = lcm(*(int(c.denominator) for p in polys for c in p.terms.values()))
    return [
        {e: int(c.numerator) * (den // int(c.denominator)) for e, c in p.terms.items()}
        for p in polys
    ], den


def _mul_sub(f, g, h, k):
    """The integer term dict f*g - h*k, built in one pass."""
    t = {}
    get = t.get
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            t[e] = get(e, 0) + c1 * c2
    for e1, c1 in h.items():
        for e2, c2 in k.items():
            e = tuple(map(add, e1, e2))
            t[e] = get(e, 0) - c1 * c2
    return {e: c for e, c in t.items() if c}


def _divexact(r, b):
    """The quotient of the integer term dicts r / b, consuming r.

    Lex-leading-term reduction; raises ValueError unless every quotient
    exponent is non-negative and every coefficient divides exactly, which
    holds whenever r is a multiple of b with an integer quotient.
    """
    bl = max(b)
    blc = b[bl]
    q = {}
    while r:
        rl = max(r)
        qe = tuple(map(sub, rl, bl))
        qc, rem = divmod(r[rl], blc)
        if rem or (qe and min(qe) < 0):
            raise ValueError("inexact polynomial division")
        q[qe] = qc
        for be, bc in b.items():
            e = tuple(map(add, qe, be))
            s = r.get(e, 0) - qc * bc
            if s:
                r[e] = s
            else:
                del r[e]
    return q


class PolyMat:
    """Matrix with multivariate polynomial entries (shared indeterminates)."""

    __slots__ = ("rows", "cols", "nvars", "data")

    def __init__(self, nvars, data, cols=None):
        self.nvars = nvars
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        if self.data:
            self.cols = len(self.data[0])
        else:
            self.cols = 0 if cols is None else cols
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged rows")
            for p in row:
                if not isinstance(p, Poly) or p.nvars != nvars:
                    raise ValueError("entries must share the indeterminate set")

    @classmethod
    def zeros(cls, nvars, rows, cols):
        z = Poly.zero(nvars)
        return cls(nvars, [[z] * cols for _ in range(rows)], cols)

    def eval(self, point) -> Mat:
        return Mat._raw(
            [[p.eval(point) for p in row] for row in self.data], self.cols
        )

    def is_zero(self):
        return all(p.is_zero() for row in self.data for p in row)


def linear_pencil(mats, den):
    """The PolyMat sum_t x_t mats[t] / den in len(mats) variables, where
    mats are integer matrices of one shape given as lists of rows."""
    nv = len(mats)
    units = [tuple(1 if t == u else 0 for t in range(nv)) for u in range(nv)]
    return PolyMat(
        nv,
        [
            [
                Poly._raw(nv, {u: QQ(v, den) for u, v in zip(units, entries) if v})
                for entries in zip(*rows)
            ]
            for rows in zip(*mats)
        ],
    )


def generic_rank(M: PolyMat) -> int:
    """Rank of M over the rational function field, by fraction-free
    (Bareiss) elimination with full row-major pivoting.

    Equals the maximum rank of M over all rational specializations.  The
    entries are scaled to integer coefficients over one denominator,
    which leaves the rank unchanged, so every step is integer polynomial
    arithmetic and each division by the previous pivot is exact.
    """
    rows, cols = M.rows, M.cols
    flat, _ = _scale_terms([p for row in M.data for p in row])
    a = [flat[i * cols:(i + 1) * cols] for i in range(rows)]
    prev = None  # the previous pivot; none before the first step
    r = 0
    for s in range(min(rows, cols)):
        piv = None
        for i in range(s, rows):
            for j in range(s, cols):
                if a[i][j]:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        pi, pj = piv
        if pi != s:
            a[s], a[pi] = a[pi], a[s]
        if pj != s:
            for row in a:
                row[s], row[pj] = row[pj], row[s]
        r += 1
        srow = a[s]
        pivot = srow[s]
        for i in range(s + 1, rows):
            irow = a[i]
            ais = irow[s]
            for j in range(s + 1, cols):
                num = _mul_sub(irow[j], pivot, ais, srow[j])
                irow[j] = _divexact(num, prev) if prev else num
        prev = pivot
    return r


# Points of sample_points' sequence tried for a rank certificate before a
# caller falls back to the symbolic generic_rank: the first box.
CERTIFY_ATTEMPTS = 8


def sample_points(nvars, seed, count=64):
    """The seeded sequence of integer points find_generic_point tries:
    boxes of doubling width, eight points per width."""
    rnd = random.Random(seed)
    for attempt in range(count):
        width = 2 << (attempt // 8)
        yield [QQ(rnd.randint(-width, width)) for _ in range(nvars)]


def find_generic_point(M: PolyMat, seed, target=None, max_attempts=64):
    """A rational point where the specialized rank equals generic_rank(M).

    Samples integer points from boxes of doubling width (deterministic
    given seed).  target overrides the rank to hit (used to exercise the
    failure guard); by Schwartz-Zippel the genuine search essentially never
    exhausts the attempt cap, so hitting GenericPointError means a bug.
    """
    r = generic_rank(M) if target is None else target
    for point in sample_points(M.nvars, seed, max_attempts):
        if rank(M.eval(point)) == r:
            return point
    raise GenericPointError(
        f"no rank-{r} specialization found in {max_attempts} attempts"
    )
