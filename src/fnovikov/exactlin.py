"""Exact rational linear algebra kernel, and the generic rank of integer
linear pencils.

Everything here is over exact rationals (see scalars.py).  Mat only
holds the rationals of the public entry points that take or give a
matrix, such as SymForm.matrix and transport_basis's P; rank and
signature scale it to Python ints over a common denominator on each
call.  One integer elimination serves them: rows are kept primitive,
their gcd divided out after each update.  rref reduces its rows as they
are streamed in, at the free columns only, and stores only the pivot
rows; rank counts its pivots, every kernel is read from it, and
int_congruence keeps each row over its own scale the same way.  A
vector, or a column of a basis change (scale_columns), scaled over its
own denominator is an (ints, den) pair.  A linear pencil sum_t x_t M_t
holds integer matrices M_t, since rank is scale-free; it is
evaluated at integer points, and its generic rank over the fraction
field comes from fraction-free (Bareiss) elimination on integer
polynomial term dicts, where an exact division is cheaper than a
polynomial gcd, with no rational-function arithmetic.
find_generic_point is the one rank search: a sampled point of rank
min(rows, cols) proves a pencil's rank, else generic_rank runs once; it
hands back the value at the point it returns, and that value's rref.

Pivoting is deterministic everywhere: rref takes each kept row's first
nonzero entry, generic_rank each column's first nonzero remaining row.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
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
    dens = [x.denominator for row in rows for x in row]
    den = lcm(*dens)
    it = iter(dens)
    return [[x.numerator * (den // next(it)) for x in row] for row in rows], den


def scale_vector(v):
    """(ints, den): den is the lcm of the denominators in v, and v[i] ==
    ints[i] / den exactly."""
    (ints,), den = scale_to_int([v])
    return ints, den


def lowest_terms(v, den):
    """The (ints, den) pair of the rational vector v / den, for integers v
    and den != 0, with den made positive and the gcd of den and v's
    entries divided out."""
    g = gcd(*v, den) if den > 0 else -gcd(*v, den)
    return ([x // g for x in v], den // g) if g != 1 else (v, den)


def scale_columns(M):
    """Each column of M as an (ints, den) pair over its own denominator, so
    M = Z diag(1/d) with Z the integer columns."""
    return [scale_vector(col) for col in zip(*M.data)]


def int_rank(rows, cols):
    """Rank of an integer matrix given as an iterable of row lists: the
    number of pivots rref keeps."""
    return len(rref(rows, cols)[1])


def is_symmetric(rows):
    """Whether the matrix given by its row lists is square and symmetric."""
    return rows == [list(col) for col in zip(*rows)]


# ---------------------------------------------------------------------------
# rational matrices


class Mat:
    """Dense row-major matrix over exact rationals: the container of
    SymForm.matrix and of the rational matrices the public functions take,
    with no matrix arithmetic.  Treated as immutable after construction."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None):
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

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"Mat({self.data!r})"


def rank(M: Mat) -> int:
    """Row rank, by rref on the integer-scaled rows."""
    return int_rank(scale_to_int(M.data)[0], M.cols)


def rref(rows, cols):
    """(z, pivots): the integer reduced row echelon form of the integer
    rows, which may be any iterable of rows, eliminated as they arrive.

    Each row is reduced against the rows kept so far and kept only when
    something nonzero is left; it is then divided by its gcd and clears
    its pivot column from the other kept rows.  So only the rank-many
    pivot rows are ever stored, and reading stops once every column is a
    pivot.  z[i] has its pivot z[i][pivots[i]] > 0, zeros at every other
    pivot column and entries with gcd 1, so the rational reduced form is
    z[i] divided by its pivot and z is unique for the row space; pivots
    increase.  The input rows are not modified, but a row kept as it came
    may be z's own.

    A kept row is zero at every other pivot, so reducing by one kept row
    leaves the entries at the others as they were: a row's coefficients
    f_i are its entries at the pivots, and it is reduced over the lcm m of
    the pivots p_i used, not their product.  The reduced row
    m row - sum_i f_i (m / p_i) z_i is then zero at every pivot column, so
    its entries are computed only at the free columns, one pass per kept
    row used, the first of which also scales row to m.  A dependent row,
    zero there, is dropped without being built, and any other is
    scattered into a zero row.
    """
    z, pivots, free = [], [], list(range(cols))
    for row in rows:
        m, used = 1, []
        for prow, c in zip(z, pivots):
            if f := row[c]:
                p = prow[c]
                m = lcm(m, p)
                used.append((prow, f, p))
        if used:
            (prow, f, p), *rest = used
            f *= m // p
            vals = [m * row[c] - f * prow[c] for c in free]
            for prow, f, p in rest:
                f *= m // p
                # in place: no list is built per pass
                for i, c in enumerate(free):
                    vals[i] -= f * prow[c]
            if not any(vals):
                continue
            row = [0] * cols
            for c, x in zip(free, vals):
                row[c] = x
        lead = next(filter(None, row), 0)
        if not lead:
            continue
        c = row.index(lead)
        g = gcd(*row) if lead > 0 else -gcd(*row)
        if g != 1:
            row = [x // g for x in row]
        p = row[c]
        for i, prow in enumerate(z):
            f = prow[c]
            if f:
                prow = [x * p - f * y for x, y in zip(prow, row)]
                g = gcd(*prow)
                z[i] = [x // g for x in prow] if g > 1 else prow
        at = bisect_left(pivots, c)
        z.insert(at, row)
        pivots.insert(at, c)
        if len(pivots) == cols:
            break
        free.remove(c)
    return z, pivots


def rref_kernel(z, pivots, cols):
    """Basis of the right kernel read from the integer reduced row echelon
    form z and its pivot columns, as rref returns them: for each free
    column c, the vector with entry 1 at c, as an (ints, den) pair."""
    pivot_set = set(pivots)
    basis = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        terms = [(pc, z[r][fc], z[r][pc]) for r, pc in enumerate(pivots) if z[r][fc]]
        den = lcm(*[p for _, _, p in terms])
        v = [0] * cols
        v[fc] = den
        for pc, f, p in terms:
            v[pc] = -f * den // p
        basis.append(lowest_terms(v, den))
    return basis


def int_congruence(rows, cols=None):
    """Symmetric Gaussian congruence of the symmetric integer matrix rows,
    on primitive rows: (d, p, s) with P^T rows P = diag(d_i / s_i).

    The pivot sequence is the rational elimination's: a zero diagonal
    entry is swapped with the first later nonzero one, else col_i += col_j
    (and row_i += row_j) for the first nonzero a_ij, else the zero row is
    skipped.  Each row of the trailing block is a pair (R, sigma) standing
    for the rational row R / sigma, kept in lowest terms as rref keeps its
    rows primitive: the pivot row (T, tau) with piv = T[0] updates row i
    to (piv R - R[0] T, sigma piv), and the gcd is divided out, so the
    entries stay the size of the rationals they stand for.  d_i / s_i is
    piv / tau, with s_i > 0.  cols, one integer vector per row, take the
    same column operations: p[i] is s_i times column i of V P, V the
    matrix of cols, and empty without cols.
    """
    # row j of rows, then the vector cols[j], over the scale 1: row
    # operations act on both
    a = [(list(row) + list(v), 1) for row, v in zip(rows, cols or [()] * len(rows))]
    d, p, s = [], [], []
    while a:
        m = len(a)
        if not a[0][0][0]:
            j = next((j for j in range(1, m) if a[j][0][j]), None)
            if j is not None:
                a[0], a[j] = a[j], a[0]
                for row, _ in a:
                    row[0], row[j] = row[j], row[0]
            else:
                j = next((j for j in range(1, m) if a[0][0][j]), None)
                if j is not None:
                    (x, sx), (y, sy) = a[0], a[j]
                    a[0] = lowest_terms([sy * u + sx * v for u, v in zip(x, y)], sx * sy)
                    for row, _ in a:
                        row[0] += row[j]
        top, tau = a[0]
        piv = top[0]
        d.append(piv)
        s.append(tau)
        p.append(top[m:])
        if piv:
            # a row with 0 in the pivot column is left as it is
            a = [lowest_terms([piv * x - f * y for x, y in zip(row[1:], top[1:])], sigma * piv)
                 if (f := row[0]) else (row[1:], sigma) for row, sigma in a[1:]]
        else:
            a = [(row[1:], sigma) for row, sigma in a[1:]]
    return d, p, s


def signature(S: Mat):
    """(n_plus, n_minus, n_zero) of a symmetric matrix (int_signature)."""
    if S.cols != S.rows or not is_symmetric(S.data):
        raise ValueError("symmetric matrix required")
    return int_signature(scale_to_int(S.data)[0])


def int_signature(rows):
    """signature of symmetric integer rows: the signs of int_congruence's d_i."""
    d, _, _ = int_congruence(rows)
    signs = [(x > 0) - (x < 0) for x in d]
    return signs.count(1), signs.count(-1), signs.count(0)


# ---------------------------------------------------------------------------
# integer linear pencils and their generic rank


class Pencil:
    """The integer matrix pencil sum_t x_t mats[t] in nvars = len(mats)
    variables, mats being rows x cols integer matrices as lists of rows.

    Rank is scale-free, so a rational pencil enters as its members scaled
    to integers over one denominator.  mats, shared with the caller, is
    the pencil's one table: eval and generic_rank read it entry by entry.
    """

    __slots__ = ("nvars", "rows", "cols", "mats")

    def __init__(self, mats, rows, cols):
        self.nvars = len(mats)
        self.mats = mats
        self.rows = rows
        self.cols = cols

    def eval(self, point):
        """The integer rows of the pencil at an integer point."""
        if len(point) != self.nvars:
            raise ValueError("wrong number of values")
        if not self.mats:
            return [[0] * self.cols for _ in range(self.rows)]
        return [[sum(map(mul, point, e)) for e in zip(*rs)] for rs in zip(*self.mats)]


# Integer term dicts map exponent tuples to nonzero Python ints; the
# symbolic elimination runs on them, with no rational arithmetic.


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


def generic_rank(M: Pencil) -> int:
    """Rank of M over the rational function field in its variables, by
    fraction-free (Bareiss) elimination, column by column: the pivot is
    the first remaining row nonzero in the column, and a column with none
    is skipped.  By Sylvester's identity each division by the previous
    pivot is exact whatever the pivot columns, so no column is swapped.

    Equals the maximum rank of M over all rational specializations; every
    entry is an integer term dict, so every step is integer polynomial
    arithmetic.
    """
    units = [tuple(1 if t == u else 0 for t in range(M.nvars)) for u in range(M.nvars)]
    a = [[{u: v for u, v in zip(units, e) if v} for e in zip(*rs)] for rs in zip(*M.mats)]
    prev = None  # the previous pivot; none before the first step
    r = 0
    for c in range(M.cols):
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        srow = a[r]
        pivot = srow[c]
        for irow in a[r + 1:]:
            aic = irow[c]
            for j in range(c + 1, M.cols):
                num = _mul_sub(irow[j], pivot, aic, srow[j])
                irow[j] = _divexact(num, prev) if prev else num
        prev = pivot
        r += 1
    return r


# Points of sample_points' sequence ranked against min(rows, cols) before
# find_generic_point computes the symbolic generic_rank: the first box.
CERTIFY_ATTEMPTS = 8


def sample_points(nvars, seed):
    """The seeded sequence of 64 integer points find_generic_point tries:
    boxes of doubling width, eight points per width."""
    rnd = random.Random(seed)
    for attempt in range(64):
        width = 2 << (attempt // 8)
        yield [rnd.randint(-width, width) for _ in range(nvars)]


class GenericPoint(tuple):
    """find_generic_point's (point, r): it unpacks as that pair, and, as
    os.stat_result carries more than its tuple, it holds what the search
    computed at point: value, M's integer rows there, and reduced, their
    rref(value, M.cols) as (z, pivots).  The lists are shared; never
    mutate."""

    def __new__(cls, point, r, value, reduced):
        self = super().__new__(cls, (point, r))
        self.value, self.reduced = value, reduced
        return self


def find_generic_point(M: Pencil, seed):
    """GenericPoint(point, r, value, reduced): the first point of
    sample_points' seeded sequence where M has its generic rank r, with
    M's value there and its reduction, so a caller that reads R_{x0} or
    the seeded combination evaluates and reduces nothing again.

    No specialization exceeds min(M.rows, M.cols), so a point among the
    first CERTIFY_ATTEMPTS that reaches it proves r without polynomial
    arithmetic.  Only when none does is generic_rank computed, once, and
    the search goes on from where it stopped, each point evaluated and
    reduced once: the first points' values and reductions are kept.  By
    Schwartz-Zippel the search essentially never exhausts the sequence, so
    hitting GenericPointError means a bug.
    """
    bound = min(M.rows, M.cols)
    points = sample_points(M.nvars, seed)

    def at(point):
        value = M.eval(point)
        return point, value, rref(value, M.cols)

    tried = []
    for point, value, reduced in map(at, itertools.islice(points, CERTIFY_ATTEMPTS)):
        if len(reduced[1]) == bound:
            return GenericPoint(point, bound, value, reduced)
        tried.append((point, value, reduced))
    r = generic_rank(M)
    for point, value, reduced in itertools.chain(tried, map(at, points)):
        if len(reduced[1]) == r:
            return GenericPoint(point, r, value, reduced)
    raise GenericPointError(f"no rank-{r} specialization found")
