"""Invariant symmetric bilinear forms: solving, testing, type, orientation.

A form B is invariant when every right multiplication is self-adjoint for
it, i.e. R^T B = B R for each basis right-multiplication matrix R.
"""

from __future__ import annotations

import functools
import itertools
from math import gcd, lcm
from operator import mul

from .exactlin import (
    Mat,
    Pencil,
    find_generic_point,
    int_rank,
    int_signature,
    is_symmetric,
    rref,
    rref_kernel,
    scale_to_int,
)
from .algebra import Algebra, DimensionMismatchError
from .scalars import QQ, ZERO


class DegenerateFormError(ValueError):
    pass


class SymForm:
    """Symmetric bilinear form with cached signature data.  Its one state is
    int_matrix(), (Bi, db): the entries times db, the lcm of their
    denominators; matrix rebuilds the rationals on each read."""

    __slots__ = ("_ints", "_signature")

    def __init__(self, matrix: Mat):
        if matrix.cols != matrix.rows or not is_symmetric(matrix.data):
            raise ValueError("form matrix must be symmetric")
        self._ints, self._signature = scale_to_int(matrix.data), None

    @classmethod
    def from_ints(cls, rows, den):
        """The form of the symmetric integer matrix rows / den, den > 0, with
        the gcd of den and the entries divided out: equal forms, equal pairs.
        A pair already in lowest terms is kept as it came: never mutate rows."""
        g = gcd(den, *itertools.chain.from_iterable(rows))
        if g != 1:
            rows = [[x // g for x in row] for row in rows]
            den //= g
        B = object.__new__(cls)
        B._ints, B._signature = (rows, den), None
        return B

    @property
    def dim(self):
        return len(self._ints[0])

    @property
    def matrix(self):
        rows, den = self._ints
        return Mat._raw([[QQ(x, den) if x else ZERO for x in row] for row in rows])

    def int_matrix(self):
        """(Bi, db), shared by every caller: never mutate the lists."""
        return self._ints

    def signature(self):
        """(n_plus, n_minus, n_zero); the type of the form is
        (n_plus, n_minus) when nondegenerate."""
        if self._signature is None:
            self._signature = int_signature(self._ints[0])
        return self._signature

    def is_nondegenerate(self):
        return self.signature()[2] == 0

    def negate(self):
        """-B; a cached signature (n_plus, n_minus, n_zero) is carried over
        as (n_minus, n_plus, n_zero), so it is not diagonalized again."""
        rows, den = self._ints
        out = SymForm.from_ints([[-x for x in row] for row in rows], den)
        if self._signature is not None:
            np_, nm, nz = self._signature
            out._signature = (nm, np_, nz)
        return out

    def __eq__(self, other):
        return isinstance(other, SymForm) and self._ints == other._ints

    def __repr__(self):
        return f"SymForm({self.matrix.data!r})"


def is_invariant(A: Algebra, B: SymForm) -> bool:
    """True iff R^T B = B R, i.e. B R is symmetric, for every basis right
    multiplication R = R_{e_j}.  R_j maps into AA, so R_j = F^T Lambda_j / L
    with F, L = A.derived_basis() and Lambda_j = A.right_pencil().mats[j],
    the (e_t e_j)[p_a] scaled: the test reads (B F^T) Lambda_j on integers
    scaled from c and B, which it is bilinear in.  It is linear in R_j, so
    only the rho independent j of A.right_basis() are read: k n^2 (rho + 1)
    multiply-adds.  With AA = 0 every form is invariant."""
    if B.dim != A.dim:
        raise DimensionMismatchError("form dimension mismatch")
    n = A.dim
    _, F, _ = A.derived_basis()
    if not F:
        return True
    Bi, _ = B.int_matrix()
    # BF[r][a] = (B F[a])[r]
    BF = [[sum(map(mul, row, f)) for f in F] for row in Bi]
    mats = A.right_pencil().mats
    for Lam in (mats[j] for j in A.right_basis()[0]):
        # lam[t] = column t of Lambda_j
        lam = list(zip(*Lam))
        for r in range(n):
            for t in range(r + 1, n):
                if sum(map(mul, BF[r], lam[t])) != sum(map(mul, BF[t], lam[r])):
                    return False
    return True


# one table for each dim 0 ... fileio.MAX_DIM a file may declare; fileio
# imports this module, so the bound is written out here
@functools.lru_cache(maxsize=65)
def _coordinates(n):
    """uidx[r][s], the index of the unknown b_{min(r, s), max(r, s)} among
    the n (n + 1) / 2 upper-triangle coordinates b_{uv}, u <= v, in
    row-major order: computed once per n, as tuples shared by every
    call."""
    start = [u * n - u * (u - 1) // 2 - u for u in range(n)]
    return tuple(tuple(start[min(r, s)] + max(r, s) for s in range(n)) for r in range(n))


def invariant_form_space(A: Algebra):
    """Basis of the space of symmetric matrices B with R^T B = B R for all
    basis right multiplications R.  Returned as a list of SymForm, each
    built from integers over its own denominator (SymForm.from_ints).

    Unknowns are the upper-triangle coordinates b_{uv} (u <= v) in
    row-major order, indexed by _coordinates(n), the one table per n;
    equations are assembled over (j, r, s), last to first, from the
    integer-scaled structure constants, for r < s only:
    R^T B - B R is antisymmetric when B is symmetric, so entry (s, r) is
    the negated equation of entry (r, s) and the diagonal entries vanish.

    The equations are linear in R_j, so only the j whose R_j is
    independent of the earlier ones are kept: A.right_basis()'s K, found
    once per algebra.  Every other R_j is a combination of the kept ones,
    so the row space, and so the basis, is the same.  The equations are
    read from the structure constants of the kept j as they are, never
    from reduced combinations, whose entries grow large.  With AA = 0 no
    j is kept and every symmetric B is invariant.

    The rho n (n - 1) / 2 equations, rho = rank of the R_j, are streamed
    into rref, which reduces each against the rows kept so far, so at
    most n (n + 1) / 2 rows are ever stored.  The basis is read from the
    reduced form (rref_kernel), which is unique for the row space: it
    does not depend on the rows' scale or order.  rref drops an equation
    that reduces to zero at the cost of its free columns.  Each member's
    matrix reads its kernel vector through the same table.
    """
    n = A.dim
    C, _ = A.int_tensor()
    m = n * (n + 1) // 2
    uidx = _coordinates(n)

    kept = A.right_basis()[0]

    # streamed last to first: a row's leading unknown then more often lies
    # left of the kept rows', so fewer of them need clearing in its column
    def equations():
        for j in reversed(kept):
            for r in range(n - 1, -1, -1):
                crj, ur = C[r][j], uidx[r]
                for s in range(n - 1, r, -1):
                    # entry (r, s) of R^T B - B R, with R[t][r] = C[r][j][t]
                    row = [0] * m
                    csj = C[s][j]
                    for t in range(n):
                        if crj[t]:
                            row[uidx[t][s]] += crj[t]
                        if csj[t]:
                            row[ur[t]] -= csj[t]
                    yield row

    return [SymForm.from_ints([[vec[t] for t in row] for row in uidx], den)
            for vec, den in rref_kernel(*rref(equations(), m), m)]


# The largest form space find_nondegenerate sweeps over {-1, 0, 1}
# coefficients before it takes the seeded point.
SWEEP_CAP = 12


def find_nondegenerate(space, seed):
    """A nondegenerate rational combination of the given forms, or None
    when none exists.

    Every combination's rows lie in the span of all the members' rows, so
    when that span, streamed into rref, has rank below n, no member is
    nonsingular.  Otherwise, with space dimension <= SWEEP_CAP, a member
    of rank n is the first certificate of a deterministic sweep over
    {-1, 0, 1} coefficients, small supports first.  When there is none,
    find_generic_point decides existence exactly: a seeded point of rank
    n certifies it, else the symbolic generic rank of the pencil does.
    When a combination of rank n exists, the sweep goes on to supports
    >= 2 before the seeded point is taken; its combination is the value
    the search handed back, with no second evaluation.

    The sweep skips a support S, with all its sign patterns, when no
    combination on it can be nonsingular: the column space of a sum of
    the M_t, t in S, lies in the sum of their column spaces, so its rank
    is at most that of the n x n|S| block [M_t for t in S], which is at
    most the sum of the rank(M_t).  S is skipped when either bound is
    below n; every skipped candidate is singular, so the sweep returns
    the same combination as trying them all.  On a support it tries each
    sign pattern once up to negation, the first sign +1: rank(-C) =
    rank(C), and the full sweep meets every +1-first pattern before any
    -1-first one, so it returns the same combination.

    The search reads only the members' int_matrix() pairs, so no rational
    is built.  The ranks read each member over its own scale, and a member
    of rank n is returned itself; the pencil puts the members over the lcm
    of their denominators, and a returned combination is held over that
    lcm.
    """
    d = len(space)
    if d == 0:
        return None
    n = space[0].dim
    pairs = [B.int_matrix() for B in space]
    if int_rank([row for rows, _ in pairs for row in rows], n) < n:
        return None
    if d <= SWEEP_CAP:
        ranks = []
        for B, (rows, _) in zip(space, pairs):
            ranks.append(int_rank(rows, n))
            if ranks[-1] == n:
                return B
    den = lcm(*[e for _, e in pairs])
    mats = [rows if e == den else [[x * (den // e) for x in row] for row in rows]
            for rows, e in pairs]
    pencil = Pencil(mats, n, n)
    found = find_generic_point(pencil, seed)
    if found[1] < n:
        return None
    if d <= SWEEP_CAP:
        for support in range(2, d + 1):
            for idxs in itertools.combinations(range(d), support):
                if sum(ranks[t] for t in idxs) < n:
                    continue
                block = [[x for t in idxs for x in mats[t][i]] for i in range(n)]
                if int_rank(block, n * support) < n:
                    continue
                # each pattern up to negation, the first sign +1
                for signs in itertools.product((1, -1), repeat=support - 1):
                    coeffs = [0] * d
                    for t, sgn in zip(idxs, (1, *signs)):
                        coeffs[t] = sgn
                    C = pencil.eval(coeffs)
                    if int_rank(C, n) == n:
                        return SymForm.from_ints(C, den)
    return SymForm.from_ints(found.value, den)


def nondegenerate_form(A: Algebra, seed):
    """(space, B): A's invariant form space and the form chosen on it, the
    one place every caller takes a form from.  B is find_nondegenerate's
    member for seed, None when no member is nondegenerate; at dim 0 the
    empty space has no member, but the empty form is nondegenerate, and B
    is that form."""
    space = invariant_form_space(A)
    if not A.dim:
        return space, SymForm.from_ints([], 1)
    return space, find_nondegenerate(space, seed)


def normalize_orientation(B: SymForm) -> SymForm:
    """Flip the sign of the form if needed so that n_minus <= n_plus."""
    np_, nm, nz = B.signature()
    if nz:
        raise DegenerateFormError("form must be nondegenerate")
    return B.negate() if nm > np_ else B
