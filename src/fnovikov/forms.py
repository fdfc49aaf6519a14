"""Invariant symmetric bilinear forms: solving, testing, type, orientation.

A form B is invariant when every right multiplication is self-adjoint for
it, i.e. R^T B = B R for each basis right-multiplication matrix R.
"""

from __future__ import annotations

import itertools
from operator import mul

from .scalars import QQ, ZERO
from .exactlin import (
    CERTIFY_ATTEMPTS,
    Mat,
    find_generic_point,
    generic_rank,
    int_rank,
    kernel_basis,
    linear_pencil,
    sample_points,
    scale_to_int,
    signature,
)
from .algebra import Algebra, DimensionMismatchError


class DegenerateFormError(ValueError):
    pass


class SymForm:
    """Symmetric bilinear form with cached signature data."""

    __slots__ = ("matrix", "_signature")

    def __init__(self, matrix: Mat):
        if not matrix.is_symmetric():
            raise ValueError("form matrix must be symmetric")
        self.matrix = matrix
        self._signature = None

    @property
    def dim(self):
        return self.matrix.rows

    def signature(self):
        """(n_plus, n_minus, n_zero); the type of the form is
        (n_plus, n_minus) when nondegenerate."""
        if self._signature is None:
            self._signature = signature(self.matrix)
        return self._signature

    def is_nondegenerate(self):
        return self.signature()[2] == 0

    def negate(self):
        return SymForm(-self.matrix)

    def pair(self, x, y):
        """<x, y>."""
        b, db = self.matrix.scaled()
        (xv, yv), dxy = scale_to_int([x, y])
        by = [sum(map(mul, row, yv)) for row in b]
        return QQ(sum(map(mul, xv, by)), dxy * dxy * db)

    def __eq__(self, other):
        return isinstance(other, SymForm) and self.matrix == other.matrix

    def __repr__(self):
        return f"SymForm({self.matrix.data!r})"


def is_invariant(A: Algebra, B: SymForm) -> bool:
    """True iff R^T B = B R for every basis right multiplication."""
    if B.dim != A.dim:
        raise DimensionMismatchError("form dimension mismatch")
    # Over integers scaled from c and B (the equations are bilinear in
    # them): (R_j^T B)[r][s] = C[r][j] . B[:, s] and (B R_j)[r][s] =
    # B[r] . C[s][j].
    n = A.dim
    C, _ = A.int_tensor()
    Bi, _ = B.matrix.scaled()
    Bcols = list(zip(*Bi))
    for j in range(n):
        for r in range(n):
            crj, Br = C[r][j], Bi[r]
            for s in range(n):
                if sum(map(mul, crj, Bcols[s])) != sum(map(mul, Br, C[s][j])):
                    return False
    return True


def invariant_form_space(A: Algebra):
    """Basis of the space of symmetric matrices B with R^T B = B R for all
    basis right multiplications R.  Returned as a list of symmetric Mat.

    Unknowns are the upper-triangle coordinates b_{uv} (u <= v) in
    row-major order; equations are assembled row-major over (j, r, s) from
    the integer-scaled structure constants, for r < s only: R^T B - B R is
    antisymmetric when B is symmetric, so entry (s, r) is the negated
    equation of entry (r, s) and the diagonal entries vanish.
    """
    n = A.dim
    C, _ = A.int_tensor()
    unknowns = [(u, v) for u in range(n) for v in range(u, n)]
    index = {uv: t for t, uv in enumerate(unknowns)}
    uidx = [[index[(r, s) if r <= s else (s, r)] for s in range(n)] for r in range(n)]
    rows = []
    for j in range(n):
        for r in range(n):
            crj, ur = C[r][j], uidx[r]
            for s in range(r + 1, n):
                # entry (r, s) of R^T B - B R, with R[t][r] = C[r][j][t]
                row = [0] * len(unknowns)
                csj = C[s][j]
                for t in range(n):
                    if crj[t]:
                        row[uidx[t][s]] += crj[t]
                    if csj[t]:
                        row[ur[t]] -= csj[t]
                if any(row):
                    rows.append(row)
    # kernel_basis row-reduces over the integers anyway, so the integer
    # rows go in as they are; a reduced row echelon form is unique, so the
    # basis does not depend on the rows' scale or order
    out = []
    for vec in kernel_basis(Mat._raw(rows, len(unknowns))):
        data = [[ZERO] * n for _ in range(n)]
        for (u, v), coeff in zip(unknowns, vec):
            data[u][v] = coeff
            data[v][u] = coeff
        out.append(Mat._raw(data, n))
    return out


def find_nondegenerate(space, seed, sweep_cap=12):
    """A nondegenerate rational combination of the given symmetric
    matrices, or None when none exists.

    Existence is certified first by a combination with nonzero
    determinant among the first CERTIFY_ATTEMPTS points of
    find_generic_point's seeded sequence; without such a certificate the
    determinant of a generic combination is checked symbolically, so
    absence is decided exactly.  When a member exists, a deterministic
    sweep over {-1, 0, 1} coefficients (small supports first, space
    dimension <= sweep_cap) looks for a small certificate before the
    seeded randomized search.

    The search runs on the members scaled to integers over one common
    denominator, which no determinant test depends on; only the returned
    combination is converted back.
    """
    d = len(space)
    if d == 0:
        return None
    n = space[0].rows
    if n == 0:
        return SymForm(Mat.zeros(0, 0))
    flat, den = scale_to_int([row for M in space for row in M.data])
    mats = [flat[t * n:(t + 1) * n] for t in range(d)]
    # entries[r][s] holds entry (r, s) of every member
    entries = [list(zip(*rows)) for rows in zip(*mats)]

    def combine(coeffs):
        return [[sum(map(mul, coeffs, e)) for e in row] for row in entries]

    def nonsingular(coeffs):
        return int_rank(combine(coeffs), n) == n

    point = next(
        (p for p in sample_points(d, seed, CERTIFY_ATTEMPTS) if nonsingular(list(map(int, p)))),
        None,
    )
    if point is None:
        pencil = linear_pencil(mats, den)
        if generic_rank(pencil) < n:
            return None
    if d <= sweep_cap:
        for support in range(1, d + 1):
            for idxs in itertools.combinations(range(d), support):
                for signs in itertools.product((1, -1), repeat=support):
                    coeffs = [0] * d
                    for t, sgn in zip(idxs, signs):
                        coeffs[t] = sgn
                    if nonsingular(coeffs):
                        return _form(combine(coeffs), den)
    if point is None:
        point = find_generic_point(pencil, seed, target=n)
    return _form(combine(list(map(int, point))), den)


def _form(rows, den):
    """The SymForm of the integer matrix rows / den."""
    return SymForm(Mat._raw([[QQ(v, den) if v else ZERO for v in row] for row in rows], len(rows)))


def normalize_orientation(B: SymForm) -> SymForm:
    """Flip the sign of the form if needed so that n_minus <= n_plus."""
    np_, nm, nz = B.signature()
    if nz:
        raise DegenerateFormError("form must be nondegenerate")
    return B.negate() if nm > np_ else B
