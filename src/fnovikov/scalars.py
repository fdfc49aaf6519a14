"""Exact rational scalars.

All arithmetic in this package is exact, over the stdlib Fraction; the
hot loops scale their rationals to Python ints, over a common denominator
or over each column's or vector's own (see exactlin.scale_to_int), and
convert back only at the boundary.
"""

from fractions import Fraction as QQ

# the scalar type's name, as benchmark records report it
BACKEND = "fraction"

ZERO = QQ(0)
ONE = QQ(1)


def rational_str(q) -> str:
    """Serialize exactly: "p/q" or "p", never a float."""
    return str(q)
