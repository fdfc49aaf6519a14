"""Exact rational scalars.

All arithmetic in this package is exact, over the stdlib Fraction; the
hot loops scale their rationals to Python ints, over a common denominator
or over each column's or vector's own (see exactlin.scale_to_int), and
every output prints its integer numerators and denominators through
ratio_str, with no rational built.
"""

from fractions import Fraction as QQ
from math import gcd

# the scalar type's name, as benchmark records report it
BACKEND = "fraction"

ZERO = QQ(0)
ONE = QQ(1)


def ratio_str(num, den) -> str:
    """The rational num / den, for integers num and den != 0, as
    str(Fraction(num, den)) writes it: "p/q" in lowest terms with q > 1,
    or "p", never a float."""
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    num, den = num // g, den // g
    return f"{num}/{den}" if den != 1 else str(num)


def rational_str(q) -> str:
    """Serialize a rational, or an int, exactly, as ratio_str does."""
    return ratio_str(q.numerator, q.denominator)
