"""The algebra file format: JSON with rationals as strings, never floats.

Grammar (JSON schema, informally):

    {
      "dim": <non-negative integer>,
      "products": [ [i, j, [[m, "p/q"], ...]], ... ],   # e_i e_j = sum (p/q) e_m
      "form": [ ["p/q", ...], ... ],                    # optional, dim x dim, symmetric
      "metadata": { ... }                               # optional, free-form
    }

Indices i, j, m are 1-based.  Rationals are written "p" or "p/q" with a
positive denominator; anything else (floats in particular) is rejected.
Only nonzero structure constants need to be listed, each (i, j) at most
once and each m at most once within its entry.  dim is at most MAX_DIM.
The structure constants are held over their common denominator, the lcm
of their lowest-terms denominators, and so are the form's entries: a file
is refused when the nonzero entries of either, times the bit length of
that lcm, exceed MAX_SCALED_BITS.
JSON nested deeper than the decoder's recursion limit, and a number with
more digits than Python's integer conversion limit, are syntax errors.
"""

from __future__ import annotations

import json
import re
from math import gcd, lcm

from .scalars import ratio_str
from .exactlin import is_symmetric
from .algebra import Algebra
from .forms import SymForm


class AlgebraFileError(ValueError):
    """Base class for algebra-file problems."""


class AlgebraFileSyntaxError(AlgebraFileError):
    """Malformed JSON or a structurally invalid document; carries a
    position for JSON-level errors."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at character {position})")
        self.position = position


class IndexRangeError(AlgebraFileError):
    pass


class NonSymmetricFormError(AlgebraFileError):
    pass


class ZeroDenominatorError(AlgebraFileError):
    pass


class ScaledSizeError(AlgebraFileError):
    """The entries over their common denominator would be too large."""


# The largest dim a file may declare.  The structure tensor is stored
# densely (dim**3 entries) and the checks cost about k * dim**4 operations,
# k = dim AA <= dim, so the cap is checked before anything is allocated.
MAX_DIM = 64

# The most bits that the nonzero structure constants, or the form's
# entries, may take over their common denominator: their count times the
# lcm's bit length.  Entries whose denominators are pairwise coprime make
# that lcm grow with their count, and the scaled tensor with it, about as
# n^6.  The generated files up to MAX_DIM stay below 2**26.
MAX_SCALED_BITS = 2**28

# ASCII digits only, and the whole string: \d would admit other scripts'
# digits, which int() reads, and $ a trailing newline.
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")

# int() refuses a decimal string longer than sys.get_int_max_str_digits().
_TOO_LONG = "number has more digits than the integer conversion limit"


def parse_rational(s):
    """(num, den) of the rational string s, in lowest terms."""
    if not isinstance(s, str) or not _RATIONAL_RE.fullmatch(s):
        raise AlgebraFileSyntaxError(f"malformed rational {s!r}")
    num, _, den = s.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:
        raise AlgebraFileSyntaxError(_TOO_LONG) from None
    if den == 0:
        raise ZeroDenominatorError(f"zero denominator in {s!r}")
    g = gcd(num, den)
    return num // g, den // g


def _common_denominator(pairs, what):
    """The lcm of the denominators of the (num, den) pairs.  Raises
    ScaledSizeError, as soon as the lcm grows that far, when the nonzero
    pairs times its bit length exceed MAX_SCALED_BITS."""
    nonzero = [d for num, d in pairs if num]
    den = 1
    for d in set(nonzero):
        den = lcm(den, d)
        if len(nonzero) * den.bit_length() > MAX_SCALED_BITS:
            raise ScaledSizeError(f"the {len(nonzero)} nonzero {what} over their common"
                                  f" denominator exceed {MAX_SCALED_BITS} bits")
    return den


def parse(text):
    """Parse an algebra file; returns (Algebra, SymForm or None, metadata)."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AlgebraFileSyntaxError(exc.msg, position=exc.pos) from exc
    except RecursionError:
        # the decoder recurses once per nested array or object
        raise AlgebraFileSyntaxError("JSON nested too deeply") from None
    except ValueError:
        # the decoder's int() of a JSON number, as in parse_rational
        raise AlgebraFileSyntaxError(_TOO_LONG) from None
    if not isinstance(doc, dict):
        raise AlgebraFileSyntaxError("top level must be an object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise AlgebraFileSyntaxError("dim must be a non-negative integer")
    if dim > MAX_DIM:
        raise AlgebraFileSyntaxError(f"dim {dim} exceeds the limit {MAX_DIM}")
    products = doc.get("products", [])
    if not isinstance(products, list):
        raise AlgebraFileSyntaxError("products must be a list")
    C = [[[(0, 1)] * dim for _ in range(dim)] for _ in range(dim)]
    seen = set()
    for entry in products:
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or not isinstance(entry[2], list)
        ):
            raise AlgebraFileSyntaxError(f"malformed product entry {entry!r}")
        i, j, terms = entry
        _check_index(i, dim)
        _check_index(j, dim)
        if (i, j) in seen:
            raise AlgebraFileSyntaxError(f"repeated product entry ({i}, {j})")
        seen.add((i, j))
        ms = set()
        for term in terms:
            if not isinstance(term, list) or len(term) != 2:
                raise AlgebraFileSyntaxError(f"malformed product term {term!r}")
            m, coeff = term
            _check_index(m, dim)
            if m in ms:
                raise AlgebraFileSyntaxError(f"repeated index {m} in product entry ({i}, {j})")
            ms.add(m)
            C[i - 1][j - 1][m - 1] = parse_rational(coeff)
    den = _common_denominator((p for row in C for vec in row for p in vec), "structure constants")
    for row in C:
        for vec in row:
            vec[:] = [num * (den // d) for num, d in vec]
    A = Algebra.from_ints(C, den)
    form = None
    if doc.get("form") is not None:
        rows = doc["form"]
        if not isinstance(rows, list) or len(rows) != dim or any(
            not isinstance(r, list) or len(r) != dim for r in rows
        ):
            raise AlgebraFileSyntaxError("form must be a dim x dim matrix")
        pairs = [[parse_rational(x) for x in row] for row in rows]
        den = _common_denominator([p for row in pairs for p in row], "form entries")
        Bi = [[num * (den // d) for num, d in row] for row in pairs]
        if not is_symmetric(Bi):
            raise NonSymmetricFormError("form matrix is not symmetric")
        form = SymForm.from_ints(Bi, den)
    metadata = doc.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise AlgebraFileSyntaxError("metadata must be an object")
    return A, form, metadata or {}


def _check_index(i, dim):
    if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= dim:
        raise IndexRangeError(f"basis index {i!r} outside 1..{dim}")


def serialize(A: Algebra, form: SymForm | None = None, metadata=None) -> str:
    """Serialize to the file format; exact round-trip with parse."""
    C, den = A.int_tensor()
    products = []
    for i, row in enumerate(C):
        for j, vec in enumerate(row):
            terms = [[m + 1, ratio_str(x, den)] for m, x in enumerate(vec) if x]
            if terms:
                products.append([i + 1, j + 1, terms])
    doc = {"dim": A.dim, "products": products}
    if form is not None:
        Bi, db = form.int_matrix()
        doc["form"] = [[ratio_str(x, db) for x in row] for row in Bi]
    if metadata:
        doc["metadata"] = metadata
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
