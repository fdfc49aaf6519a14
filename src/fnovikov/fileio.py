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
JSON nested deeper than the decoder's recursion limit, and a number with
more digits than Python's integer conversion limit, are syntax errors.
"""

from __future__ import annotations

import json
import re

from .scalars import QQ, rational_str
from .exactlin import Mat
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


# The largest dim a file may declare.  The structure tensor is stored
# densely (dim**3 entries) and the checks cost about k * dim**4 operations,
# k = dim AA <= dim, so the cap is checked before anything is allocated.
MAX_DIM = 64

# ASCII digits only, and the whole string: \d would admit other scripts'
# digits, which int() reads, and $ a trailing newline.
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")

# int() refuses a decimal string longer than sys.get_int_max_str_digits().
_TOO_LONG = "number has more digits than the integer conversion limit"


def parse_rational(s):
    if not isinstance(s, str) or not _RATIONAL_RE.fullmatch(s):
        raise AlgebraFileSyntaxError(f"malformed rational {s!r}")
    num, _, den = s.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:
        raise AlgebraFileSyntaxError(_TOO_LONG) from None
    if den == 0:
        raise ZeroDenominatorError(f"zero denominator in {s!r}")
    return QQ(num, den)


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
    A = Algebra.zero(dim)
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
            A.c[i - 1][j - 1][m - 1] = parse_rational(coeff)
    form = None
    if doc.get("form") is not None:
        rows = doc["form"]
        if not isinstance(rows, list) or len(rows) != dim or any(
            not isinstance(r, list) or len(r) != dim for r in rows
        ):
            raise AlgebraFileSyntaxError("form must be a dim x dim matrix")
        data = [[parse_rational(x) for x in row] for row in rows]
        M = Mat(data, dim)
        if not M.is_symmetric():
            raise NonSymmetricFormError("form matrix is not symmetric")
        form = SymForm(M)
    metadata = doc.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise AlgebraFileSyntaxError("metadata must be an object")
    return A, form, metadata or {}


def _check_index(i, dim):
    if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= dim:
        raise IndexRangeError(f"basis index {i!r} outside 1..{dim}")


def serialize(A: Algebra, form: SymForm | None = None, metadata=None) -> str:
    """Serialize to the file format; exact round-trip with parse."""
    products = []
    for i in range(A.dim):
        for j in range(A.dim):
            terms = [
                [m + 1, rational_str(v)]
                for m, v in enumerate(A.c[i][j])
                if v
            ]
            if terms:
                products.append([i + 1, j + 1, terms])
    doc = {"dim": A.dim, "products": products}
    if form is not None:
        doc["form"] = [[rational_str(x) for x in row] for row in form.matrix.data]
    if metadata:
        doc["metadata"] = metadata
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
