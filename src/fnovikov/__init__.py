"""Exact-arithmetic toolkit for finite-dimensional algebras with
anticommuting right multiplications and invariant symmetric bilinear
forms: identity checkers, form solver, canonical-basis verifier, and
small-derived-dimension classification."""

from .scalars import QQ, BACKEND
from .exactlin import (
    GenericPointError,
    Mat,
    Pencil,
    find_generic_point,
    generic_rank,
    rank,
    signature,
)
from .algebra import (
    Algebra,
    DimensionMismatchError,
    basis_element,
    check_fermionic,
    check_left_symmetric,
    check_novikov,
    commutator_check,
    search_breaking_mutation,
    search_fermionic_not_novikov,
    zero_element,
)
from .forms import (
    DegenerateFormError,
    SymForm,
    find_nondegenerate,
    invariant_form_space,
    is_invariant,
    nondegenerate_form,
    normalize_orientation,
)
from .canon import (
    CLAIMS,
    CanonError,
    CanonReport,
    PreconditionError,
    canonical_basis,
    canonicalize,
    max_rank_element,
    theorem_check,
    verify_structure,
)
from .classify import (
    K2Params,
    ScrambleError,
    classify_k1,
    generate_corpus,
    k2_condition,
    make_family,
    make_k2,
    random_k2,
    scramble,
    transport_basis,
)
from .fileio import (
    AlgebraFileError,
    AlgebraFileSyntaxError,
    IndexRangeError,
    NonSymmetricFormError,
    ScaledSizeError,
    ZeroDenominatorError,
    parse,
    serialize,
)

__version__ = "0.1.0"
