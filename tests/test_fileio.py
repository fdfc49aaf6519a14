import json
import re
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fnovikov import fileio
from fnovikov import (
    Algebra,
    AlgebraFileError,
    AlgebraFileSyntaxError,
    IndexRangeError,
    Mat,
    NonSymmetricFormError,
    ScaledSizeError,
    SymForm,
    ZeroDenominatorError,
    is_invariant,
    make_family,
    parse,
    scramble,
    serialize,
)
from fnovikov.scalars import QQ, ratio_str, rational_str

from test_integer_kernel import as_fractions


def primes(count):
    """The first count primes, by a sieve up to 200000 (17984 primes)."""
    sieve = bytearray([1]) * 200000
    sieve[:2] = b"\0\0"
    for p in range(2, 448):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, len(sieve), p)))
    found = [p for p, prime in enumerate(sieve) if prime]
    assert len(found) >= count
    return found[:count]


def coprime_denominator_text(n):
    """A dim-n file whose n**3 structure constants are 1/p over distinct
    primes p: their common denominator has about 17 n**3 bits, so the
    tensor over it takes about 17 n**6 bits."""
    it = iter(primes(n ** 3))
    return json.dumps({"dim": n, "products": [[i + 1, j + 1, [[m + 1, f"1/{next(it)}"] for m in range(n)]]
                                              for i in range(n) for j in range(n)]})


FAMILY1_TEXT = """
{
  "dim": 2,
  "products": [[1, 1, [[2, "1"]]]]
}
"""


class TestParse:
    def test_family1(self):
        A, form, meta = parse(FAMILY1_TEXT)
        assert A == make_family(1, 2)
        assert form is None
        assert meta == {}

    def test_empty_products(self):
        A, _, _ = parse('{"dim": 3, "products": []}')
        assert A.dim == 3
        assert A.derived_dim() == 0

    def test_form(self):
        A, form, _ = parse(
            '{"dim": 2, "products": [], "form": [["0", "1"], ["1", "0"]]}'
        )
        assert form == SymForm(Mat([[0, 1], [1, 0]]))

    def test_fractions_and_metadata(self):
        text = (
            '{"dim": 2, "products": [[1, 2, [[2, "-3/4"]]]],'
            ' "metadata": {"name": "x"}}'
        )
        A, _, meta = parse(text)
        assert as_fractions(A)[0][1][1] == QQ(-3, 4)
        assert meta == {"name": "x"}

    def test_bytes_accepted(self):
        A, _, _ = parse(FAMILY1_TEXT.encode())
        assert A == make_family(1, 2)

    def test_scrambled_dim64_is_accepted(self):
        # the scaled tensor of the largest generated file, a scrambled sum
        # of 32 planes, took 55.3e6 bits; this one 38.7e6, at least 4x
        # below the bound
        A, _, _ = scramble(make_family(2, fileio.MAX_DIM), None, 3)
        text = serialize(A)
        A2, _, _ = parse(text)
        assert A2 == A
        C, den = A2.int_tensor()
        nonzero = sum(1 for row in C for vec in row for x in vec if x)
        assert 4 * nonzero * den.bit_length() <= fileio.MAX_SCALED_BITS

    def test_one_product_dim64_parses_in_bounded_memory(self):
        # e64 e64 = e1 / 3 over 3: the gcd of den and the entries stays 3
        # until the last of the 4096 vectors, and from_ints takes it one
        # nonzero vector at a time.  The peak was 2.25 MiB on a 2-vCPU
        # Xeon, Python 3.11.7, and 6.46 MiB with one gcd call over all
        # 64**3 entries
        text = json.dumps({"dim": 64, "products": [[64, 64, [[1, "1/3"]]]]})
        tracemalloc.start()
        try:
            A, _, _ = parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20, peak
        C, den = A.int_tensor()
        assert den == 3 and C[63][63][0] == 1
        assert sum(1 for row in C for vec in row for x in vec if x) == 1


# JSON documents that break the grammar's structure, each with the start
# of the AlgebraFileSyntaxError message that parse refuses it with
STRUCTURAL_REFUSALS = [
    ("[]", "top level must be an object"),
    ('"dim"', "top level must be an object"),
    ('{"dim": 2, "products": {}}', "products must be a list"),
    ('{"dim": 2, "products": [[1, 1]]}', "malformed product entry"),
    ('{"dim": 2, "products": [[1, 1, "2"]]}', "malformed product entry"),
    ('{"dim": 2, "products": [[1, 1, [[2]]]]}', "malformed product term"),
    ('{"dim": 2, "products": [[1, 1, [2, "1"]]]}', "malformed product term"),
    ('{"dim": 2, "form": [["1", "0"]]}', "form must be a dim x dim matrix"),
    ('{"dim": 2, "form": [["1"], ["0"]]}', "form must be a dim x dim matrix"),
    ('{"dim": 1, "form": "1"}', "form must be a dim x dim matrix"),
    ('{"dim": 1, "metadata": []}', "metadata must be an object"),
]


class TestParseErrors:
    @pytest.mark.parametrize("text, message", STRUCTURAL_REFUSALS)
    def test_structural_refusals(self, text, message):
        with pytest.raises(AlgebraFileSyntaxError, match=f"^{re.escape(message)}"):
            parse(text)

    def test_malformed_json_reports_position(self):
        with pytest.raises(AlgebraFileSyntaxError) as err:
            parse('{"dim": 2, ')
        assert err.value.position is not None

    def test_float_rational_rejected(self):
        with pytest.raises(AlgebraFileSyntaxError):
            parse('{"dim": 2, "products": [[1, 1, [[2, "1.5"]]]]}')

    def test_non_ascii_digits_and_trailing_newline_rejected(self):
        # the grammar is ASCII "p" or "p/q" and nothing more: int() reads
        # Arabic-Indic and fullwidth digits, and a regex $ matches before a
        # final newline
        for bad in ("1/2\n", "3\n", "\u0663", "\uff13/\uff14", "1/\u0664"):
            with pytest.raises(AlgebraFileSyntaxError, match="malformed rational"):
                fileio.parse_rational(bad)
            with pytest.raises(AlgebraFileSyntaxError, match="malformed rational"):
                parse(json.dumps({"dim": 2, "products": [[1, 1, [[2, bad]]]]}))
            with pytest.raises(AlgebraFileSyntaxError, match="malformed rational"):
                parse(json.dumps({"dim": 1, "products": [], "form": [[bad]]}))
        assert fileio.parse_rational("-12/34") == (-6, 17)

    def test_index_out_of_range(self):
        with pytest.raises(IndexRangeError):
            parse('{"dim": 2, "products": [[1, 3, [[2, "1"]]]]}')
        with pytest.raises(IndexRangeError):
            parse('{"dim": 2, "products": [[0, 1, [[2, "1"]]]]}')

    def test_nonsymmetric_form(self):
        with pytest.raises(NonSymmetricFormError):
            parse('{"dim": 2, "products": [], "form": [["0", "1"], ["2", "0"]]}')

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominatorError):
            parse('{"dim": 2, "products": [[1, 1, [[2, "1/0"]]]]}')

    def test_errors_share_base_class(self):
        for cls in (
            AlgebraFileSyntaxError,
            IndexRangeError,
            NonSymmetricFormError,
            ZeroDenominatorError,
        ):
            assert issubclass(cls, AlgebraFileError)

    def test_bad_dim(self):
        with pytest.raises(AlgebraFileSyntaxError):
            parse('{"dim": -1, "products": []}')
        with pytest.raises(AlgebraFileSyntaxError):
            parse('{"dim": "2", "products": []}')

    def test_repeated_product_entry(self):
        # the later value used to overwrite the earlier one silently
        with pytest.raises(AlgebraFileSyntaxError, match="repeated product entry"):
            parse('{"dim": 2, "products": [[1,1,[[2,"1"]]],[1,1,[[2,"5"]]]]}')
        with pytest.raises(AlgebraFileSyntaxError, match="repeated product entry"):
            parse('{"dim": 2, "products": [[1,2,[[1,"1"]]],[1,2,[[2,"5"]]]]}')

    def test_repeated_index_in_entry(self):
        with pytest.raises(AlgebraFileSyntaxError, match="repeated index 2"):
            parse('{"dim": 2, "products": [[1,1,[[2,"1"],[2,"5"]]]]}')
        A, _, _ = parse('{"dim": 2, "products": [[1,1,[[1,"1"],[2,"5"]]],[2,1,[[2,"1"]]]]}')
        c = as_fractions(A)
        assert (c[0][0], c[1][0]) == ([1, 5], [0, 1])

    def test_dim_cap_checked_before_allocation(self):
        # the dense tensor of a dim-65 file has 65**3 slots, over 2 MiB
        for dim in (fileio.MAX_DIM + 1, 10**9):
            tracemalloc.start()
            try:
                with pytest.raises(AlgebraFileSyntaxError, match="exceeds the limit"):
                    parse('{"dim": %d}' % dim)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, peak

    def test_deep_nesting_is_a_syntax_error(self):
        # the decoder's RecursionError used to escape as a traceback
        for text in ("[" * 200000 + "]" * 200000, '{"dim": 1, "metadata": %s}' % ("[" * 5000 + "]" * 5000)):
            with pytest.raises(AlgebraFileSyntaxError, match="nested too deeply"):
                parse(text)

    def test_overlong_numbers_are_syntax_errors(self):
        # int() refuses them with a bare ValueError that used to escape
        big = "1" * (sys.get_int_max_str_digits() + 1)
        for text in ('{"dim": %s}' % big,
                     '{"dim": 2, "products": [[%s, 1, [[2, "1"]]]]}' % big,
                     '{"dim": 2, "products": [[1, 1, [[2, "1/%s"]]]]}' % big):
            with pytest.raises(AlgebraFileSyntaxError, match="integer conversion limit"):
                parse(text)

    def test_scaled_size_is_refused_fast(self):
        # dim 24: 13824 coprime denominators, whose lcm has 215418 bits, so
        # 2.98e9 bits over it; the parent took 1.8 s and 400 MB to build
        # that tensor.  The lcm is abandoned at about 1000 primes, and the
        # refusal took 0.03 s on a 2-vCPU Xeon, Python 3.11.7
        text = coprime_denominator_text(24)
        start = time.perf_counter()
        with pytest.raises(ScaledSizeError, match="13824 nonzero structure constants"):
            parse(text)
        assert time.perf_counter() - start < 0.5
        assert issubclass(ScaledSizeError, AlgebraFileError)

    def test_scaled_size_bound_is_exact(self, monkeypatch):
        # the count of nonzero entries times the bit length of their lcm,
        # for the structure constants and the form's entries apart, with
        # each entry in lowest terms: 1/2, -1/3 and 2/8 = 1/4 over 12 (4
        # bits) take 12 bits (over 24, 15); the form's 1/2, 1/3, 1/3, 1/5
        # over 30 (5 bits) 20
        text = json.dumps({"dim": 2, "products": [[1, 1, [[1, "1/2"], [2, "-1/3"]]], [2, 1, [[2, "2/8"]]]]})
        form_text = json.dumps({"dim": 2, "products": [[1, 1, [[2, "1"]]]],
                                "form": [["1/2", "1/3"], ["1/3", "1/5"]]})
        monkeypatch.setattr(fileio, "MAX_SCALED_BITS", 20)
        assert parse(form_text)[1] == SymForm(Mat([[QQ(1, 2), QQ(1, 3)], [QQ(1, 3), QQ(1, 5)]]))
        monkeypatch.setattr(fileio, "MAX_SCALED_BITS", 19)
        with pytest.raises(ScaledSizeError, match="the 4 nonzero form entries"):
            parse(form_text)
        monkeypatch.setattr(fileio, "MAX_SCALED_BITS", 12)
        A, _, _ = parse(text)
        assert A.int_tensor() == ([[[6, -4], [0, 0]], [[0, 3], [0, 0]]], 12)
        monkeypatch.setattr(fileio, "MAX_SCALED_BITS", 11)
        with pytest.raises(ScaledSizeError, match="the 3 nonzero structure constants"):
            parse(text)

    def test_dim_cap_is_inclusive(self):
        A, _, _ = parse('{"dim": %d}' % fileio.MAX_DIM)
        assert A.dim == fileio.MAX_DIM


def test_readme_example_parses():
    # the README's file-format example must stay valid input
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    A, form, meta = parse(block)
    assert as_fractions(A)[0][0] == [0, QQ(1, 2)]
    assert form == SymForm(Mat([[0, 1], [1, 0]]))
    assert meta == {"name": "example"}
    assert is_invariant(A, form)


class TestRoundTrip:
    @pytest.mark.parametrize("variant", [0, 1, 2, 3])
    def test_families(self, variant):
        A = make_family(variant, 4)
        A2, form, _ = parse(serialize(A))
        assert A2 == A
        assert form is None

    def test_with_form_and_metadata(self):
        A = make_family(2, 3)
        B = SymForm(Mat([[0, 1, 0], [1, 0, 0], [0, 0, QQ(-5, 2)]]))
        text = serialize(A, form=B, metadata={"name": "n", "seed": 3})
        A2, B2, meta = parse(text)
        assert A2 == A
        assert B2 == B
        assert meta == {"name": "n", "seed": 3}

    def test_serialization_is_stable(self):
        A = make_family(3, 5)
        assert serialize(A) == serialize(A)

    def test_rationals_never_floats(self):
        A = Algebra.from_products(2, [(0, 0, 1, QQ(1, 3))])
        text = serialize(A)
        assert "0.3" not in text
        assert '"1/3"' in text


# small integers, and integers of up to 700 bits
formatter_ints = st.integers(-50, 50) | st.integers(-2**700, 2**700)


@given(formatter_ints, formatter_ints.filter(bool))
@example(0, 1)
@example(0, -7)
@example(-12, -8)
@example(6 * 3**400, -4 * 3**400)
@example(-(2**521 - 1), 2**607 - 1)
def test_ratio_str_is_fraction_str(num, den):
    # the one formatter of every output prints num / den from its
    # integers as str(Fraction(num, den)) does: in lowest terms, with a
    # positive denominator, and "p" for an integer; rational_str reads a
    # Fraction's own pair
    expected = str(QQ(num, den))
    assert ratio_str(num, den) == expected == rational_str(QQ(num, den))


rationals = st.builds(QQ, st.integers(-30, 30), st.integers(1, 12))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def algebra_files(draw):
    """(A, form or None, metadata or None): dim <= 5, sparse structure
    constants and a dense symmetric form, all rational."""
    n = draw(st.integers(0, 5))
    entries = {}
    if n:
        index = st.integers(0, n - 1)
        entries = draw(st.dictionaries(st.tuples(index, index, index), rationals, max_size=12))
    A = Algebra.from_products(n, [(i, j, m, v) for (i, j, m), v in entries.items()])
    form = None
    if draw(st.booleans()):
        upper = {(a, b): draw(rationals) for a in range(n) for b in range(a, n)}
        form = SymForm(Mat([[upper[min(a, b), max(a, b)] for b in range(n)] for a in range(n)], n))
    metadata = draw(st.none() | st.dictionaries(st.text(max_size=4), json_values, max_size=3))
    return A, form, metadata


@given(algebra_files())
@settings(max_examples=60, deadline=None)
def test_parse_serialize_round_trip(case):
    A, form, metadata = case
    text = serialize(A, form=form, metadata=metadata)
    A2, form2, metadata2 = parse(text)
    assert A2 == A
    assert form2 == form
    assert metadata2 == (metadata or {})
    assert serialize(A2, form=form2, metadata=metadata2) == text
