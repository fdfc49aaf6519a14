import re
from pathlib import Path

import pytest

from fnovikov import fileio
from fnovikov import (
    AlgebraFileError,
    AlgebraFileSyntaxError,
    IndexRangeError,
    Mat,
    NonSymmetricFormError,
    SymForm,
    ZeroDenominatorError,
    is_invariant,
    make_family,
    parse,
    serialize,
)
from fnovikov.scalars import QQ


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
        assert A.c[0][1][1] == QQ(-3, 4)
        assert meta == {"name": "x"}

    def test_bytes_accepted(self):
        A, _, _ = parse(FAMILY1_TEXT.encode())
        assert A == make_family(1, 2)


class TestParseErrors:
    def test_malformed_json_reports_position(self):
        with pytest.raises(AlgebraFileSyntaxError) as err:
            parse('{"dim": 2, ')
        assert err.value.position is not None

    def test_float_rational_rejected(self):
        with pytest.raises(AlgebraFileSyntaxError):
            parse('{"dim": 2, "products": [[1, 1, [[2, "1.5"]]]]}')

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
        assert (A.c[0][0], A.c[1][0]) == ([1, 5], [0, 1])

    def test_dim_cap_checked_before_allocation(self, monkeypatch):
        def no_alloc(dim):
            raise AssertionError(f"allocated a dim-{dim} tensor")

        monkeypatch.setattr(fileio.Algebra, "zero", no_alloc)
        for dim in (fileio.MAX_DIM + 1, 10**9):
            with pytest.raises(AlgebraFileSyntaxError, match="exceeds the limit"):
                parse('{"dim": %d}' % dim)

    def test_dim_cap_is_inclusive(self):
        A, _, _ = parse('{"dim": %d}' % fileio.MAX_DIM)
        assert A.dim == fileio.MAX_DIM


def test_readme_example_parses():
    # the README's file-format example must stay valid input
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    A, form, meta = parse(block)
    assert A.c[0][0] == [0, QQ(1, 2)]
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
        A = make_family(1, 2)
        A.c[0][0][1] = QQ(1, 3)
        text = serialize(A)
        assert "0.3" not in text
        assert '"1/3"' in text
