"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fnovikov"


def unused_imports(source):
    """Names bound by an import statement and never read in source.

    A name counts as read when it appears as a bare name, including as the
    base of an attribute access such as `itertools.product`.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_detects_one():
    source = "from __future__ import annotations\nimport os\nfrom operator import add, mul\nprint(os.sep, add)\n"
    assert unused_imports(source) == [(3, "mul")]


@pytest.mark.parametrize(
    "path",
    # __init__.py imports in order to re-export
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def calls_to(source, names):
    """The names among `names` that source calls, as a bare name or as an
    attribute such as `forms.find_nondegenerate(...)`."""
    called = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return sorted(called & set(names))


# the form choice has one home, forms.nondegenerate_form: no other module
# searches the form space itself
FORM_SEARCH = ("find_nondegenerate", "invariant_form_space")


def test_calls_to_detects_both_spellings():
    source = "from . import forms\nforms.invariant_form_space(A)\nx = find_nondegenerate\nfind_nondegenerate(s, 0)\n"
    assert calls_to(source, FORM_SEARCH) == ["find_nondegenerate", "invariant_form_space"]
    assert calls_to("y = invariant_form_space\n", FORM_SEARCH) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_form_searched_in_forms_only(path):
    assert calls_to(path.read_text(), FORM_SEARCH) == ([] if path.name != "forms.py" else list(FORM_SEARCH))
