import hashlib
import json
import sys
import time
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fnovikov import (Algebra, CanonError, GenericPointError, Mat, SymForm, make_family,
                      nondegenerate_form, parse, scramble, serialize, theorem_check)
from fnovikov import canon, cli, forms
from fnovikov.fileio import MAX_DIM, MAX_SCALED_BITS
from fnovikov.cli import main

from test_fileio import STRUCTURAL_REFUSALS, coprime_denominator_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def family2_file(tmp_path):
    path = tmp_path / "fam2.json"
    path.write_text(serialize(make_family(2, 3)))
    return str(path)


@pytest.fixture
def idempotent_file(tmp_path):
    from fnovikov import Algebra

    path = tmp_path / "idem.json"
    path.write_text(serialize(Algebra.from_products(1, [(0, 0, 0, 1)])))
    return str(path)


class TestCheck:
    def test_family2_passes(self, capsys, family2_file):
        code, out, _ = run(capsys, "check", "--input", family2_file, "--json")
        assert code == 0
        report = json.loads(out)
        assert report == {
            "left_symmetric": True,
            "fermionic": True,
            "novikov": True,
        }

    def test_idempotent_fails(self, capsys, idempotent_file):
        code, out, _ = run(capsys, "check", "--input", idempotent_file, "--json")
        assert code == 1
        assert json.loads(out)["fermionic"] is False

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "--input", "/nonexistent.json")
        assert code == 2
        assert "error" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "check", "--input", str(path))
        assert code == 2

    @pytest.mark.parametrize("text, message", STRUCTURAL_REFUSALS)
    def test_structural_refusal(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "check", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")

    def test_directory_input(self, capsys, tmp_path):
        code, out, err = run(capsys, "check", "--input", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_deeply_nested_file(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        code, out, err = run(capsys, "check", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: JSON nested too deeply")

    @pytest.mark.parametrize("template", [
        '{"dim": %s}',
        '{"dim": 2, "products": [[%s, 1, [[2, "1"]]]]}',
        '{"dim": 2, "products": [[1, 1, [[2, "1/%s"]]]]}',
    ])
    def test_overlong_number(self, capsys, tmp_path, template):
        path = tmp_path / "long.json"
        path.write_text(template % ("1" * (sys.get_int_max_str_digits() + 1)))
        code, out, err = run(capsys, "check", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == "error: number has more digits than the integer conversion limit\n"


class TestForms:
    def test_family2(self, capsys, family2_file):
        code, out, _ = run(capsys, "forms", "--input", family2_file, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["space_dimension"] == 4
        assert report["nondegenerate_member"] is not None
        assert sum(report["type"]) == 3


    def test_dimension_zero(self, capsys, tmp_path):
        # the 0x0 form is nondegenerate, though the space has no member
        path = tmp_path / "dim0.json"
        path.write_text('{"dim": 0}')
        code, out, _ = run(capsys, "forms", "--input", str(path), "--json")
        assert code == 0
        assert json.loads(out) == {"space_dimension": 0, "nondegenerate_member": [], "type": [0, 0]}

    def test_formless_witness(self, capsys, tmp_path):
        # the scrambled first witness: its members' rows have rank 3 < 4
        # together, so no member is nondegenerate; the report is pinned
        from fnovikov import scramble, search_fermionic_not_novikov

        path = tmp_path / "witness.json"
        path.write_text(serialize(scramble(next(search_fermionic_not_novikov()), None, 3)[0]))
        code, out, _ = run(capsys, "forms", "--input", str(path), "--json")
        assert code == 0
        assert json.loads(out)["nondegenerate_member"] is None
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c26472400a52d54136bbd43c39d65ca2b59e8088be686e99ff835bca369cbbe0"
        )


CANON_TEXT_FAM4 = """\
x0:
  1 1 -2 0
k: 1
P:
    1 0 0 0
    0 1 0 0
    0 0 1 -1/2
    0 0 1 1/2
pair_weights:
  1
signs:
  1
complement_diag:
  2 -1/2
d_forms:
      0
      1
      0
      0
claims:
  metric_canonical: True
  rx0_canonical: True
  lower_right_zero: True
  side_blocks_zero: True
  core_block_shape: True
  weighted_symmetry: True
  products_vanish: True
"""


class TestCanon:
    def test_family2(self, capsys, family2_file):
        code, out, _ = run(capsys, "canon", "--input", family2_file, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["k"] == 1
        assert all(report["claims"].values())

    def test_derived_dim_other_than_k_exits_1(self, capsys, monkeypatch, family2_file):
        # canon exits on theorem_check's verdict: with every claim true but
        # dim AA != k, the paper's second conclusion fails, canon names it
        # on stderr and exits 1, and its report does not change
        _, expected, _ = run(capsys, "canon", "--input", family2_file, "--json")
        monkeypatch.setattr(Algebra, "derived_dim", lambda self: 2)
        code, out, err = run(capsys, "canon", "--input", family2_file, "--json")
        assert (code, out, err) == (1, expected, "error: failed conclusions: derived_dim_is_k\n")
        A, _, _ = parse(open(family2_file, "rb").read())
        assert not theorem_check(A, nondegenerate_form(A, 0)[1], 0)

    def test_failed_claim_is_named(self, capsys, monkeypatch, family2_file):
        monkeypatch.setattr(canon, "check_novikov", lambda A: False)
        code, out, err = run(capsys, "canon", "--input", family2_file, "--json")
        assert json.loads(out)["claims"]["products_vanish"] is False
        assert (code, err) == (1, "error: failed conclusions: products_vanish\n")

    def test_text_report(self, capsys, tmp_path):
        # without --json the report is printed nested: a key per line, a
        # list of scalars on one line, a list of lists one level deeper
        path = tmp_path / "fam4.json"
        code, _, _ = run(capsys, "gen", "--variant", "2", "--dim", "4", "--seed", "1", "--output", str(path))
        assert code == 0
        code, out, err = run(capsys, "canon", "--input", str(path))
        assert (code, out, err) == (0, CANON_TEXT_FAM4, "")

    def test_dimension_zero(self, capsys, tmp_path):
        path = tmp_path / "dim0.json"
        path.write_text('{"dim": 0}')
        code, out, _ = run(capsys, "canon", "--input", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert (report["k"], report["P"], report["x0"]) == (0, [], [])
        assert len(report["claims"]) == 7 and all(report["claims"].values())

    def test_degenerate_form_rejected(self, capsys, tmp_path):
        A = make_family(2, 2)
        B = SymForm(Mat([[0, 0], [0, 1]]))
        path = tmp_path / "degenerate.json"
        path.write_text(serialize(A, form=B))
        code, _, err = run(capsys, "canon", "--input", str(path))
        assert code == 2
        assert "error" in err

    def test_nonfermionic_rejected(self, capsys, idempotent_file):
        code, _, _ = run(capsys, "canon", "--input", idempotent_file)
        assert code == 1

    def test_failed_precondition_is_named(self, capsys, tmp_path, idempotent_file):
        # e_0 e_1 = e_0 is not left-symmetric: the associator (e_0, e_1, e_1)
        # is e_0, and (e_1, e_0, e_1) is 0
        from fnovikov import Algebra

        path = tmp_path / "skew.json"
        path.write_text(serialize(Algebra.from_products(2, [(0, 1, 0, 1)])))
        for path, message in ((str(path), "algebra must be left-symmetric"),
                              (idempotent_file, "right multiplications must anticommute")):
            code, out, err = run(capsys, "canon", "--input", path, "--json")
            assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_noninvariant_form_exits_1(self, capsys, tmp_path):
        path = tmp_path / "identity_form.json"
        path.write_text(serialize(make_family(1, 2), form=SymForm(Mat.identity(2))))
        code, out, err = run(capsys, "canon", "--input", str(path), "--json")
        assert (code, out, err) == (1, "", "error: form must be invariant\n")

    def test_formless_witness_exits_1(self, capsys, tmp_path):
        # a failed precondition of the theorem is a failed property, not a
        # usage error: the witness is well formed but admits no form
        from fnovikov import search_fermionic_not_novikov

        W = next(islice(search_fermionic_not_novikov(), 1))
        path = tmp_path / "witness.json"
        path.write_text(serialize(W))
        code, out, err = run(capsys, "canon", "--input", str(path), "--json")
        assert code == 1
        assert out == ""
        assert err == "error: no nondegenerate invariant form exists\n"

    @pytest.mark.parametrize(
        "name,error",
        [
            ("max_rank_element", CanonError("rank of R_{x0} exceeds the negative index")),
            ("find_nondegenerate", GenericPointError("no rank-3 specialization")),
        ],
    )
    def test_internal_claim_failure_exits_1(self, capsys, monkeypatch, family2_file, name, error):
        # CanonError and GenericPointError are RuntimeErrors: an internal
        # claim failed, reported as a failed property, not a traceback; the
        # form search runs in forms, behind nondegenerate_form
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(forms if name == "find_nondegenerate" else canon, name, fail)
        code, out, err = run(capsys, "canon", "--input", family2_file, "--json")
        assert code == 1
        assert out == ""
        assert err == f"error: {error}\n"


def test_outputs_build_no_rational(capsys, monkeypatch, tmp_path):
    # canon and forms, in both modes, and serialize print every rational
    # from its integer numerator and denominator through one formatter,
    # so from the parsed file to the printed report no Fraction and no
    # Mat is built; the scrambled file has rational entries and its
    # form-less copy makes canon search for the form
    A, B, _ = scramble(make_family(2, 4), nondegenerate_form(make_family(2, 4), 1)[1], 3)
    form, formless = tmp_path / "form.json", tmp_path / "formless.json"
    form.write_text(serialize(A, form=B))
    formless.write_text(serialize(A))
    commands = [[cmd, "--input", str(path), *mode] for cmd in ("canon", "forms")
                for path in (form, formless) for mode in ((), ("--json",))]
    expected = [run(capsys, *argv) for argv in commands]
    A, B, _ = parse(form.read_text())
    calls = []
    real_raw, real_new = Mat._raw, Fraction.__new__
    monkeypatch.setattr(Mat, "_raw", classmethod(lambda cls, *a: calls.append(a) or real_raw(*a)))
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **kw: calls.append(a) or real_new(cls, *a, **kw))
    got = [run(capsys, *argv) for argv in commands]
    text = serialize(A, form=B)
    monkeypatch.undo()
    assert calls == []
    assert got == expected and all(code == 0 for code, _, _ in got)
    assert text == form.read_text()


class TestClassify:
    @pytest.mark.parametrize("variant,expected", [(1, "1"), (2, "2"), (3, "3")])
    def test_families(self, capsys, tmp_path, variant, expected):
        path = tmp_path / "fam.json"
        path.write_text(serialize(make_family(variant, 4)))
        code, out, _ = run(capsys, "classify", "--input", str(path), "--json")
        assert code == 0
        assert json.loads(out)["classification"] == expected

    def test_zero(self, capsys, tmp_path):
        from fnovikov import Algebra

        path = tmp_path / "zero.json"
        path.write_text(serialize(Algebra.zero(3)))
        code, out, _ = run(capsys, "classify", "--input", str(path), "--json")
        assert code == 0
        assert json.loads(out)["classification"] == "k=0"

    def test_k2(self, capsys, tmp_path):
        from fnovikov import K2Params, make_k2

        p = K2Params(
            n=5, lam=[1, 0, 0, 0, 0], mu=[0, 0, 1, 0, 0], gam=[-1, 0, 0, 0, 0]
        )
        path = tmp_path / "k2.json"
        path.write_text(serialize(make_k2(p)))
        code, out, _ = run(capsys, "classify", "--input", str(path), "--json")
        assert code == 0
        assert json.loads(out)["classification"] == "k>=2"

    def test_non_left_symmetric_is_named(self, capsys, tmp_path):
        # e_0 e_1 = e_0 is not left-symmetric; the message is canon's
        from fnovikov import Algebra

        path = tmp_path / "skew.json"
        path.write_text(serialize(Algebra.from_products(2, [(0, 1, 0, 1)])))
        code, out, err = run(capsys, "classify", "--input", str(path), "--json")
        assert (code, out, err) == (1, "", "error: algebra must be left-symmetric\n")

    def test_non_fermionic_is_named(self, capsys, idempotent_file):
        # e_0 e_0 = e_0 is left-symmetric, but R_{e_0}^2 = R_{e_0} != 0
        code, out, err = run(capsys, "classify", "--input", idempotent_file, "--json")
        assert (code, out, err) == (1, "", "error: right multiplications must anticommute\n")


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "7", "--count", "4", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 4
        assert report["failures"] == 0
        assert all(inst["pass"] for inst in report["instances"])

    def test_json_stable_across_runs(self, capsys):
        _, out1, _ = run(capsys, "verify", "--seed", "5", "--count", "3", "--json")
        _, out2, _ = run(capsys, "verify", "--seed", "5", "--count", "3", "--json")
        assert out1 == out2

    @pytest.mark.parametrize("count", ["-3", "-1", "0"])
    def test_negative_count_is_a_usage_error(self, capsys, count):
        # a run that verifies nothing must not pass
        assert run(capsys, "verify", "--count", count, "--json") == (
            2, "", f"error: --count must be positive, got {count}\n")

    def test_json_golden_digest(self, capsys):
        # the byte-stable --json output, pinned across code changes
        code, out, _ = run(capsys, "verify", "--json", "--count", "20", "--seed", "7")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0c166dd89efec0b2f56082e6e382558d48a700b712785b8ddbb2a41e2643e964"
        )


class TestGenScramble:
    def test_gen_then_check(self, capsys, tmp_path):
        path = tmp_path / "gen.json"
        code, _, _ = run(
            capsys, "gen", "--variant", "3", "--dim", "4", "--output", str(path)
        )
        assert code == 0
        A, B, meta = parse(path.read_text())
        assert A == make_family(3, 4)
        assert B is not None and B.is_nondegenerate()
        code, _, _ = run(capsys, "check", "--input", str(path))
        assert code == 0

    def test_gen_golden_digest(self, capsys):
        # the forms gen finds at dims 3-5, where the members of the form
        # space have low rank and the {-1, 0, 1} sweep stops at supports
        # 2-3; the nine outputs are pinned
        outs = []
        for variant in ("1", "2", "3"):
            for dim in ("3", "4", "5"):
                code, out, _ = run(capsys, "gen", "--variant", variant, "--dim", dim, "--seed", "1")
                assert code == 0
                outs.append(out)
        assert hashlib.sha256("".join(outs).encode()).hexdigest() == (
            "947a40f1ccb1f90889d245a451ce9de9d98f779a8e70fc0247162691c34e79e0"
        )

    def test_scramble_preserves_classification(self, capsys, tmp_path):
        src = tmp_path / "src.json"
        dst = tmp_path / "dst.json"
        run(capsys, "gen", "--variant", "2", "--dim", "3", "--output", str(src))
        code, _, _ = run(
            capsys, "scramble", "--input", str(src), "--seed", "3", "--output", str(dst)
        )
        assert code == 0
        code, out, _ = run(capsys, "classify", "--input", str(dst), "--json")
        assert code == 0
        assert json.loads(out)["classification"] == "2"

    def test_gen_dimension_zero(self, capsys):
        # the 0x0 form is nondegenerate, so gen writes it, as forms reports
        # it and canon takes it
        code, out, _ = run(capsys, "gen", "--variant", "0", "--dim", "0")
        assert code == 0
        assert json.loads(out)["form"] == []
        A, B, _ = parse(out)
        assert A.dim == 0 and B == SymForm.from_ints([], 1)

    def test_gen_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "--variant", "1", "--dim", "2")
        assert code == 0
        A, _, _ = parse(out)
        assert A == make_family(1, 2)

    def test_coprime_denominators_refused(self, capsys, tmp_path):
        # a 239 KB dim-24 file whose common denominator has 215418 bits:
        # a usage error, before the tensor over it is built
        path = tmp_path / "primes24.json"
        path.write_text(coprime_denominator_text(24))
        start = time.perf_counter()
        code, out, err = run(capsys, "check", "--input", str(path), "--json")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == (f"error: the 13824 nonzero structure constants over their common"
                       f" denominator exceed {MAX_SCALED_BITS} bits\n")

    @pytest.mark.parametrize("dim", [MAX_DIM + 1, 10**9])
    def test_gen_dim_above_the_file_limit(self, capsys, monkeypatch, dim):
        # parse refuses such a file, so gen exits 2 before it allocates the
        # dim^3 structure constants
        def no_alloc(*args):
            pytest.fail("make_family called")

        monkeypatch.setattr(cli, "make_family", no_alloc)
        assert run(capsys, "gen", "--variant", "1", "--dim", str(dim)) == (
            2, "", f"error: dim {dim} exceeds the limit {MAX_DIM}\n")


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("FNOVIKOV_SEED", "5")
        _, out1, _ = run(capsys, "verify", "--count", "2", "--json")
        monkeypatch.delenv("FNOVIKOV_SEED")
        _, out2, _ = run(capsys, "verify", "--seed", "5", "--count", "2", "--json")
        assert out1 == out2

    @pytest.mark.parametrize("value", ["abc", "7" * 5000], ids=["word", "5000-digits"])
    def test_bad_env_seed(self, capsys, monkeypatch, value):
        # a seed int() refuses, as not an integer or as too long, is a
        # usage error that names the variable
        monkeypatch.setenv("FNOVIKOV_SEED", value)
        code, out, err = run(capsys, "verify", "--count", "1", "--json")
        assert (code, out) == (2, "")
        assert "FNOVIKOV_SEED" in err and "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("argv", [
        ["gen", "--variant", "1", "--dim", "2", "--json"],
        ["scramble", "--input", None, "--json"],
        ["check", "--input", None, "--seed", "5"],
        ["classify", "--input", None, "--seed", "5"],
    ], ids=["gen-json", "scramble-json", "check-seed", "classify-seed"])
    def test_unread_flag_is_usage_error(self, capsys, family2_file, argv):
        # a subcommand takes only the flags it reads: gen and scramble
        # write no report, check and classify draw no random point
        code, out, err = run(capsys, *[family2_file if a is None else a for a in argv])
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err


# ---------------------------------------------------------------------------
# any small file, well-formed or not: a clean exit code, never a traceback

_RATIONALS = st.builds(lambda p, q: f"{p}/{q}", st.integers(-3, 3), st.integers(1, 3)) | st.sampled_from(
    ["0", "1", "-1", "2"])
_BAD_VALUES = st.sampled_from([None, True, 0, -1, 4, 65, 1.5, "1", "1.5", "1/0", "x", "٣", [], {}, [1], [[1, "1"]]])


@st.composite
def algebra_files(draw):
    """The text of a file of dim <= 3: a one-product family with its form, or
    random products and a random form, and half the time one part of it
    replaced by a value of the wrong kind, or the text cut short."""
    if draw(st.booleans()):
        variant = draw(st.integers(0, 3))
        n = draw(st.integers({0: 0, 1: 2, 2: 2, 3: 3}[variant], 3))
        A = make_family(variant, n)
        doc = json.loads(serialize(A, form=nondegenerate_form(A, 1)[1]))
    else:
        n = draw(st.integers(0, 3))
        index = st.integers(1, n) if n else st.nothing()
        pairs = draw(st.dictionaries(st.tuples(index, index), st.dictionaries(index, _RATIONALS, min_size=1),
                                     max_size=4)) if n else {}
        doc = {"dim": n, "products": [[i, j, [[m, x] for m, x in terms.items()]]
                                      for (i, j), terms in pairs.items()]}
        if draw(st.booleans()):
            upper = [[draw(_RATIONALS) for _ in range(n)] for _ in range(n)]
            doc["form"] = [[upper[min(r, c)][max(r, c)] for c in range(n)] for r in range(n)]
        if draw(st.booleans()):
            doc["metadata"] = {"name": "drawn"}
    if draw(st.booleans()):
        bad = draw(_BAD_VALUES)
        where = draw(st.sampled_from(["top", "dim", "products", "entry", "index", "term", "coeff",
                                      "form", "form row", "form entry", "metadata"]))
        entries = doc.get("products") or [[1, 1, [[1, "1"]]]]
        form = doc.get("form") or [[bad]]
        if where == "top":
            doc = bad
        elif where in ("dim", "products", "form", "metadata"):
            doc[where] = bad
        elif where == "entry":
            doc["products"] = entries[:-1] + [bad]
        elif where == "index":
            entries[-1][draw(st.integers(0, 1))] = bad
            doc["products"] = entries
        elif where == "term":
            entries[-1][2] = entries[-1][2][:-1] + [bad]
            doc["products"] = entries
        elif where == "coeff":
            entries[-1][2][-1] = [entries[-1][2][-1][0], bad]
            doc["products"] = entries
        elif where == "form row":
            doc["form"] = form[:-1] + [bad]
        else:
            form[-1] = form[-1][:-1] + [bad]
            doc["form"] = form
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


@given(text=algebra_files())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_command_exits_cleanly_on_any_small_file(capsys, tmp_path, text):
    # each exit code is 0, 1 or 2: any other exception would escape main
    path = tmp_path / "drawn.json"
    path.write_text(text)
    for command in ("check", "forms", "canon", "classify", "scramble"):
        code, _, err = run(capsys, command, "--input", str(path))
        assert code in (0, 1, 2), (command, text)
        assert code != 2 or err.startswith("error: "), (command, text)
