import json

import pytest

from fnovikov import CanonError, GenericPointError, Mat, SymForm, make_family, parse, serialize
from fnovikov import cli
from fnovikov.cli import main


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


class TestForms:
    def test_family2(self, capsys, family2_file):
        code, out, _ = run(capsys, "forms", "--input", family2_file, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["space_dimension"] == 4
        assert report["nondegenerate_member"] is not None
        assert sum(report["type"]) == 3


class TestCanon:
    def test_family2(self, capsys, family2_file):
        code, out, _ = run(capsys, "canon", "--input", family2_file, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["k"] == 1
        assert all(report["claims"].values())

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

    @pytest.mark.parametrize(
        "name,error",
        [
            ("max_rank_element", CanonError("rank certificate failed")),
            ("find_nondegenerate", GenericPointError("no rank-3 specialization")),
        ],
    )
    def test_internal_claim_failure_exits_1(self, capsys, monkeypatch, family2_file, name, error):
        # CanonError and GenericPointError are RuntimeErrors: an internal
        # claim failed, reported as a failed property, not a traceback
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, name, fail)
        code, out, err = run(capsys, "canon", "--input", family2_file, "--json")
        assert code == 1
        assert out == ""
        assert err == f"error: {error}\n"


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

    def test_gen_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "--variant", "1", "--dim", "2")
        assert code == 0
        A, _, _ = parse(out)
        assert A == make_family(1, 2)


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
