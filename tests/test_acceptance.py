"""Acceptance criteria, one test per criterion, exact arithmetic
throughout (zero tolerance).  Each test prints a single pass line on
success; a failed assertion is the fail line."""

import json
import random
import time

import pytest

from fnovikov import (
    Mat,
    Pencil,
    SymForm,
    check_fermionic,
    check_left_symmetric,
    check_novikov,
    classify_k1,
    find_generic_point,
    find_nondegenerate,
    generate_corpus,
    generic_rank,
    invariant_form_space,
    is_invariant,
    k2_condition,
    make_family,
    make_k2,
    max_rank_element,
    normalize_orientation,
    canonical_basis,
    verify_structure,
    random_k2,
    rank,
    scramble,
    search_breaking_mutation,
    search_fermionic_not_novikov,
    serialize,
    signature,
    theorem_check,
)
from fnovikov.cli import main as cli_main
from fnovikov.forms import DegenerateFormError

from test_classify import unstructured_k2
from test_exactlin import congruent
from test_forms import sympy_form_space_dim
from test_integer_kernel import from_sympy, ref_right_pencil


def done(n, detail=""):
    print(f"criterion {n}: PASS {detail}".rstrip())


def test_criterion_1_families_pass_all_identities():
    start = time.monotonic()
    for variant in (0, 1, 2, 3):
        for n in range(2, 7):
            if variant == 3 and n < 3:
                continue
            A = make_family(variant, n)
            assert check_left_symmetric(A)
            assert check_fermionic(A)
            assert check_novikov(A)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    done(1, f"({elapsed:.2f}s)")


def test_criterion_2_invariant_form_spaces():
    space1 = invariant_form_space(make_family(1, 2))
    space3 = invariant_form_space(make_family(3, 3))
    assert len(space1) == 2 == sympy_form_space_dim(make_family(1, 2))
    assert len(space3) == 4 == sympy_form_space_dim(make_family(3, 3))
    for variant in (1, 2, 3):
        for n in range(3 if variant == 3 else 2, 7):
            A = make_family(variant, n)
            B = find_nondegenerate(invariant_form_space(A), seed=13)
            assert B is not None and B.is_nondegenerate()
            assert is_invariant(A, B)
    done(2)


# criteria 3-5 share the 200-instance corpus run
_corpus_results = None


def _run_corpus():
    global _corpus_results
    if _corpus_results is not None:
        return _corpus_results
    start = time.monotonic()
    results = []
    for name, A, B in generate_corpus(2024, 200):
        Bn = normalize_orientation(B)
        x0, k = max_rank_element(A, seed=31)
        rep = canonical_basis(A, Bn, x0)
        claims = verify_structure(A, Bn, rep)
        ok = theorem_check(A, B, seed=31)
        results.append((name, A, Bn, rep, claims, ok))
    elapsed = time.monotonic() - start
    _corpus_results = (results, elapsed)
    return _corpus_results


def test_criterion_3_main_theorem_pipeline():
    results, elapsed = _run_corpus()
    assert len(results) == 200
    for name, A, Bn, rep, claims, ok in results:
        assert all(claims.values()), (name, claims)
        assert ok, name
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    done(3, f"(200 instances, {elapsed:.1f}s)")


def test_criterion_4_derived_dim_equals_k():
    results, _ = _run_corpus()
    for name, A, Bn, rep, claims, ok in results:
        assert A.derived_dim() == rep.k, name
    done(4)


def test_criterion_5_image_isotropy_and_bound():
    results, _ = _run_corpus()
    for name, A, Bn, rep, claims, ok in results:
        _, p, _ = Bn.signature()
        # member j is R_{e_j} times the lcm of c's denominators
        for R in ref_right_pencil(A).mats:
            assert rank(Mat(R)) <= p, name
            # <u, v> = 0 for every pair of columns of R
            assert congruent(Mat(R), Bn.matrix).is_zero_matrix, name
    done(5)


def test_criterion_6_oracle_equivalences():
    # (i) commutation criterion vs full left-symmetry check
    rnd = random.Random(61)
    seen = set()
    for i in range(100):
        n = rnd.randint(5, 8)
        A = make_k2(random_k2(rnd, n) if i % 2 == 0 else unstructured_k2(rnd, n))
        assert check_fermionic(A)
        verdict = k2_condition(A)
        assert verdict == check_left_symmetric(A)
        seen.add(verdict)
    assert seen == {True, False}

    # (ii) randomized specialization rank vs symbolic generic rank
    rnd = random.Random(62)
    for _ in range(50):
        nv = rnd.randint(1, 4)
        n = rnd.randint(1, 8)
        mats = [
            [[rnd.randint(-3, 3) if rnd.random() < 0.3 else 0 for _ in range(n)]
             for _ in range(n)]
            for _ in range(nv)
        ]
        M = Pencil(mats, n, n)
        r = generic_rank(M)
        point = find_generic_point(M, seed=rnd.randrange(2**30))[0]
        assert rank(Mat(M.eval(point))) == r
        for _ in range(3):
            pt = [rnd.randint(-4, 4) for _ in range(nv)]
            assert rank(Mat(M.eval(pt))) <= r

    # (iii) signature invariance under congruence
    rnd = random.Random(63)
    for S in (
        Mat([[0, 1], [1, 0]]),
        Mat.diagonal([1, -1, 2]),
        Mat([[2, 1, 0], [1, 0, 3], [0, 3, -1]]),
    ):
        sig = signature(S)
        count = 0
        while count < 50:
            Q = Mat(
                [
                    [rnd.randint(-3, 3) for _ in range(S.rows)]
                    for _ in range(S.rows)
                ]
            )
            if rank(Q) < S.rows:
                continue
            assert signature(from_sympy(congruent(Q, S))) == sig
            count += 1
    done(6)


def test_criterion_7_classifier_correct_and_invariant():
    for variant in (1, 2, 3):
        A = make_family(variant, 4)
        assert classify_k1(A) == variant
        for seed in range(50):
            A2, _, _ = scramble(A, None, seed)
            assert classify_k1(A2) == variant
    done(7)


def test_criterion_8_negative_controls(tmp_path, capsys):
    # (i) single-entry mutation of the one-sided family breaks an identity
    found = search_breaking_mutation(make_family(2, 2))
    assert found is not None
    *_, mutated = found
    path = tmp_path / "mutated.json"
    path.write_text(serialize(mutated))
    code = cli_main(["check", "--input", str(path), "--json"])
    out = capsys.readouterr().out
    assert code == 1
    assert not all(json.loads(out).values())

    # (ii) degenerate form rejected as a distinct error
    with pytest.raises(DegenerateFormError):
        normalize_orientation(SymForm(Mat.diagonal([1, 0])))
    degen = tmp_path / "degen.json"
    degen.write_text(
        serialize(make_family(2, 2), form=SymForm(Mat.diagonal([0, 1])))
    )
    assert cli_main(["canon", "--input", str(degen)]) == 2
    capsys.readouterr()

    # (iii) every found fermionic-but-not-Novikov witness admits no
    # nondegenerate invariant form (falsifiability of the main theorem)
    witnesses = 0
    for A in search_fermionic_not_novikov():
        space = invariant_form_space(A)
        assert find_nondegenerate(space, seed=8) is None
        witnesses += 1
        if witnesses >= 10:
            break
    assert witnesses >= 1
    done(8, f"({witnesses} theorem-falsifiability witnesses checked)")
