"""Command-line surface.

Exit codes: 0 all checks passed, 1 a mathematical property failed
(including an internal claim: CanonError, GenericPointError), 2 input or
usage error.  The default seed comes from --seed, falling back
to the FNOVIKOV_SEED environment variable, then 0.  Reports in --json
mode contain no timestamps and are byte-stable for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .scalars import rational_str
from .exactlin import GenericPointError, Mat
from .algebra import (
    Algebra,
    check_fermionic,
    check_left_symmetric,
    check_novikov,
)
from .forms import (
    find_nondegenerate,
    invariant_form_space,
    is_invariant,
    normalize_orientation,
    DegenerateFormError,
)
from .canon import (
    CanonError,
    CanonReport,
    PreconditionError,
    canonical_basis,
    max_rank_element,
    theorem_check,
    verify_structure,
)
from .classify import generate_corpus, make_family, classify_k1, scramble
from .fileio import AlgebraFileError, parse, serialize

EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_USAGE = 2


def _mat_strs(M: Mat):
    return [[rational_str(x) for x in row] for row in M.data]


def _emit(report, as_json):
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _emit_text(report)


def _emit_text(value, prefix=""):
    if isinstance(value, dict):
        for key in value:
            v = value[key]
            if isinstance(v, (dict, list)):
                print(f"{prefix}{key}:")
                _emit_text(v, prefix + "  ")
            else:
                print(f"{prefix}{key}: {v}")
    elif isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            print(f"{prefix}{' '.join(str(v) for v in value)}")
        else:
            for v in value:
                _emit_text(v, prefix + "  ")
    else:
        print(f"{prefix}{value}")


def _load(path):
    with open(path, "rb") as fh:
        return parse(fh.read())


def _default_seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("FNOVIKOV_SEED")
    return int(env) if env else 0


def cmd_check(args):
    A, _, _ = _load(args.input)
    report = {
        "left_symmetric": check_left_symmetric(A),
        "fermionic": check_fermionic(A),
        "novikov": check_novikov(A),
    }
    _emit(report, args.json)
    return EXIT_OK if all(report.values()) else EXIT_PROPERTY_FAILED


def cmd_forms(args):
    A, _, _ = _load(args.input)
    space = invariant_form_space(A)
    B = find_nondegenerate(space, seed=_default_seed(args))
    report = {"space_dimension": len(space)}
    if B is None:
        report["nondegenerate_member"] = None
    else:
        np_, nm, _ = B.signature()
        report["nondegenerate_member"] = _mat_strs(B.matrix)
        report["type"] = [np_, nm]
    _emit(report, args.json)
    return EXIT_OK


def _resolve_form(A, form, seed):
    if form is None:
        form = find_nondegenerate(invariant_form_space(A), seed=seed)
        if form is None:
            raise PreconditionError("no nondegenerate invariant form exists")
    return normalize_orientation(form)


def _report_from_canon(rep: CanonReport, claims):
    return {
        "x0": [rational_str(x) for x in rep.x0],
        "k": rep.k,
        "P": _mat_strs(rep.P),
        "pair_weights": [rational_str(w) for w in rep.pair_weights],
        "signs": rep.signs,
        "complement_diag": [rational_str(d) for d in rep.complement_diag],
        "d_forms": [_mat_strs(d) for d in rep.d_forms],
        "claims": claims,
    }


def cmd_canon(args):
    A, form, _ = _load(args.input)
    seed = _default_seed(args)
    if not (check_left_symmetric(A) and check_fermionic(A)):
        print("error: algebra fails a defining identity", file=sys.stderr)
        return EXIT_PROPERTY_FAILED
    B = _resolve_form(A, form, seed)
    if form is not None and not is_invariant(A, B):
        print("error: supplied form is not invariant", file=sys.stderr)
        return EXIT_PROPERTY_FAILED
    x0, _ = max_rank_element(A, seed)
    rep = canonical_basis(A, B, x0)
    claims = verify_structure(A, B, rep)
    _emit(_report_from_canon(rep, claims), args.json)
    return EXIT_OK if all(claims.values()) else EXIT_PROPERTY_FAILED


def cmd_classify(args):
    A, _, _ = _load(args.input)
    if not (check_left_symmetric(A) and check_fermionic(A)):
        print("error: algebra fails a defining identity", file=sys.stderr)
        return EXIT_PROPERTY_FAILED
    dd = A.derived_dim()
    if dd == 0:
        result = "k=0"
    elif dd == 1:
        result = str(classify_k1(A))
    else:
        result = "k>=2"
    _emit({"classification": result}, args.json)
    return EXIT_OK


def cmd_verify(args):
    seed = _default_seed(args)
    results = []
    failures = 0
    for name, A, B in generate_corpus(seed, args.count):
        ok = theorem_check(A, B, seed)
        results.append({"instance": name, "pass": ok})
        if not ok:
            failures += 1
    report = {
        "count": len(results),
        "failures": failures,
        "instances": results,
    }
    _emit(report, args.json)
    return EXIT_OK if failures == 0 else EXIT_PROPERTY_FAILED


def cmd_gen(args):
    A = make_family(args.variant, args.dim)
    B = find_nondegenerate(invariant_form_space(A), seed=_default_seed(args))
    text = serialize(
        A,
        form=B,
        metadata={"name": f"family{args.variant}_dim{args.dim}", "seed": _default_seed(args)},
    )
    _write_output(args.output, text)
    return EXIT_OK


def cmd_scramble(args):
    A, form, meta = _load(args.input)
    seed = _default_seed(args)
    A2, B2, _ = scramble(A, form, seed)
    meta = dict(meta or {})
    meta["scramble_seed"] = seed
    _write_output(args.output, serialize(A2, form=B2, metadata=meta))
    return EXIT_OK


def _write_output(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fnovikov",
        description="Exact verification and classification for algebras with "
        "anticommuting right multiplications and invariant forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **flags):
        p = sub.add_parser(name)
        if flags.get("input"):
            p.add_argument("--input", required=True, help="algebra file path")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--seed", type=int, default=None)
        if flags.get("variant"):
            p.add_argument("--variant", type=int, required=True, choices=[0, 1, 2, 3])
            p.add_argument("--dim", type=int, required=True)
        if flags.get("count"):
            p.add_argument("--count", type=int, default=200)
        if flags.get("output"):
            p.add_argument("--output", default=None, help="output path (default stdout)")
        p.set_defaults(func=func)
        return p

    add("check", cmd_check, input=True)
    add("forms", cmd_forms, input=True)
    add("canon", cmd_canon, input=True)
    add("classify", cmd_classify, input=True)
    add("verify", cmd_verify, count=True)
    add("gen", cmd_gen, variant=True, output=True)
    add("scramble", cmd_scramble, input=True, output=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (AlgebraFileError, FileNotFoundError, ValueError) as exc:
        # includes DegenerateFormError / PreconditionError on bad inputs
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CanonError, GenericPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY_FAILED


if __name__ == "__main__":
    sys.exit(main())
