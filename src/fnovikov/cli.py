"""Command-line surface.

Exit codes: 0 all checks passed, 1 a mathematical property failed
(including a precondition or an internal claim: PreconditionError,
CanonError, GenericPointError), 2 input or usage error.  The default seed
comes from --seed, falling back to the FNOVIKOV_SEED environment
variable, then 0.  Reports in --json mode contain no timestamps and are
byte-stable for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .scalars import ratio_str, rational_str
from .exactlin import GenericPointError
from .algebra import check_fermionic, check_left_symmetric, check_novikov
from .forms import nondegenerate_form
from .canon import (
    CanonError,
    CanonReport,
    PreconditionError,
    canonicalize,
    check_identities,
    failed_conclusions,
    theorem_check,
)
from .classify import generate_corpus, make_family, classify_k1, scramble
from .fileio import MAX_DIM, AlgebraFileError, parse, serialize

EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_USAGE = 2


def _strs(pairs):
    return [ratio_str(num, den) for num, den in pairs]


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
    try:
        return int(os.environ.get("FNOVIKOV_SEED") or 0)
    except ValueError:
        # not an integer, or more digits than int() converts
        raise ValueError("FNOVIKOV_SEED must be an integer within the conversion limit") from None


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
    space, B = nondegenerate_form(A, _default_seed(args))
    report = {"space_dimension": len(space)}
    if B is None:
        report["nondegenerate_member"] = None
    else:
        np_, nm, _ = B.signature()
        Bi, db = B.int_matrix()
        report["nondegenerate_member"] = [[ratio_str(x, db) for x in row] for row in Bi]
        report["type"] = [np_, nm]
    _emit(report, args.json)
    return EXIT_OK


def _report_from_canon(rep: CanonReport):
    n, k = len(rep.P), rep.k
    none = ([0] * n, 1)
    # d_forms[j][a][b] = R'_j[2a+1][2b] = c'[2b][j][2a+1]
    prods = [[rep.prods.get((2 * b, j), none) for b in range(k)] for j in range(n)]
    return {
        "x0": [rational_str(x) for x in rep.x0],
        "k": k,
        "P": [[ratio_str(v[i], d) for v, d in rep.P] for i in range(n)],
        "pair_weights": _strs(rep.pair_weights),
        # every denominator is positive
        "signs": [1 if w > 0 else -1 for w, _ in rep.pair_weights],
        "complement_diag": _strs(rep.complement_diag),
        "d_forms": [[_strs((v[2 * a + 1], t) for v, t in row) for a in range(k)] for row in prods],
        "claims": rep.claims,
    }


def cmd_canon(args):
    A, form, _ = _load(args.input)
    rep = canonicalize(A, form, _default_seed(args))
    _emit(_report_from_canon(rep), args.json)
    if failed := failed_conclusions(A, rep.k, rep.claims):
        print(f"error: failed conclusions: {', '.join(failed)}", file=sys.stderr)
    return EXIT_PROPERTY_FAILED if failed else EXIT_OK


def cmd_classify(args):
    A, _, _ = _load(args.input)
    # a failed identity raises PreconditionError naming it, as in canon
    check_identities(A)
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
    if args.count < 1:
        raise ValueError(f"--count must be positive, got {args.count}")
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
    # parse refuses a larger file, and make_family allocates dim^3 entries
    if args.dim > MAX_DIM:
        raise ValueError(f"dim {args.dim} exceeds the limit {MAX_DIM}")
    A = make_family(args.variant, args.dim)
    seed = _default_seed(args)
    _, B = nondegenerate_form(A, seed)
    metadata = {"name": f"family{args.variant}_dim{args.dim}", "seed": seed}
    _write_output(args.output, serialize(A, form=B, metadata=metadata))
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
        if flags.get("json"):
            p.add_argument("--json", action="store_true", help="machine-readable output")
        if flags.get("seed"):
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

    add("check", cmd_check, input=True, json=True)
    add("forms", cmd_forms, input=True, json=True, seed=True)
    add("canon", cmd_canon, input=True, json=True, seed=True)
    add("classify", cmd_classify, input=True, json=True)
    add("verify", cmd_verify, count=True, json=True, seed=True)
    add("gen", cmd_gen, variant=True, output=True, seed=True)
    add("scramble", cmd_scramble, input=True, output=True, seed=True)
    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (PreconditionError, CanonError, GenericPointError) as exc:
        # a precondition of the theorem, or an internal claim, failed
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY_FAILED
    except (AlgebraFileError, OSError, ValueError) as exc:
        # includes DegenerateFormError on a degenerate supplied form, and a
        # path that is missing, a directory or unreadable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
