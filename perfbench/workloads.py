"""The benchmark's three workloads: input generation (set-up) and ops.

An op is one closed-loop request into the program. It returns a verdict,
which the harness compares with the op's expected verdict, and the
canonical output bytes that go into the workload digest.

Functions of the program are looked up on their modules at call time
(`canon.theorem_check`, not a name bound at import), so the trace wrappers
installed by tracer.py see every call the ops make.

Corpus instances are drawn a fixed number of times per (kind, dimension)
cell, each with the steps generate_corpus takes for one instance:
construct, find a nondegenerate invariant form, scramble. generate_corpus
itself draws kind and dimension at random, and with latencies from
milliseconds at dim 2 to seconds at dim 8 a random mix of affordable size
differs between seeds: simulated over the measured per-cell costs,
throughput at 24 instances spreads by 0.39 of its median (IQR) between
seeds. The seed still draws the k2 parameters, the forms, every basis change
and each op's own seed. Ops take distinct seeds because a seed shared by all
of them makes find_generic_point try the same points on every pencil of one
dimension, which ties the costs of a run's ops together.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass

from fnovikov import algebra, canon, classify, cli, fileio, forms
from fnovikov.scalars import rational_str


@dataclass(frozen=True)
class Op:
    """One request: `call(*args)` returns (verdict, canonical output bytes)."""

    name: str
    dim: int
    call: object
    args: tuple
    expected: object


KINDS = ("family1", "family2", "family3", "k2")
LOWEST_DIM = {"family1": 2, "family2": 2, "family3": 3, "k2": 5}
# The self-test's tiny runs stop at dim 3, so they hold no k2 instance.
TINY_MAX_DIM = 3
TINY_WITNESSES = 3


def _cells(max_dim, draws):
    """(kind, n) for every corpus cell up to max_dim, each draws(kind, n) times."""
    return [
        (kind, n)
        for kind in KINDS
        for n in range(LOWEST_DIM[kind], max_dim + 1)
        for _ in range(draws(kind, n))
    ]


# Draws per cell, by dimension, for families and for k2. latency_tail_s is
# the 11th-slowest op whatever the op count, and a percentile is steady only
# inside a large group of similar ops: these draws put the median among 36
# dim-4 family draws and the tail among 15 dim-6 family draws. Dims 7-8
# (0.5-3 s an instance) would sit right at the tail's rank with too few
# draws per run to be steady, so they are left out.
CORPUS_MAX_DIM = 6
CORPUS_FAMILY_DRAWS = {2: 1, 3: 8, 4: 12, 5: 4, 6: 5}
CORPUS_K2_DRAWS = {5: 2, 6: 2}


def _corpus_draws(kind, n):
    return (CORPUS_K2_DRAWS if kind == "k2" else CORPUS_FAMILY_DRAWS)[n]


# A form-less file costs ~40x more per dimension: 0.05 s at dim 4, 0.1-4 s
# at dim 5 (one file in eight taking several times the rest, too uneven to
# average within a run), 67 s for one dim-6 k2 file. So canon-formless stops
# at dim 4, below the smallest k2 instance (dim 5), and draws every cell 16
# times.
CANON_MAX_DIM = 4
CANON_DRAWS = 16


def build_instance(kind, n, rnd):
    """One scrambled corpus instance (A, B), built the way generate_corpus
    builds one, with every random choice drawn from rnd."""
    while True:
        if kind == "k2":
            A = classify.make_k2(classify.random_k2(rnd, n))
        else:
            A = classify.make_family(int(kind[-1]), n)
        B = forms.find_nondegenerate(
            forms.invariant_form_space(A), seed=rnd.randrange(2**30)
        )
        if B is not None:
            A2, B2, _ = classify.scramble(A, B, rnd.randrange(2**30))
            return A2, B2


# ---------------------------------------------------------------------------
# corpus-verify: theorem_check per instance, the loop of `fnovikov verify`


def _theorem_check(A, B, seed):
    ok = canon.theorem_check(A, B, seed)
    return ok, b"1" if ok else b"0"


def setup_corpus_verify(seed, workdir, tiny=False):
    rnd = random.Random(seed)
    ops = []
    for i, (kind, n) in enumerate(_cells(TINY_MAX_DIM if tiny else CORPUS_MAX_DIM, _corpus_draws)):
        A, B = build_instance(kind, n, rnd)
        ops.append(Op(f"{i:03d}_{kind}_dim{n}", n, _theorem_check, (A, B, rnd.randrange(2**30)), True))
    return ops


# ---------------------------------------------------------------------------
# canon-formless: `fnovikov canon --json` on a file that holds no form


def _canon_file(path, seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["canon", "--input", path, "--json", "--seed", str(seed)])
    text = out.getvalue()
    if code != 0:
        return (code, None, None), text.encode()
    report = json.loads(text)
    return (code, all(report["claims"].values()), report["k"]), text.encode()


def setup_canon_formless(seed, workdir, tiny=False):
    rnd = random.Random(seed)
    ops = []
    for i, (kind, n) in enumerate(_cells(TINY_MAX_DIM if tiny else CANON_MAX_DIM, lambda kind, n: CANON_DRAWS)):
        A, _ = build_instance(kind, n, rnd)
        path = os.path.join(workdir, f"{i:02d}_{kind}_dim{n}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(fileio.serialize(A))
        expected = (0, True, 1)
        ops.append(Op(f"{i:03d}_{kind}_dim{n}", n, _canon_file, (path, rnd.randrange(2**30)), expected))
    return ops


# ---------------------------------------------------------------------------
# negative-controls: prove that no nondegenerate invariant form exists


def _negative_control(A, seed):
    checks = (algebra.check_fermionic(A), algebra.check_left_symmetric(A), algebra.check_novikov(A))
    found = forms.find_nondegenerate(forms.invariant_form_space(A), seed=seed)
    verdict = (*checks, found)
    form = None if found is None else [[rational_str(x) for x in row] for row in found.matrix.data]
    return verdict, json.dumps([*checks, form]).encode()


def setup_negative_controls(seed, workdir, tiny=False):
    witnesses = algebra.search_fermionic_not_novikov()
    if tiny:
        witnesses = itertools.islice(witnesses, TINY_WITNESSES)
    rnd = random.Random(seed)
    ops = []
    for i, W in enumerate(witnesses):
        A, _, _ = classify.scramble(W, None, rnd.randrange(2**30))
        ops.append(Op(f"witness{i}", A.dim, _negative_control, (A, rnd.randrange(2**30)), (True, True, False, None)))
    return ops


WORKLOADS = {
    "corpus-verify": setup_corpus_verify,
    "canon-formless": setup_canon_formless,
    "negative-controls": setup_negative_controls,
}
