"""Self-test of the benchmark, at a tiny size.

    python3 perfbench/selftest.py

Runs every workload untraced and traced on tiny inputs and checks that
every metric BENCHMARK.json lists, and every per-layer metric tracer.py
names, is measured; that the traced pass's layer self times plus the
untraced residual add up to its wall; and that a wrong expected verdict and
an op that raises are each counted as a failure. Exits 1 on the first
failed check.
"""

import dataclasses
import sys

import run


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def main():
    check(run.load_program(), "no fnovikov sources")
    import tracer
    from workloads import WORKLOADS

    spec = run.benchmark_spec()
    check(set(WORKLOADS) == {w["name"] for w in spec["workloads"]}, "workload names differ")
    named = [f"{layer}.self_s" for layer in tracer.LAYERS]
    named += [f"{layer}.{fn}.{stat}" for layer, fns in tracer.NAMED.items()
              for fn in fns for stat in ("calls", "self_s")]
    for name in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            record = run.run_workload(name, seed=7, seconds=0, trace=trace, tiny=True)
            check(record["correct"], f"{name} trace={trace} is not correct")
            check(record["failed"] == 0, f"{name} trace={trace} failed ops")
            run.final_line(record, wanted)  # raises if a listed metric is missing
            if trace:
                missing = [m for m in named if m not in record["metrics"]]
                check(not missing, f"{name} traced run lacks {missing}")
                check(record["trace_accounting_ok"], f"{name} self times do not add up")
        print(f"selftest: {name} ok")

    ops = WORKLOADS["corpus-verify"](7, None, tiny=True)
    wrong = dataclasses.replace(ops[0], expected=not ops[0].expected)
    # theorem_check raises when given no form
    raising = dataclasses.replace(ops[0], args=(ops[0].args[0], None, 7))
    metrics, summary = run.measure([wrong, raising] + ops, seconds=0)
    check(summary["failed"] == 2, f"expected 2 failures, counted {summary['failed']}")
    check(summary["attempted"] == len(ops) + 2, "attempted count is wrong")
    check(metrics["fail_ratio"][0] == 2 / (len(ops) + 2), "fail_ratio is wrong")
    print("selftest: failure counting ok")
    print("selftest: all checks passed")


if __name__ == "__main__":
    sys.exit(main())
