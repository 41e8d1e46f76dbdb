#!/usr/bin/env python3
"""Fast self-test of the benchmark itself (about a minute):

1. Oracles at N=8: each small workload's outputs pass its oracle, and a
   deliberately wrong output (one node moved, a certificate flipped) fails it.
   A command that exits non-zero is counted as failed and makes the run
   incorrect.
2. Determinism: two traced passes of the same workload give identical
   per-layer counts, the line-search counts add up, and every wrapped
   function is the original again afterwards.

    python3 bench/selftest.py
"""

import dataclasses
import shutil
import sys

import run  # sets the one-thread BLAS environment before numpy loads

from tracer import COUNT_METRICS, TARGETS, Tracer, resolve
from workloads import build

FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def _nudge_field(path: str, delta: float) -> None:
    """Move the first node of a field dump by delta."""
    with open(path, encoding="utf-8") as fp:
        lines = fp.read().splitlines()
    lines[1] = repr(float(lines[1]) + delta)
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("\n".join(lines) + "\n")


def _flip_summary(path: str) -> None:
    with open(path, encoding="utf-8") as fp:
        text = fp.read()
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text.replace("summary.passed: true", "summary.passed: false"))


# workload -> (mutation, what it breaks)
MUTATIONS = {
    "verify-A3": [(lambda outs: _nudge_field(
        f"{outs['verify']}/u_fine.field", 1e-2), "u_fine moved by 1e-2")],
    "solve-A5k4": [(lambda outs: _nudge_field(
        f"{outs['solve']}/u_final.field", 1e-6), "one node moved by 1e-6")],
    "certify-C4": [
        (lambda outs: _nudge_field(f"{outs['solve']}/u_final.field", 1e-6),
         "one node moved by 1e-6"),
        (lambda outs: _flip_summary(f"{outs['check']}/certificates.txt"),
         "certificate summary flipped"),
    ],
}


def oracle_tests(cli, workloads) -> None:
    for name, workload in workloads.items():
        runner = run.Runner(cli, workload, seed=7)
        try:
            outs = {cmd: str(runner.dir / "out" / cmd)
                    for cmd in workload.commands}
            codes = [cli.main([cmd, "--config", str(runner.config),
                               "--out", out]) for cmd, out in outs.items()]
            expect(codes == [0] * len(codes), f"{name}: every command exits 0")
            problems = workload.oracle(runner.values, outs)
            expect(not problems, f"{name}: oracle passes {problems}")
            for i, (mutate, label) in enumerate(MUTATIONS[name]):
                copy = runner.dir / f"wrong{i}"
                shutil.copytree(runner.dir / "out", copy)
                wrong = {cmd: str(copy / cmd) for cmd in outs}
                mutate(wrong)
                problems = workload.oracle(runner.values, wrong)
                expect(bool(problems), f"{name}: oracle rejects {label}: "
                                       f"{problems[:1]}")
        finally:
            runner.close()


def failure_test(cli, workloads) -> None:
    """k = 9 > n = 5 is an invalid config: `solve` exits 2."""
    workload = workloads["solve-A5k4"]
    bad = dataclasses.replace(
        workload, config=workload.config.replace("spec.k = 4", "spec.k = 9"))
    runner = run.Runner(cli, bad, seed=5)
    try:
        runner.one_pass()
    finally:
        runner.close()
    expect(runner.attempted == 1 and runner.failed == 1,
           f"invalid config: 1 of 1 command failed "
           f"({runner.failed} of {runner.attempted})")
    expect(bool(runner.problems),
           f"invalid config: the run is not correct {runner.problems}")


def determinism_tests(cli, workloads) -> None:
    before = {(m, p): resolve(m, p)[2] for m, p, _ in TARGETS}
    for name in ("verify-A3", "certify-C4"):
        runner = run.Runner(cli, workloads[name], seed=3)
        layers = []
        try:
            for _ in range(2):
                tracer = Tracer()
                left = []
                with tracer.installed(left):
                    runner.one_pass(tracer)
                expect(not left, f"{name}: wrappers restored {left}")
                layers.append(tracer.metrics())
        finally:
            runner.close()
        expect(not runner.problems, f"{name}: traced outputs pass the oracle")
        differ = [key for key in COUNT_METRICS if key in layers[0]
                  and layers[0][key] != layers[1][key]]
        expect(not differ, f"{name}: counts repeat exactly {differ}")
        m = layers[0]
        accepted = m["solver.linesearch.trials"] - \
            m["solver.linesearch.cone_rejects"] - \
            m["solver.linesearch.armijo_rejects"]
        expect(0 < accepted <= m["solver.newton.iters"],
               f"{name}: accepted steps {accepted} within Newton iterations "
               f"{m['solver.newton.iters']}")
        expect(m["operators.matvec.calls"] > 0
               and m["solver.solve_linear.calls"] == m["solver.newton.iters"],
               f"{name}: one linear solve per Newton iteration")
    after = {(m, p): resolve(m, p)[2] for m, p, _ in TARGETS}
    expect(all(after[key] is before[key] for key in before),
           "every wrapped function is the original after tracing")


def main() -> int:
    cli = run._import_program()
    small = build(small=True)
    oracle_tests(cli, small)
    failure_test(cli, small)
    determinism_tests(cli, small)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
