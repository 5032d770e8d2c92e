#!/usr/bin/env python3
"""Checks of the benchmark itself.  Run from the repository root:

    python3 perfbench/selfcheck.py

1. Failure counting: with `orcyc.theta_preserved` replaced by a fake that
   flips every third answer, one survey cycle must count failed ops, report
   correct = false and still print every end-to-end metric.
2. Tracing coverage: `Tracer.install` rebinds each wrapped function in every
   rigidlift module that imported it (q_reduce in orientation and cli,
   theta_divisor in orcyc and cli), and on theta ops every traced
   enumerate_picard call returns |Pic| = spanning-tree count.
3. The pinned not-realisable liftdiv inputs of the cli workload are
   confirmed by exhaustive search.
"""

import argparse
import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import oracle
import run
import tracer

workloads = run.load_library()

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check(condition, message):
    if not condition:
        sys.exit(f"selfcheck FAILED: {message}")
    print(f"ok: {message}")


def failure_counting(lib, workdir):
    genuine = lib.orcyc.theta_preserved
    calls = [0]

    def flipped(m, **kwargs):
        calls[0] += 1
        answer = genuine(m, **kwargs)
        return (not answer) if calls[0] % 3 == 0 else answer

    lib.orcyc.theta_preserved = flipped
    try:
        survey = workloads.Survey(lib, 1, workdir)
        args = argparse.Namespace(workload="survey", seed=1, seconds=0.0, trace=0, cycles=1, inprocess=False)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            run.untraced(args, survey)
    finally:
        lib.orcyc.theta_preserved = genuine
    result = json.loads(out.getvalue().splitlines()[-1])
    fail_ratio = result["failed"] / result["attempted"]
    check(result["correct"] is False and 0 < fail_ratio < 1,
          f"a flipped predicate is counted: fail_ratio {fail_ratio:.3f} of {result['attempted']} ops")
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    check(set(result["metrics"]) == names, "every end-to-end metric still prints")


def tracing_coverage(lib, workdir):
    trace = tracer.Tracer()
    trace.install()
    try:
        q_reduce, theta_divisor = lib.divisor.q_reduce, lib.divisor.theta_divisor
        check(lib.orientation.q_reduce is q_reduce and lib.cli.q_reduce is q_reduce,
              "q_reduce is wrapped in divisor, orientation and cli")
        check(lib.orcyc.theta_divisor is theta_divisor and lib.cli.theta_divisor is theta_divisor,
              "theta_divisor is wrapped in divisor, orcyc and cli")
        theta = workloads.Theta(lib, 1, workdir)
        theta.rungs = [r for r in theta.rungs if r[0] in ("W5", "cc6+4")]
        tally = run.measure(theta, 0.0, cycles=1)
    finally:
        trace.uninstall()
    check(not tally.failures, "theta ops pass under tracing")
    check(not run.picard_problems(trace, tally, "theta"),
          f"traced enumerate_picard classes ({trace.metrics()['divisor.enumerate_picard.classes']}) "
          "match the spanning-tree counts")
    check(not any(hasattr(f, "__wrapped__") for f in (lib.orientation.q_reduce, lib.cli.q_reduce, lib.orcyc.theta_divisor)),
          "uninstall restores the original bindings")


def pinned_inputs():
    for triples, base, unoriented, d in workloads.NOT_REALISABLE:
        p = oracle.Plain.from_triples(triples, base)
        check(oracle.is_effective_class(p, oracle.add(d, {v: 1 for v in p.vertices}))
              and not oracle.realisable(p, d, set(unoriented)),
              f"{len(triples)}-edge liftdiv input is orientable as a class but not with X = {unoriented}")


def main():
    lib = workloads.Library()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        failure_counting(lib, workdir)
        tracing_coverage(lib, workdir)
        pinned_inputs()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
