"""Self-check of the zecap benchmark: a wrong answer must fail the run.

Run from the repository root:

    python3 perfbench/selfcheck.py

Each case runs run.main in this process on a small stand-in for a workload
and checks its exit code and the `correct` field of its result line. A
corrupted reference optimum and an unverified code must both fail the run;
their uncorrupted controls must pass, so a gate that always fails is caught
too. Takes a few seconds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402

# Exact optimum and edge count of the (2,5) n=8 confusability graph.
SMALL_POINT = workloads.SearchPoint(k1=2, k2=5, n=8, optimum=8, edges=11126)


def _run(name: str, workload) -> tuple[int, dict]:
    workloads.WORKLOADS[name] = workload
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", name, "--seed", "1", "--seconds", "0.1", "--trace", "0"])
    return code, json.loads(out.getvalue().splitlines()[-1])


def main() -> int:
    run.SETUP_SAMPLES = 1
    small_traffic = dict(k1=4, k2=4, n=8, run_bound=3, size=68, trials=200)
    cases = [
        ("search, true reference", "open_dense", workloads.SearchWorkload((SMALL_POINT,)), True),
        (
            "search, corrupted reference size",
            "open_dense",
            workloads.SearchWorkload((dataclasses.replace(SMALL_POINT, optimum=9),)),
            False,
        ),
        ("traffic, verified code", "traffic", workloads.TrafficWorkload(**small_traffic), True),
        # the same code under k1=2, where it is not zero-error
        (
            "traffic, unverified code",
            "traffic",
            workloads.TrafficWorkload(**{**small_traffic, "k1": 2}),
            False,
        ),
    ]
    ok = True
    for label, name, workload, should_pass in cases:
        code, result = _run(name, workload)
        passed = code == 0 and result["correct"] and result["failed"] == 0
        good = passed == should_pass and (passed or (code == 1 and result["failed"] > 0))
        ok &= good
        print(f"{'ok  ' if good else 'BAD '} {label}: exit {code}, correct={result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
