"""Benchmark of the zecap workbench: exact code search and seeded traffic.

Run from the repository root:

    python3 perfbench/run.py --workload open_dense --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): `open_dense` and `kernel_large` are exact
searches at fixed (k1, k2, n) points; `traffic` verifies a construction code
and pushes seeded trials through it. The seed drives the trials, the
witness pairs checked by sampling, and the layer probes; the search points
themselves ignore it. Seed 2718 is held out: it was not used while
tuning the benchmark, so later claims can be confirmed on it.

Each invocation measures one workload in this fresh interpreter, so
`setup_s` and `peak_rss_mb` belong to that workload alone. `setup_s` is the
median over several fresh interpreters of `import zecap` plus input
generation. Passes repeat while another fits in `--seconds`; `wall_s`,
`verify_s` and the trial metrics are medians over passes of their value in
one pass (a pass runs at least 2000 trials, so its p99 has 20 trials beyond
it), so a burst of host load in one pass does not move them. These times are reference
seconds (see speed.py), which divide out the host's speed swings; the
per-layer times of the traced run are plain perf_counter readings.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates untraced
and traced passes, reports per-layer self times and shares from the traced
ones, the tracing overhead as the traced/untraced wall ratio minus one, and
probes confusable_dp and output_membership per call; the spans are written
to perfbench/out/. The `capacity` module is left untimed (a full 12x12 grid
takes about 0.5 s and no user waits on it), and so is `cli` (argparse and
JSON around the functions measured here).

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it gives failed/attempted as
`failed_frac`. A wrong answer marks the run failed and makes the exit code
1; a checkout without src/zecap exits 2 without a result. selfcheck.py
shows that a corrupted reference optimum or an unverified code fails a run.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from speed import SpeedSampler
from tracing import NULL_TRACER, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "verify_s": "s",
    "trials_per_s": "1/s",
    "trial_p50_ms": "ms",
    "trial_p99_ms": "ms",
}
TIMED_LAYERS = (
    "confusability.build_graph",
    "codesearch.optimal_code",
    "codesearch.verify_code",
    "simulate.sample_output",
    "simulate.decode",
)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="zecap benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _timed_setup(name: str, seed: int, clock: SpeedSampler):
    """Import zecap and generate the workload's inputs, timed together."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import zecap
    import workloads

    inputs, construct_s = workloads.WORKLOADS[name].setup(seed)
    setup_s = clock.since(start)
    if not Path(zecap.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported zecap from {zecap.__file__}, not from {SRC}")
    return workloads, inputs, setup_s, construct_s


def _child_setup(args: argparse.Namespace) -> tuple[float, float]:
    """One setup sample in a fresh interpreter."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True
    )
    sample = json.loads(done.stdout.splitlines()[-1])
    return sample["setup_s"], sample["construct_s"]


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _measure(
    workload, inputs, seed: int, seconds: float, tracer, inner_layers, clock
) -> list[tuple[bool, object]]:
    """Run passes while another fits in `seconds`; odd passes are traced when tracing."""
    passes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        began = time.perf_counter()
        if traced:
            tracer.run = len(passes)
            with tracer.patched(inner_layers), tracer.span("pass"):
                result = workload.run_pass(inputs, seed, tracer, clock)
        else:
            result = workload.run_pass(inputs, seed, NULL_TRACER, clock)
        longest = max(longest, time.perf_counter() - began)
        passes.append((traced, result))
        enough = tracer is None or len(passes) >= 2
        if enough and time.perf_counter() - start + longest > seconds:
            return passes


def _end_to_end(passes, setup_samples) -> dict[str, float]:
    def per_pass(value) -> float:
        return statistics.median(value(result) for _, result in passes)

    return {
        "setup_s": statistics.median(s for s, _ in setup_samples),
        "wall_s": per_pass(lambda r: r.wall),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verify_s": per_pass(lambda r: r.verify),
        "trials_per_s": per_pass(lambda r: len(r.trial_times) / sum(r.trial_times)),
        "trial_p50_ms": per_pass(lambda r: statistics.median(r.trial_times)) * 1000,
        "trial_p99_ms": per_pass(lambda r: _percentile(r.trial_times, 99)) * 1000,
    }


def _per_layer(passes, tracer, setup_samples, probes) -> dict[str, tuple[float, str]]:
    traced = {run: result for run, (is_traced, result) in enumerate(passes) if is_traced}
    self_s: dict[int, dict[str, float]] = {run: defaultdict(float) for run in traced}
    calls: dict[int, dict[str, int]] = {run: defaultdict(int) for run in traced}
    durations: dict[str, list[float]] = defaultdict(list)
    outcomes: dict[str, list[bool]] = defaultdict(list)
    pass_s: dict[int, float] = {}
    for record, own in zip(tracer.spans, tracer.self_times()):
        name, start, end, _, run, outcome = record
        if name == "pass":
            pass_s[run] = end - start
        self_s[run][name] += own
        calls[run][name] += 1
        durations[name].append(end - start)
        if outcome is not None:
            outcomes[name].append(outcome)

    def per_pass(table, name):
        return statistics.median(table[run][name] for run in traced)

    def us(name, q):
        values = durations[name]
        if len(values) < 2:
            return 0.0
        return (statistics.median(values) if q == 50 else _percentile(values, q)) * 1e6

    metrics: dict[str, tuple[float, str]] = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.s"] = (per_pass(self_s, layer), "s")
        metrics[f"{layer}.calls"] = (per_pass(calls, layer), "count")
        share = statistics.median(self_s[run][layer] / pass_s[run] for run in traced)
        metrics[f"{layer}.share"] = (share, "ratio")
    first = next(iter(traced.values()))
    metrics["confusability.graph.edges"] = (first.edges, "count")
    metrics["codesearch.optimal_code.size"] = (first.size, "count")
    metrics["codesearch.verify_code.pairs"] = (first.pairs, "count")
    for layer in ("simulate.sample_output", "simulate.decode"):
        metrics[f"{layer}.us_p50"] = (us(layer, 50), "us")
        metrics[f"{layer}.us_p99"] = (us(layer, 99), "us")
    decoded = outcomes["simulate.decode"]
    metrics["simulate.decode.ok_ratio"] = (sum(decoded) / len(decoded) if decoded else 0.0, "ratio")
    dp_us, membership_us = probes
    metrics["confusability.confusable_dp.us_p50"] = (statistics.median(dp_us), "us")
    metrics["confusability.confusable_dp.us_p99"] = (_percentile(dp_us, 99), "us")
    metrics["confusability.output_membership.us_p50"] = (statistics.median(membership_us), "us")
    metrics["confusability.output_membership.us_p99"] = (_percentile(membership_us, 99), "us")
    construct_s = statistics.median(c for _, c in setup_samples)
    metrics["constructions.forbidden_run_code.s"] = (construct_s, "s")
    untraced_wall = statistics.median(result.wall for is_traced, result in passes if not is_traced)
    traced_wall = statistics.median(result.wall for result in traced.values())
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1, "ratio")
    metrics["trace.spans"] = (len(tracer.spans) / len(traced), "count")
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "zecap" / "__init__.py").is_file():
        print(f"error: no zecap sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        with SpeedSampler() as clock:
            _, _, setup_s, construct_s = _timed_setup(args.workload, args.seed, clock)
        print(json.dumps({"setup_s": setup_s, "construct_s": construct_s}))
        return 0

    setup_samples = [_child_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    tracer = Tracer() if args.trace else None
    with SpeedSampler() as clock:
        workloads, inputs, setup_s, construct_s = _timed_setup(args.workload, args.seed, clock)
        setup_samples.append((setup_s, construct_s))
        workload = workloads.WORKLOADS[args.workload]
        passes = _measure(
            workload, inputs, args.seed, args.seconds, tracer, workloads.INNER_LAYERS, clock
        )
    results = [result for _, result in passes]
    if tracer is None:
        values = _end_to_end(passes, setup_samples)
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
    else:
        probe_result = workloads.PassResult()
        probes = workloads.probe(*results[-1].confirmed, args.seed, probe_result)
        results.append(probe_result)
        metrics = _per_layer(passes, tracer, setup_samples, probes)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    attempted = sum(result.attempted for result in results)
    failed = sum(result.failed for result in results)
    for result in results:
        for note in result.notes:
            print(f"FAILED: {note}", file=sys.stderr)
    print(f"workload = {args.workload}  seed = {args.seed}  passes = {len(passes)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
