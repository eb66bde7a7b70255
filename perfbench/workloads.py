"""Workloads of the zecap benchmark: timed passes, answer checks and probes.

Each pass calls the library functions behind the CLI with the CLI defaults:
`zecap search` is build_graph then optimal_code(time_limit=60) in one
process, `zecap verify` is verify_code, and trial i of `zecap simulate
--seed s` is zero_error_trial(params, code, 1, s + i, force=True), which
replays it bit for bit. Only those calls are timed; every answer is checked
outside the timed region. Every workload ends a pass with verify and trials,
so each reports every end-to-end metric: the search workloads run them on
the witness they just found, as a user confirming a search would.

Reference optima and graph edge counts come from complete searches at the
seed commit, and agree with the paper's finite-length tables where those
overlap.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field

from zecap import (
    ChannelParams,
    Code,
    build_graph,
    confusable_dp,
    forbidden_run_code,
    optimal_code,
    output_membership,
    sample_output,
    simulate,
    verify_code,
    zero_error_trial,
)

SEARCH_TIME_LIMIT = 60.0  # `zecap search --time-limit` default
# A search workload confirms the witness of its last point the way a user
# would after a search, on evenly spaced witness words so that the confirm
# step stays a few percent of a pass and does not vary with the seed.
CONFIRM_WORDS = 64
CONFIRM_TRIALS = 2000
# verify_code is repeated until this much of it is measured, and its median
# call is reported, so a small code gives more than one sample per pass.
VERIFY_MIN_S = 0.1
WITNESS_PAIR_SAMPLE = 200
PROBE_CALLS = 2000

# Calls that zero_error_trial makes through the simulate module's globals;
# a traced pass routes them into spans. `_sample` is the body of
# sample_output, which the trial loop calls with its own generator.
INNER_LAYERS = (
    (simulate, "_sample", "simulate.sample_output", None),
    (simulate, "decode", "simulate.decode", lambda result: result.status == "ok"),
)


@dataclass
class PassResult:
    """Timings and answer counts of one pass over a workload."""

    wall: float = 0.0
    verify: float = 0.0
    trial_times: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    edges: int = 0
    size: int = 0
    pairs: int = 0
    confirmed: tuple[ChannelParams, Code] | None = None

    def check(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(what)


def _confirm(
    params: ChannelParams, code: Code, seed: int, trials: int, tracer, clock, result: PassResult
) -> None:
    """`zecap verify` then `zecap simulate --seed seed`, one timed trial at a time."""
    calls = []
    began = time.perf_counter()
    while not calls or time.perf_counter() - began < VERIFY_MIN_S:
        start = time.perf_counter()
        with tracer.span("codesearch.verify_code"):
            valid = verify_code(params, code)
        calls.append(clock.since(start))
        result.check(valid, f"verify_code rejected a {len(code)}-word code under {params}")
    result.verify = statistics.median(calls)
    result.wall += result.verify
    result.pairs += len(code) * (len(code) - 1) // 2
    failed_trials = 0
    for i in range(trials):
        start = time.perf_counter()
        with tracer.span("simulate.zero_error_trial"):
            report = zero_error_trial(params, code, 1, seed + i, force=True)
        elapsed = clock.since(start)
        result.trial_times.append(elapsed)
        result.wall += elapsed
        failed_trials += report.failures
    what = f"{failed_trials} of {trials} trials decoded wrongly under {params}"
    result.count(trials, failed_trials, what)
    result.confirmed = (params, code)


@dataclass(frozen=True)
class SearchPoint:
    k1: int
    k2: int
    n: int
    optimum: int
    edges: int


class SearchWorkload:
    """`zecap search` at fixed points, the last witness then verified and simulated.

    The points ignore the seed; it drives only the witness pairs checked
    with confusable_dp, the confirm trials and the probes.
    """

    def __init__(self, points: tuple[SearchPoint, ...]) -> None:
        self.points = points

    def setup(self, seed: int) -> tuple[list, float]:
        return [(ChannelParams(p.k1, p.k2), p) for p in self.points], 0.0

    def run_pass(self, inputs: list, seed: int, tracer, clock) -> PassResult:
        result = PassResult()
        rng = random.Random(seed)
        for params, point in inputs:
            start = time.perf_counter()
            with tracer.span("confusability.build_graph"):
                graph = build_graph(params, point.n)
            with tracer.span("codesearch.optimal_code"):
                found = optimal_code(graph, time_limit=SEARCH_TIME_LIMIT)
            result.wall += clock.since(start)
            _check_search(graph, found, point, rng, result)
            del graph
        words = found.witness.words
        count = min(CONFIRM_WORDS, len(words))
        spaced = [words[i * len(words) // count] for i in range(count)]
        sub_code = Code.from_words(spaced, n=point.n)
        _confirm(params, sub_code, seed, CONFIRM_TRIALS, tracer, clock, result)
        return result


def _check_search(graph, found, point: SearchPoint, rng: random.Random, result: PassResult) -> None:
    label = f"({point.k1},{point.k2}) n={point.n}"
    edges = graph.edge_count()
    result.edges += edges
    result.size += found.size
    words = found.witness.words
    indices = [word.to_index() for word in words]
    mask = 0
    for i in indices:
        mask |= 1 << i
    independent = all(graph.rows[i] & mask == 0 for i in indices)
    pairs = [rng.sample(words, 2) for _ in range(WITNESS_PAIR_SAMPLE)] if len(words) > 1 else []
    distinguishable = not any(confusable_dp(graph.params, a, b) for a, b in pairs)
    result.check(
        found.optimal
        and found.size == point.optimum == len(words)
        and edges == point.edges
        and independent
        and distinguishable,
        f"search {label}: optimal={found.optimal} size={found.size} (reference {point.optimum}) "
        f"edges={edges} (reference {point.edges}) independent={independent} "
        f"sampled pairs distinguishable={distinguishable}",
    )


class TrafficWorkload:
    """`zecap verify` then a seeded `zecap simulate` batch on a construction code."""

    def __init__(self, k1: int, k2: int, n: int, run_bound: int, size: int, trials: int) -> None:
        self.k1, self.k2, self.n = k1, k2, n
        self.run_bound, self.size, self.trials = run_bound, size, trials

    def setup(self, seed: int) -> tuple[tuple[ChannelParams, Code], float]:
        start = time.perf_counter()
        code = forbidden_run_code(self.n, self.run_bound)
        return (ChannelParams(self.k1, self.k2), code), time.perf_counter() - start

    def run_pass(self, inputs: tuple[ChannelParams, Code], seed: int, tracer, clock) -> PassResult:
        params, code = inputs
        result = PassResult()
        result.check(
            len(code) == self.size,
            f"forbidden_run_code({self.n},{self.run_bound}) has {len(code)} words"
            f" (reference {self.size})",
        )
        _confirm(params, code, seed, self.trials, tracer, clock, result)
        return result


def probe(
    params: ChannelParams, code: Code, seed: int, result: PassResult
) -> tuple[list[float], list[float]]:
    """Per-call microseconds of confusable_dp and output_membership on a verified code.

    confusable_dp runs on seeded codeword pairs and must answer False.
    output_membership runs on (codeword, received) pairs, where received is
    a seeded channel output of the codeword: True for the sender, False for
    another codeword.
    """
    rng = random.Random(seed)
    dp_us: list[float] = []
    membership_us: list[float] = []
    clock = time.perf_counter_ns
    for j in range(PROBE_CALLS):
        a, b = rng.sample(code.words, 2)
        start = clock()
        confusable = confusable_dp(params, a, b)
        dp_us.append((clock() - start) / 1000)
        received = sample_output(params, a, seed + j)
        start = clock()
        sender_ok = output_membership(params, a, received)
        membership_us.append((clock() - start) / 1000)
        start = clock()
        other_ok = output_membership(params, b, received)
        membership_us.append((clock() - start) / 1000)
        result.check(not confusable, f"confusable_dp joined codewords {a} and {b} under {params}")
        result.check(sender_ok and not other_ok, f"output_membership of {received} under {params}")
    return dp_us, membership_us


WORKLOADS = {
    # Open regimes k1=2<k2 and 3<=k1<k2: dense graphs whose domination
    # kernel is tiny, so graph build is nearly the whole pass.
    "open_dense": SearchWorkload(
        (SearchPoint(2, 5, 11, 12, 707014), SearchPoint(3, 5, 12, 74, 891502))
    ),
    # Sparse graphs whose kernel keeps thousands of vertices and no edge, so
    # the O(V^2) re-index and greedy clique of optimal_code dominate.
    "kernel_large": SearchWorkload(
        (SearchPoint(1, 5, 12, 2208, 96352), SearchPoint(4, 6, 12, 1244, 220796))
    ),
    # No graph: pairwise DP in verify_code, then membership scans in decode.
    "traffic": TrafficWorkload(k1=4, k2=4, n=12, run_bound=3, size=466, trials=4000),
}
