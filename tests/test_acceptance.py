"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

from fractions import Fraction
from itertools import combinations
from math import log2

from zecap import (
    ChannelParams,
    all_sequences,
    build_graph,
    capacity,
    bounds_table,
    confusable_dp,
    contains_run,
    forbidden_run_code,
    forbidden_run_counts,
    growth_ratio,
    lambda_root,
    multinacci_value,
    no_run_break_counts,
    omega_root,
    optimal_code,
    pairwise_block_code,
    possible_outputs,
    verify_code,
    zero_error_trial,
)


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, f"{criterion} failed: {detail}"


def test_c01_input_memory_2_finite_length_optima():
    params = ChannelParams(2, 1)
    expected = [2, 2, 4, 4, 8, 8, 16, 16]
    sizes = []
    witnesses_ok = True
    for n in range(1, 9):
        result = optimal_code(build_graph(params, n))
        sizes.append(result.size)
        witnesses_ok = witnesses_ok and result.optimal and verify_code(params, result.witness)
    _report(
        "C01 exact optima for (2,1), n=1..8",
        sizes == expected and witnesses_ok,
        f"sizes={sizes}",
    )


def test_c02_input_memory_2_capacity():
    result = capacity(2, 1)
    _report(
        "C02 capacity(2,1) = 1/2 exactly",
        result.kind == "exact" and result.value == 0.5,
        f"value={result.value}",
    )


def test_c03_output_memory_2_optima_and_capacity():
    params = ChannelParams(1, 2)
    sizes = [optimal_code(build_graph(params, n)).size for n in range(2, 9)]
    result = capacity(1, 2)
    _report(
        "C03 (1,2): optimal size 2 for n=2..8 and capacity 0",
        sizes == [2] * 7 and result.kind == "exact" and result.value == 0.0,
        f"sizes={sizes}, capacity={result.value}",
    )


def test_c04_output_memory_4_sandwich():
    params = ChannelParams(1, 4)
    ok = True
    triples = []
    lows = forbidden_run_counts(3, 10)
    highs = no_run_break_counts(4, 10)
    for n in range(4, 11):
        result = optimal_code(build_graph(params, n), time_limit=240.0)
        low, high = lows[n], highs[n]
        triples.append((low, result.size, high))
        ok = ok and result.optimal and low <= result.size <= high
    _report("C04 (1,4) sandwich for n=4..10", ok, f"(low,size,high)={triples}")


def test_c05_root_values_identity_residuals():
    ok = abs(lambda_root(3) - 1.618033988749895) <= 1e-9
    ok = ok and abs(lambda_root(4) - 1.839286755214161) <= 1e-9
    worst_shift = 0.0
    worst_residual = 0.0
    for k in range(3, 21):
        worst_shift = max(worst_shift, abs(omega_root(k) - lambda_root(k - 1)))
        residual = abs(multinacci_value(k - 2, Fraction(omega_root(k))))
        worst_residual = max(worst_residual, float(residual))
        lam_res = abs(multinacci_value(k - 1, Fraction(lambda_root(k))))
        worst_residual = max(worst_residual, float(lam_res))
    ok = ok and worst_shift <= 1e-10 and worst_residual <= 1e-10
    _report(
        "C05 root values, shift identity, residuals",
        ok,
        f"shift<={worst_shift:.2e}, residual<={worst_residual:.2e}",
    )


def test_c06_recurrences_match_enumeration():
    ok = True
    for run_bound in range(2, 7):
        counts = forbidden_run_counts(run_bound, 16)
        for n in range(0, 17):
            brute = sum(1 for x in all_sequences(n) if not contains_run(x, run_bound))
            ok = ok and counts[n] == brute
    for k2 in (4, 5, 6):
        counts = no_run_break_counts(k2, 16)
        lead_0 = "0" * (k2 - 1) + "1"
        lead_1 = "1" * (k2 - 1) + "0"
        for n in range(0, 17):
            brute = sum(
                1 for x in all_sequences(n) if lead_0 not in str(x) and lead_1 not in str(x)
            )
            ok = ok and counts[n] == brute
    _report("C06 counting recurrences equal enumeration (n<=16)", ok)


def test_c07_growth_ratio_matches_root():
    deltas = {
        k2: abs(growth_ratio(k2 - 1, 256) - omega_root(k2)) for k2 in (4, 5, 6)
    }
    _report(
        "C07 recurrence growth matches characteristic root",
        all(d <= 1e-6 for d in deltas.values()),
        f"deltas={ {k: f'{d:.2e}' for k, d in deltas.items()} }",
    )


def test_c08_joint_memory_exact_regime():
    ok = True
    for k1, k2 in ((4, 4), (5, 4), (6, 5)):
        result = capacity(k1, k2)
        ok = ok and result.kind == "exact"
        ok = ok and abs(result.value - log2(omega_root(k2))) <= 1e-9
    for k1 in (2, 3, 4, 7):
        for k2 in (2, 3):
            result = capacity(k1, k2)
            ok = ok and result.kind == "exact" and result.value == 0.0
    _report("C08 exact capacities in the joint-memory regime", ok)


def test_c09_bounds_table_chain_and_convergence():
    rows = bounds_table(3, 12)
    chain_ok = all(
        abs(current[1] - previous[2]) <= 1e-9 for previous, current in zip(rows, rows[1:])
    )
    gaps = [upper - lower for _, lower, upper in rows]
    shrinking = all(a > b for a, b in zip(gaps, gaps[1:]))
    _report(
        "C09 bound rows chain and gaps shrink (k1=3..12)",
        chain_ok and shrinking,
        f"first gap={gaps[0]:.4f}, last gap={gaps[-1]:.4f}",
    )


def test_c10_dp_agrees_with_brute_force_intersection():
    mismatches = 0
    pairs = 0
    for k1 in range(1, 5):
        for k2 in range(1, 5):
            params = ChannelParams(k1, k2)
            for n in range(1, 8):
                seqs = list(all_sequences(n))
                outputs = {x: possible_outputs(params, x) for x in seqs}
                for a, b in combinations(seqs, 2):
                    pairs += 1
                    brute = not outputs[a].isdisjoint(outputs[b])
                    if confusable_dp(params, a, b) != brute:
                        mismatches += 1
    _report(
        "C10 DP vs brute-force confusability (n<=7, k<=4)",
        mismatches == 0,
        f"{pairs} pairs, {mismatches} mismatches",
    )


def test_c11_graph_dominance_and_size_ceiling():
    edges_ok = True
    sizes_ok = True
    for n in range(1, 8):
        input_only = {k1: build_graph(ChannelParams(k1, 1), n) for k1 in (2, 3, 4)}
        output_only = {k2: build_graph(ChannelParams(1, k2), n) for k2 in (2, 3, 4)}
        input_sizes = {k1: optimal_code(g).size for k1, g in input_only.items()}
        output_sizes = {k2: optimal_code(g).size for k2, g in output_only.items()}
        for k1 in (2, 3, 4):
            for k2 in (2, 3, 4):
                joint = build_graph(ChannelParams(k1, k2), n)
                for i in range(1 << n):
                    marginal = input_only[k1].rows[i] | output_only[k2].rows[i]
                    if marginal & ~joint.rows[i]:
                        edges_ok = False
                size = optimal_code(joint).size
                if size > min(input_sizes[k1], output_sizes[k2]):
                    sizes_ok = False
    _report("C11 joint graph dominates marginals (n<=7)", edges_ok and sizes_ok)


def test_c12_end_to_end_zero_error_and_replay():
    runs = []
    for params, code in (
        (ChannelParams(2, 1), pairwise_block_code(8)),
        (ChannelParams(4, 4), forbidden_run_code(12, 3)),
    ):
        first = zero_error_trial(params, code, 10_000, seed=20240901)
        second = zero_error_trial(params, code, 10_000, seed=20240901)
        runs.append((first.failures, first == second))
    ok = all(failures == 0 and replay for failures, replay in runs)
    _report(
        "C12 zero decoding failures over seeded trials, bit-identical replay",
        ok,
        f"failures/replay per code: {runs}",
    )
