import pytest

from zecap import (
    CapExceededError,
    ChannelParams,
    all_sequences,
    forbidden_run_code,
    forbidden_run_counts,
    growth_ratio,
    no_run_break_counts,
    pairwise_block_code,
    verify_code,
)
from zecap.sequences import ENUMERATION_CAP

from oracles import forbidden_run_words


def words(code):
    return sorted(str(w) for w in code.words)


def test_pairwise_block_code_examples():
    assert words(pairwise_block_code(2)) == ["00", "11"]
    assert words(pairwise_block_code(3)) == ["000", "011", "100", "111"]
    assert words(pairwise_block_code(1)) == ["0", "1"]


@pytest.mark.parametrize("n", range(1, 11))
def test_pairwise_block_code_size_and_validity(n):
    code = pairwise_block_code(n)
    assert len(code) == 2 ** ((n + 1) // 2)
    assert verify_code(ChannelParams(2, 1), code)


def test_forbidden_run_code_examples():
    assert words(forbidden_run_code(2, 2)) == ["01", "10"]
    code_3_3 = forbidden_run_code(3, 3)
    assert len(code_3_3) == 6
    assert "000" not in words(code_3_3) and "111" not in words(code_3_3)
    assert len(forbidden_run_code(4, 3)) == 10


def test_forbidden_run_code_refuses_past_enumeration_cap():
    with pytest.raises(CapExceededError):
        forbidden_run_code(ENUMERATION_CAP + 1, 3)


def test_pairwise_block_code_refuses_past_twice_the_enumeration_cap():
    # 2^ceil(n/2) words: n = 49 would build 2^25 of them
    with pytest.raises(CapExceededError):
        pairwise_block_code(2 * ENUMERATION_CAP + 1)


@pytest.mark.parametrize("run_bound", [2, 3, 4, 5, 6])
def test_forbidden_run_code_matches_filtered_enumeration(run_bound):
    for n in range(1, 15):
        code = forbidden_run_code(n, run_bound)
        assert code.n == n
        assert list(code.words) == forbidden_run_words(n, run_bound)


def brute_count_forbidden_run(n, run_bound):
    return len(forbidden_run_words(n, run_bound))


def brute_count_no_run_break(n, k2):
    lead_0, lead_1 = "0" * (k2 - 1) + "1", "1" * (k2 - 1) + "0"
    return sum(1 for x in all_sequences(n) if lead_0 not in str(x) and lead_1 not in str(x))


@pytest.mark.parametrize("run_bound", [2, 3, 4, 5, 6])
def test_count_forbidden_run_matches_enumeration(run_bound):
    counts = forbidden_run_counts(run_bound, 12)
    for n in range(0, 13):
        assert counts[n] == brute_count_forbidden_run(n, run_bound)


def test_count_forbidden_run_examples():
    counts = forbidden_run_counts(3, 5)
    assert (counts[3], counts[5]) == (6, 16)
    for run_bound in (2, 3, 5):
        assert forbidden_run_counts(run_bound, 1)[1] == 2


@pytest.mark.parametrize("k2", [4, 5, 6])
def test_count_no_run_break_matches_enumeration(k2):
    counts = no_run_break_counts(k2, 12)
    for n in range(0, 13):
        assert counts[n] == brute_count_no_run_break(n, k2)


def test_count_no_run_break_examples():
    assert no_run_break_counts(4, 5)[3:] == (8, 14, 24)


@pytest.mark.parametrize("run_bound", [2, 3, 4])
def test_counts_nondecreasing(run_bound):
    counts = forbidden_run_counts(run_bound, 40)
    assert all(counts[n] <= counts[n + 1] for n in range(1, 40))


@pytest.mark.parametrize("run_bound", [2, 3, 4, 5])
def test_forbidden_run_within_no_run_break(run_bound):
    lower = forbidden_run_counts(run_bound, 19)
    upper = no_run_break_counts(run_bound + 1, 19)
    assert all(low <= high for low, high in zip(lower, upper, strict=True))


@pytest.mark.parametrize("k1, k2", [(4, 4), (4, 5), (5, 4), (6, 6)])
def test_forbidden_run_code_is_zero_error_for_wide_memories(k1, k2):
    params = ChannelParams(k1, k2)
    code = forbidden_run_code(8, min(k1, k2) - 1)
    assert verify_code(params, code)


def test_tail_family_decomposition():
    # splitting the no-run-break family by trailing-run length:
    #   size(n, run=1) = total over runs 1..k2-2 at n-1;  size(n, run=i+1) = size(n-1, run=i)
    k2 = 4

    def family(n):
        return [x for x in all_sequences(n) if "0001" not in str(x) and "1110" not in str(x)]

    def tail_run(x):
        run = 1
        while run < len(x) and x[-1 - run] == x[-1]:
            run += 1
        return run

    for n in range(2, 11):
        by_tail_prev = {}
        for x in family(n - 1):
            by_tail_prev[tail_run(x)] = by_tail_prev.get(tail_run(x), 0) + 1
        by_tail = {}
        for x in family(n):
            by_tail[tail_run(x)] = by_tail.get(tail_run(x), 0) + 1
        assert by_tail.get(1, 0) == sum(by_tail_prev.get(i, 0) for i in range(1, k2 - 1))
        for i in range(1, n):
            assert by_tail.get(i + 1, 0) == by_tail_prev.get(i, 0)
        # corrected sandwich, editorially repaired from the family split
        total = len(family(n))
        assert by_tail.get(1, 0) <= total <= n * max(by_tail.values())


def test_growth_ratio_limits():
    assert growth_ratio(3, 256) == pytest.approx(1.618033988749895, abs=1e-9)
    assert growth_ratio(4, 256) == pytest.approx(1.839286755214161, abs=1e-9)
    assert growth_ratio(2, 10) == pytest.approx(1.0, abs=0.0)


def test_growth_ratio_requires_settled_recurrence():
    with pytest.raises(ValueError):
        growth_ratio(4, 7)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: pairwise_block_code(0), "block length", id="pairwise(0)"),
        pytest.param(lambda: forbidden_run_code(0, 3), "block length", id="forbidden_run(0,3)"),
        pytest.param(lambda: forbidden_run_code(5, 1), "run bound", id="forbidden_run(5,1)"),
        pytest.param(lambda: forbidden_run_counts(1, 5), "run bound", id="fr_counts(1,5)"),
        pytest.param(lambda: forbidden_run_counts(3, -1), "n_max", id="fr_counts(3,-1)"),
        pytest.param(lambda: no_run_break_counts(2, 5), "k2 must be >= 3", id="nrb_counts(2,5)"),
        pytest.param(lambda: no_run_break_counts(4, -1), "n_max", id="nrb_counts(4,-1)"),
    ],
)
def test_construction_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
