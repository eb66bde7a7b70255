import random
import re
import time
from itertools import combinations, count, product
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zecap import (
    Bits,
    ChannelParams,
    Code,
    PreconditionError,
    all_sequences,
    build_graph,
    confusable_dp,
    forbidden_run_code,
    optimal_code,
    output_membership,
    pairwise_block_code,
    possible_outputs,
    rate,
    read_code_file,
    replace_codeword,
    search,
    verify_code,
    write_code_file,
    zero_error_trial,
)
from zecap import codesearch
from zecap.codesearch import _degree_order, _max_independent, _result
from zecap.confusability import SUFFIX, ConfusabilityGraph, confusable_rows, half_rows

from oracles import brute_mis_size, pairwise_valid


def make_code(*words):
    return Code.from_words([Bits(w) for w in words])


def test_code_sorted_and_deduplicated():
    code = make_code("11", "00", "11")
    assert [str(w) for w in code.words] == ["00", "11"]
    assert len(code) == 2
    assert Bits("00") in code


def test_code_rejects_mixed_lengths():
    with pytest.raises(ValueError):
        make_code("0", "01")


@pytest.mark.parametrize(
    "k1, k2, words, expected",
    [
        (2, 1, ("0000", "0011", "1100", "1111"), True),
        (2, 1, ("00", "01"), False),
        (3, 3, ("0101",), True),
    ],
)
def test_verify_code_examples(k1, k2, words, expected):
    assert verify_code(ChannelParams(k1, k2), make_code(*words)) is expected


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=9),
    st.data(),
)
def test_verify_code_matches_pairwise_oracle(k1, k2, n, data):
    params = ChannelParams(k1, k2)
    labels = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12))
    words = []
    for x in (Bits.from_index(i, n) for i in labels):
        if all(not confusable_dp(params, x, w) for w in words):
            words.append(x)
    expected = True
    if data.draw(st.booleans()):
        # an output of a codeword, read as an input, shares that output with it
        x = data.draw(st.sampled_from(words))
        y = data.draw(st.sampled_from(sorted(possible_outputs(params, x))))
        words.append(y)
        expected = False
    if data.draw(st.booleans()):
        # built directly, a code keeps its repeats
        code = Code(n=n, words=tuple(sorted(words)))
    else:
        code = Code.from_words(words, n=n)
        # an output equal to its codeword is dropped as a repeat
        expected = expected or len(code) < len(words)
    assert verify_code(params, code) is expected
    assert pairwise_valid(params, code) is expected


@pytest.mark.parametrize("k1, k2", [(1, 1), (2, 1), (4, 4)])
def test_verify_code_rejects_a_repeated_word(k1, k2):
    params = ChannelParams(k1, k2)
    code = Code(n=4, words=(Bits("0011"), Bits("1100"), Bits("1100")))
    assert verify_code(params, code) is False
    assert pairwise_valid(params, code) is False


def test_verify_code_empty_and_single_word():
    params = ChannelParams(3, 3)
    assert verify_code(params, Code(n=5, words=()))
    assert verify_code(params, make_code("01101"))
    # at n = 0 every code is closed under the complement, with no half to cut
    empty = Bits("")
    assert verify_code(params, Code(n=0, words=()))
    assert verify_code(params, Code(n=0, words=(empty,)))
    assert verify_code(params, Code(n=0, words=(empty, empty))) is False


def test_verify_code_rejects_words_of_the_wrong_length():
    # Code refuses both before verify_code reads them; the second pair has 6
    # symbols in all: joined and cut into columns, it would read as two 3-bit
    # words
    for words in ((Bits("010"), Bits("01")), (Bits("0101"), Bits("01"))):
        with pytest.raises(ValueError):
            verify_code(ChannelParams(2, 2), Code(n=3, words=words))


def test_verify_code_past_the_recursion_limit():
    params, n = ChannelParams(4, 4), 2000
    rng = random.Random(4)

    def short_runs(length):
        runs = (str(i % 2) * rng.choice((1, 2)) for i in range(length))
        return Bits("".join(runs)[:length])

    # with no run of 3 no step breaks a run, so each word's only output is itself
    x, z, w = (short_runs(n) for _ in range(3))
    # "0001" breaks an input run at step 4, so "0000" + tail is an output of it
    tail = short_runs(n - 4)
    a, b = Bits("0001" + tail), Bits("0000" + tail)
    assert output_membership(params, a, b)
    for words, expected in (((x, z, w), True), ((a, b, x), False)):
        code = Code.from_words(words)
        assert len(code) == 3
        assert pairwise_valid(params, code) is expected
        assert verify_code(params, code) is expected


def closed_code(n, labels):
    """The code holding each label and its complement, repeats kept."""
    last = (1 << n) - 1
    labels = sorted(labels + [last - i for i in labels])
    return Code(n=n, words=tuple(Bits.from_index(i, n) for i in labels))


def counting_rows(monkeypatch):
    """Patch verify_code's walk to count the rows it reads."""
    read = []

    def rows(*args):
        for row in confusable_rows(*args):
            read.append(row)
            yield row

    monkeypatch.setattr("zecap.codesearch.confusable_rows", rows)
    return read


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=9),
    st.data(),
)
def test_verify_code_matches_pairwise_oracle_on_complement_closed_codes(k1, k2, n, data):
    params = ChannelParams(k1, k2)
    last = (1 << n) - 1
    kept = []
    for i in data.draw(st.lists(st.integers(0, last), min_size=1, max_size=8)):
        pair = (Bits.from_index(i, n), Bits.from_index(last - i, n))
        # the pair itself differs in the first symbol, so it is never confusable
        if all(not confusable_dp(params, x, w) for x in pair for w in kept):
            kept.extend(pair)
    labels = [w.to_index() for w in kept[::2]]
    if data.draw(st.booleans()):
        # an output of a codeword, read as an input, shares that output with it
        x = data.draw(st.sampled_from(kept))
        y = data.draw(st.sampled_from(sorted(possible_outputs(params, x))))
        labels.append(y.to_index())
    if data.draw(st.booleans()):
        labels.append(data.draw(st.sampled_from(labels)))
    code = closed_code(n, labels)
    assert verify_code(params, code) is pairwise_valid(params, code)


def test_verify_code_reads_half_the_rows_of_a_complement_closed_code(monkeypatch):
    params = ChannelParams(4, 4)
    code = forbidden_run_code(8, 3)
    read = counting_rows(monkeypatch)
    assert verify_code(params, code)
    assert len(read) == len(code) // 2
    read.clear()
    # without its smallest word the code is not closed, so all of it is walked
    assert verify_code(params, Code(n=8, words=code.words[1:]))
    assert len(read) == len(code) - 1


def test_verify_code_finds_a_one_half_conflict_through_its_mirror(monkeypatch):
    # words that differ in the first symbol are never confusable, so the
    # rows of 0110 and 0111 must catch the conflict of 1000 and 1001
    params = ChannelParams(2, 1)
    assert confusable_dp(params, Bits("1000"), Bits("1001"))
    read = counting_rows(monkeypatch)
    assert verify_code(params, closed_code(4, [0b1000, 0b1001])) is False
    assert len(read) <= 2
    # without the mirror half the full walk reads the conflict itself
    code = Code.from_words([Bits("1000"), Bits("1001")])
    assert verify_code(params, code) is False
    assert pairwise_valid(params, code) is False
    # unsorted, each word's complement sits at the mirror position, yet a
    # bisect for the first word starting with 1 would land at 0 and read no
    # row: Code refuses that order, and the sorted code is caught
    order = ("1000", "1001", "0011", "1100", "0110", "0111")
    with pytest.raises(ValueError, match="ascending order"):
        Code(n=4, words=tuple(map(Bits, order)))
    assert verify_code(params, Code(n=4, words=tuple(map(Bits, sorted(order))))) is False


@pytest.mark.parametrize("n", [4, 5])
def test_verify_code_sees_repeats_on_both_halves(n):
    params = ChannelParams(3, 3)
    word = Bits.from_index((1 << n) - 3, n)  # 11..101, apart from its complement
    twin = Bits.from_index(2, n)
    assert not confusable_dp(params, word, twin)
    assert verify_code(params, Code(n=n, words=(twin, word)))
    # the repeat and its complement's repeat: closed, caught on the 0-half
    assert verify_code(params, Code(n=n, words=(twin, twin, word, word))) is False
    # a repeat on the 1-half alone is not closed as a multiset
    assert verify_code(params, Code(n=n, words=(twin, word, word))) is False


def bench_confirm_code(k1, k2):
    """The code a benchmark workload verifies under (k1, k2), at n = 12.

    Under (4, 4) it is forbidden_run_code(12, 3), 466 words closed under
    complement; otherwise the 64 evenly spaced words of the search witness.
    """
    params = ChannelParams(k1, k2)
    if (k1, k2) == (4, 4):
        return params, forbidden_run_code(12, 3)
    words = search(params, 12).witness.words
    return params, Code.from_words([words[i * len(words) // 64] for i in range(64)], n=12)


@pytest.mark.parametrize("k1, k2", [(4, 6), (3, 5)])
def test_verify_code_on_the_benchmark_confirm_codes(k1, k2):
    # the 64 evenly spaced witness words a search workload verifies: most
    # part from every other word well above the suffix depth
    params, code = bench_confirm_code(k1, k2)
    n = code.n
    assert verify_code(params, code) is pairwise_valid(params, code) is True
    depth = n - SUFFIX
    graph = build_graph(params, n)
    labels = [w.to_index() for w in code]
    mask = sum(1 << i for i in labels)
    prefixes = [Bits(str(word)[:depth]) for word in code]
    for prefix, label in zip(prefixes, labels):
        parted = not any(
            confusable_dp(params, prefix, other) for other in prefixes if other is not prefix
        )
        # a new word confusable with this codeword and no other one, which
        # leaves its trie node above the suffix depth: the walk must not
        # stop at either of the two
        added = next(
            (
                x
                for x in range(1 << n)
                if graph.rows[label] >> x & 1
                and graph.rows[x] & mask == 1 << label
                and (x ^ label) >> SUFFIX
            ),
            None,
        )
        if parted and added is not None:
            break
    else:
        pytest.fail("no codeword parts early with a neighbour of its own")
    bigger = Code.from_words([*code, Bits.from_index(added, n)], n=n)
    assert verify_code(params, bigger) is pairwise_valid(params, bigger) is False


def test_verify_code_on_the_benchmark_traffic_code(monkeypatch):
    # no word of this code parts above the suffix depth, and the code is
    # closed under complement, so verify reads the rows of its 0-half alone
    params, code = bench_confirm_code(4, 4)
    n = code.n
    assert len(code) == 466
    read = counting_rows(monkeypatch)
    assert verify_code(params, code)
    assert len(read) == len(code) // 2
    # each codeword's one output is itself and no other word's, so only a
    # repeat conflicts with a codeword; two new words can conflict, here
    # ones that differ above the suffix
    repeated = tuple(sorted((*code.words, code.words[100])))
    assert verify_code(params, Code(n=n, words=repeated)) is False
    x, y = next(
        (x, y)
        for x in all_sequences(n)
        for y in (Bits.from_index(x.to_index() ^ 1 << bit, n) for bit in range(SUFFIX, n))
        if x not in code.words and y not in code.words and confusable_dp(params, x, y)
    )
    assert verify_code(params, Code.from_words([*code, x, y], n=n)) is False
    # with their complements too the code is closed again: the 0-half must catch it
    last = (1 << n) - 1
    closed = Code.from_words(
        [*code, x, y, *(Bits.from_index(last - w.to_index(), n) for w in (x, y))], n=n
    )
    read.clear()
    assert verify_code(params, closed) is False
    assert len(read) <= len(closed) // 2


@pytest.mark.parametrize("k1, k2", [(3, 5), (4, 6), (4, 4)])
def test_rows_of_the_benchmark_confirm_codes_match_pairwise_dp(k1, k2):
    params, code = bench_confirm_code(k1, k2)
    n = code.n
    rng = random.Random(k1 * 10 + k2)
    # each codeword beside a seeded one-symbol flip of it, so rows are not all empty
    words = [str(w) for w in code]
    words += [format(int(w, 2) ^ 1 << rng.randrange(n), f"0{n}b") for w in words]
    ranked = sorted(words)
    rows = list(confusable_rows(params, n, words))
    assert any(rows)
    if len(code) == 64:
        pairs = list(combinations(range(len(ranked)), 2))
    else:
        pairs = [rng.sample(range(len(ranked)), 2) for _ in range(2000)]
        # and each codeword with its flip, most of them confusable
        pairs += [(ranked.index(w), ranked.index(x)) for w, x in zip(words, words[len(code):])]
    for r, s in pairs:
        if ranked[r] != ranked[s]:
            expected = confusable_dp(params, Bits(ranked[r]), Bits(ranked[s]))
            assert (rows[r] >> s & 1, rows[s] >> r & 1) == (expected, expected), (r, s)


@pytest.mark.parametrize(
    "n, size, expected",
    [(4, 4, 0.5), (1, 2, 1.0), (6, 8, 0.5)],
)
def test_rate_examples(n, size, expected):
    assert rate(n, size) == pytest.approx(expected)


def test_rate_validation():
    with pytest.raises(ValueError):
        rate(4, 0)


@pytest.mark.parametrize("k1, k2", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_optimal_size_matches_subset_enumeration(k1, k2, n):
    graph = build_graph(ChannelParams(k1, k2), n)
    result = optimal_code(graph)
    assert result.optimal
    assert result.size == brute_mis_size(list(graph.rows))


def test_optimal_code_witness_verifies():
    graph = build_graph(ChannelParams(2, 1), 6)
    result = optimal_code(graph)
    assert result.size == len(result.witness)
    assert verify_code(ChannelParams(2, 1), result.witness)


def test_optimal_code_edgeless_graph():
    graph = build_graph(ChannelParams(1, 1), 3)
    result = optimal_code(graph)
    assert result.size == 8


def test_optimal_code_two_cliques():
    # same first symbol always confusable under (1, 2): two cliques, size 2
    graph = build_graph(ChannelParams(1, 2), 5)
    half = 1 << 4
    for i, j in combinations(range(half), 2):
        assert graph.rows[i] >> j & 1
        assert graph.rows[half + i] >> (half + j) & 1
    assert optimal_code(graph).size == 2


@st.composite
def random_halves(draw):
    """A graph given by a random 0-half of 8 or 16 rows."""
    n = draw(st.sampled_from([4, 5]))
    # one edge in 8 leaves most graphs disconnected, with dominated vertices
    edge_eighths = draw(st.sampled_from([4, 1]))
    count = 1 << (n - 1)
    half = [0] * count
    for i, j in combinations(range(count), 2):
        if draw(st.integers(0, 7)) < edge_eighths:
            half[i] |= 1 << j
            half[j] |= 1 << i
    return ConfusabilityGraph(ChannelParams(1, 1), tuple(half))


def assert_independent(graph, code):
    labels = [w.to_index() for w in code]
    mask = sum(1 << i for i in labels)
    assert labels
    assert all(not graph.rows[i] & mask for i in labels)


@settings(max_examples=25)
@given(random_halves())
def test_optimal_code_matches_brute_on_random_graphs(graph):
    result = optimal_code(graph)
    assert result.optimal
    # the 1-half mirrors the 0-half and shares no edge with it
    assert result.size == 2 * brute_mis_size(list(graph.half))
    assert list(result.witness) == sorted(result.witness)
    assert_independent(graph, result.witness)


def test_optimal_code_kernel_with_edges():
    cases = (
        # reduction of the 0-half leaves 10 vertices with 13 edges among them
        (3, 7, 12, 426),
        # two components of 10 and 27 vertices
        (3, 7, 13, 666),
        (2, 6, 14, 36),
        # reduction of the 0-half leaves 84 vertices in 3 components of 10,
        # 27 and 47 vertices
        (3, 7, 14, 1050),
    )
    for k1, k2, n, size in cases:
        params = ChannelParams(k1, k2)
        result = optimal_code(build_graph(params, n))
        assert result.optimal
        assert result.size == size
        assert verify_code(params, result.witness)


def test_graph_route_gives_what_the_benchmark_reads():
    # the reads of the benchmark's search check at its (2,5) n=11 point: the
    # graph's params, edge count and full mirrored rows, and an optimal
    # witness independent in those rows
    params = ChannelParams(2, 5)
    graph = build_graph(params, 11)
    assert graph.params == params
    assert graph.edge_count() == 707014
    assert graph.rows == tuple(confusable_rows(params, 11, map(str, all_sequences(11))))
    result = optimal_code(graph, time_limit=60.0)
    assert result.optimal
    assert result.size == len(result.witness.words) == 12
    assert_independent(graph, result.witness)
    assert not any(confusable_dp(params, a, b) for a, b in combinations(result.witness, 2))


def plain_search(graph):
    """The general search over every row of the graph, not its 0-half alone."""
    return _result(graph.n, *_max_independent(graph.rows, inf))


def test_mirrored_search_matches_the_plain_path():
    for k1 in range(1, 7):
        for k2 in range(1, 7):
            params = ChannelParams(k1, k2)
            for n in range(1, 11):
                graph = build_graph(params, n)
                found, plain = optimal_code(graph), plain_search(graph)
                assert found.optimal and plain.optimal
                assert found.size == plain.size, (k1, k2, n)
                assert verify_code(params, found.witness)
                assert verify_code(params, plain.witness)


def test_mirrored_search_matches_the_plain_path_on_complement_closed_graphs():
    # the kernels of build_graph at k1, k2 <= 6 and n <= 10 are empty; these
    # seeded graphs, each half a G(2^(n-1), p) and no edge between the halves
    # that start with 0 and with 1, leave a one-component 0-half kernel in 29
    # of the 60 draws. Each is drawn in full, complement pairs together, and
    # given by its 0-half, whose mirror must give back every row
    rng = random.Random(11)
    for _ in range(60):
        n = rng.choice((4, 5))
        density = rng.choice((0.15, 0.3, 0.5))
        count = 1 << n
        rows = [0] * count
        for u, v in combinations(range(count), 2):
            if v < count // 2 and rng.random() < density:
                for a, b in ((u, v), (count - 1 - u, count - 1 - v)):
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
        graph = ConfusabilityGraph(ChannelParams(1, 1), tuple(rows[: count // 2]))
        assert graph.rows == tuple(rows)
        found, plain = optimal_code(graph), plain_search(graph)
        assert found.optimal and plain.optimal
        assert found.size == plain.size
        assert_independent(graph, found.witness)
        assert_independent(graph, plain.witness)


def test_root_sweep_takes_low_degrees_first():
    graph = build_graph(ChannelParams(2, 6), 6)
    order = _degree_order(graph.rows)
    assert sorted(order) == list(range(1 << 6))
    degrees = [graph.rows[u].bit_count() for u in order]
    assert degrees == sorted(degrees)
    assert degrees[0] < degrees[-1]


def test_optimal_code_closes_disjoint_cycles():
    # a 0-half of 25 disjoint 5-cycles and 3 isolated vertices: nothing is
    # dominated, and each cycle is its own component with optimum 2, so the
    # half holds 53 and the graph twice that
    half = [0] * 128
    for u in range(125):
        v = u - u % 5 + (u + 1) % 5
        half[u] |= 1 << v
        half[v] |= 1 << u
    graph = ConfusabilityGraph(ChannelParams(1, 1), tuple(half))
    result = optimal_code(graph)
    assert result.optimal
    assert result.size == 106
    assert_independent(graph, result.witness)


# time a call may run past its limit: one vertex of a reduction pass, or one
# component split
DEADLINE_SLACK = 1.0


def test_optimal_code_honours_deadline_on_large_kernel():
    graph = build_graph(ChannelParams(1, 5), 13)
    start = time.perf_counter()
    result = optimal_code(graph, time_limit=1.0)
    assert time.perf_counter() - start < 1.0 + DEADLINE_SLACK
    assert result.optimal
    assert result.size == 4062


def test_optimal_code_search_timeout_keeps_best_found():
    # a 0-half that is a seeded G(128, 0.1): connected, barely reducible, and
    # far too slow to close, so the limit cuts the branch and reduce after its
    # first dives
    rng = random.Random(0)
    half = [0] * 128
    for u, v in combinations(range(128), 2):
        if rng.random() < 0.1:
            half[u] |= 1 << v
            half[v] |= 1 << u
    graph = ConfusabilityGraph(ChannelParams(1, 1), tuple(half))
    start = time.perf_counter()
    result = optimal_code(graph, time_limit=0.5)
    assert time.perf_counter() - start < 0.5 + DEADLINE_SLACK
    assert not result.optimal
    assert result.size >= 1
    assert_independent(graph, result.witness)


def test_optimal_code_timeout_flags_partial():
    graph = build_graph(ChannelParams(1, 4), 8)
    result = optimal_code(graph, time_limit=0.0)
    assert not result.optimal
    assert len(result.witness) >= 1
    assert verify_code(ChannelParams(1, 4), result.witness)


def test_mirrored_search_timeout_mirrors_the_partial_code(monkeypatch):
    # one clock tick per vertex visit: the 0-half root sweep at (3,7) n=13
    # takes 1,254 ticks and the branch and reduce after it 284, so a limit of
    # 1,400 ticks stops the search inside the branch and reduce
    params = ChannelParams(3, 7)
    graph = build_graph(params, 13)
    monkeypatch.setattr(codesearch.time, "monotonic", count().__next__)
    result = optimal_code(graph, time_limit=1400)
    monkeypatch.undo()
    assert not result.optimal
    words = {str(w) for w in result.witness}
    assert words == {w.translate(str.maketrans("01", "10")) for w in words}
    assert verify_code(params, result.witness)


def test_root_sweep_timeout_keeps_its_takes(monkeypatch):
    # one clock tick per vertex visit: the 0-half root sweep at (3,7) n=13
    # takes 1,254 ticks, so a limit of 1,200 stops the search inside it
    params = ChannelParams(3, 7)
    graph = build_graph(params, 13)
    monkeypatch.setattr(codesearch.time, "monotonic", count().__next__)
    result = optimal_code(graph, time_limit=1200)
    monkeypatch.undo()
    assert not result.optimal
    assert result.size > 1
    words = {str(w) for w in result.witness}
    assert words == {w.translate(str.maketrans("01", "10")) for w in words}
    assert verify_code(params, result.witness)


# the benchmark's search points
BENCH_POINTS = [(2, 5, 11), (3, 5, 12), (1, 5, 12), (4, 6, 12)]


def test_search_matches_optimal_code_on_build_graph():
    small = [(k1, k2, n) for k1 in range(1, 6) for k2 in range(1, 6) for n in range(1, 10)]
    for k1, k2, n in small + BENCH_POINTS:
        params = ChannelParams(k1, k2)
        graph = build_graph(params, n)
        assert tuple(half_rows(params, n)) == graph.rows[: 1 << (n - 1)]
        found = search(params, n)
        assert found.optimal
        assert found == optimal_code(graph), (k1, k2, n)


def test_search_honours_its_deadline(monkeypatch):
    params = ChannelParams(2, 3)
    assert search(params, 8, time_limit=inf) == optimal_code(build_graph(params, 8))
    read = []

    def counted_rows(*args):
        for row in confusable_rows(*args):
            read.append(row)
            yield row

    monkeypatch.setattr("zecap.confusability.confusable_rows", counted_rows)
    result = search(params, 8, time_limit=0.0)
    # the walk stops at its first check, after one row, with vertex 0 alone
    assert len(read) == 1
    assert not result.optimal
    assert [str(w) for w in result.witness] == ["00000000"]


@pytest.mark.parametrize("limit", [float("nan"), -1.0, -float("inf")])
def test_optimal_code_rejects_a_bad_time_limit(limit):
    with pytest.raises(ValueError):
        optimal_code(build_graph(ChannelParams(1, 4), 4), time_limit=limit)


def test_replace_codeword_example():
    params = ChannelParams(2, 1)
    updated = replace_codeword(params, make_code("01", "11"), Bits("01"), Bits("00"))
    assert [str(w) for w in updated.words] == ["00", "11"]
    assert verify_code(params, updated)


def test_from_words_and_replace_codeword_wrap_plain_strings():
    params = ChannelParams(2, 1)
    code = Code.from_words(["00", "11"])
    assert all(type(w) is Bits for w in code.words)
    assert zero_error_trial(params, code, 100, 0).failures == 0
    updated = replace_codeword(params, code, "11", "11")
    assert updated == code and all(type(w) is Bits for w in updated.words)
    # a word that is already Bits is kept, not checked again
    word = Bits("01")
    assert Code.from_words([word]).words[0] is word


def test_replace_codeword_identity():
    params = ChannelParams(2, 1)
    code = make_code("00", "11")
    assert replace_codeword(params, code, Bits("00"), Bits("00")) == code


def test_replace_codeword_rejects_containment_violation():
    params = ChannelParams(2, 1)
    with pytest.raises(PreconditionError) as excinfo:
        replace_codeword(params, make_code("00", "11"), Bits("00"), Bits("01"))
    assert "01" in str(excinfo.value)


def test_replace_codeword_requires_membership():
    params = ChannelParams(2, 1)
    with pytest.raises(PreconditionError):
        replace_codeword(params, make_code("00", "11"), Bits("01"), Bits("00"))


def test_replace_codeword_agrees_with_output_set_inclusion():
    # the linear containment pass against enumerated output sets, on every
    # pair of words; a refusal names an output of x_new that x cannot give
    for k1, k2 in product(range(1, 5), repeat=2):
        params = ChannelParams(k1, k2)
        for n in range(1, 6):
            words = list(all_sequences(n))
            outputs = {x: possible_outputs(params, x) for x in words}
            for x, x_new in product(words, repeat=2):
                code = Code.from_words([x])
                if outputs[x_new] <= outputs[x]:
                    assert replace_codeword(params, code, x, x_new) == Code.from_words([x_new])
                    continue
                with pytest.raises(PreconditionError) as excinfo:
                    replace_codeword(params, code, x, x_new)
                named = Bits(re.match(r"output (\S+) of", str(excinfo.value))[1])
                assert named in outputs[x_new] and named not in outputs[x]


def test_replace_codeword_keeps_the_repeats_of_the_other_words(tmp_path):
    params = ChannelParams(2, 1)
    path = tmp_path / "repeat.code"
    path.write_text("# zecap code n=4 k1=2 k2=1\n0000\n1111\n1111\n")
    _, code = read_code_file(path)
    assert verify_code(params, code) is False
    updated = replace_codeword(params, code, Bits("0000"), Bits("0000"))
    assert updated.words == ("0000", "1111", "1111")
    assert verify_code(params, updated) is False


def test_replace_codeword_has_no_length_cap():
    # under (2,1) every step of 0101... breaks an input run, so its outputs
    # are all the words that start with 0, and 0^40 may replace it
    params = ChannelParams(2, 1)
    alternating, zeros, ones = Bits("01" * 20), Bits("0" * 40), Bits("1" * 40)
    updated = replace_codeword(params, Code.from_words([alternating, ones]), alternating, zeros)
    assert updated == Code.from_words([zeros, ones])
    assert verify_code(params, updated)
    assert replace_codeword(ChannelParams(3, 7), updated, zeros, zeros) == updated


def test_replace_codeword_names_a_full_output_past_the_cap():
    # 0^40 gives only itself; 0101... may output 01 and then copy the rest
    params = ChannelParams(2, 1)
    alternating, zeros = Bits("01" * 20), Bits("0" * 40)
    with pytest.raises(PreconditionError, match=f"output {alternating} of {alternating} "):
        replace_codeword(params, Code.from_words([zeros]), zeros, alternating)


@given(
    st.tuples(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3)),
    st.integers(min_value=2, max_value=5),
    st.data(),
)
def test_replacement_preserves_zero_error(raw_params, n, data):
    params = ChannelParams(*raw_params)
    seqs = list(all_sequences(n))
    x = data.draw(st.sampled_from(seqs))
    outputs_x = possible_outputs(params, x)
    candidates = [s for s in seqs if s != x and possible_outputs(params, s) <= outputs_x]
    if not candidates:
        return
    x_new = data.draw(st.sampled_from(candidates))
    words = [x]
    for s in seqs:
        if len(words) == 4:
            break
        if s != x and all(not confusable_dp(params, s, w) for w in words):
            words.append(s)
    code = Code.from_words(words, n=n)
    assert verify_code(params, code)
    updated = replace_codeword(params, code, x, x_new)
    assert verify_code(params, updated)


def test_code_file_round_trip(tmp_path):
    params = ChannelParams(2, 1)
    code = make_code("0000", "0011", "1100", "1111")
    path = tmp_path / "code.txt"
    write_code_file(path, params, code)
    text = path.read_text()
    assert text.splitlines()[0] == "# zecap code n=4 k1=2 k2=1"
    read_params, read_code = read_code_file(path)
    assert read_params == params
    assert read_code == code


def read_repeat_code(path):
    """A code file listing 1111 twice, out of order, as read back."""
    path.write_text("# zecap code n=4 k1=2 k2=1\n1111\n0000\n1111\n")
    return read_code_file(path)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(
            lambda path: (ChannelParams(3, 5), search(ChannelParams(3, 5), 8).witness),
            id="search",
        ),
        pytest.param(
            lambda path: (ChannelParams(4, 4), forbidden_run_code(8, 3)), id="forbidden-run"
        ),
        pytest.param(
            lambda path: (ChannelParams(2, 1), pairwise_block_code(5)), id="pairwise-block"
        ),
        pytest.param(read_repeat_code, id="read-with-repeat"),
    ],
)
def test_code_replays_the_same_from_memory_and_from_its_file(tmp_path, make):
    params, code = make(tmp_path / "source.code")
    path = tmp_path / "code.code"
    write_code_file(path, params, code)
    read_params, read_code = read_code_file(path)
    assert (read_params, read_code) == (params, code)
    # forced, so that the code with a repeat runs too
    assert zero_error_trial(params, read_code, 50, 3, force=True) == zero_error_trial(
        params, code, 50, 3, force=True
    )


def test_code_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a header\n0000\n")
    with pytest.raises(ValueError):
        read_code_file(path)


def test_code_file_rejects_a_word_of_the_wrong_length(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("# zecap code n=4 k1=2 k2=1\n0000\n011\n")
    with pytest.raises(ValueError, match="length 4"):
        read_code_file(path)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: Code.from_words([]),
            "empty code needs an explicit block length",
            id="from_words-empty",
        ),
        pytest.param(
            lambda: Code(n=2, words=(Bits("11"), Bits("01"), Bits("00"))),
            "code words must be in ascending order",
            id="Code-unsorted",
        ),
        pytest.param(
            lambda: Code(n=2, words=(Bits("01"), Bits("011"))),
            "code words must all have length 2",
            id="Code-wrong-length",
        ),
        pytest.param(lambda: Code(n=2, words=("01",)), "must be Bits", id="Code-plain-str"),
        pytest.param(lambda: Code(n=2, words=("0a",)), "must be Bits", id="Code-non-binary"),
        pytest.param(lambda: rate(0, 1), "block length must be >= 1", id="rate(0,1)"),
        pytest.param(
            lambda: replace_codeword(
                ChannelParams(2, 1), make_code("01", "11"), Bits("01"), Bits("000")
            ),
            "replacement word has the wrong length",
            id="replace_codeword-wrong-length",
        ),
    ],
)
def test_code_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
