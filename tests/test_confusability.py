from hashlib import sha256
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zecap import (
    Bits,
    CapExceededError,
    ChannelParams,
    all_sequences,
    build_graph,
    confusable_dp,
    contains_run,
    output_membership,
    possible_outputs,
)
from zecap.confusability import (
    GRAPH_CAP,
    OUTPUT_CAP,
    SUFFIX,
    ConfusabilityGraph,
    _joint_steps,
    _suffix_sets,
    confusable_rows,
    half_rows,
)
from zecap.cli import _adjacency_lines
from zecap.sequences import run_steps

from oracles import brute_confusable, enumerate_outputs

small_params = st.tuples(
    st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4)
).map(lambda p: ChannelParams(*p))


def outputs_as_strings(params, x):
    return sorted(str(y) for y in possible_outputs(params, Bits(x)))


@pytest.mark.parametrize(
    "k1, k2, x, expected",
    [
        (2, 1, "00", ["00"]),
        (2, 1, "01", ["00", "01"]),
        (1, 2, "011", ["000", "001", "011"]),
    ],
)
def test_possible_outputs_examples(k1, k2, x, expected):
    assert outputs_as_strings(ChannelParams(k1, k2), x) == expected


def test_possible_outputs_cap():
    # 0101... under (2, 1) doubles its outputs at every step after the first,
    # so the step to length 21 starts from 2^19 > OUTPUT_CAP prefixes
    assert OUTPUT_CAP == 1 << 18
    with pytest.raises(CapExceededError, match=f"exceed cap {OUTPUT_CAP}"):
        possible_outputs(ChannelParams(2, 1), Bits("01" * 10 + "0"))


def test_possible_outputs_past_the_recursion_limit():
    # the cap counts outputs, not symbols: a long input with one output passes
    x = Bits("0" * 1500)
    assert possible_outputs(ChannelParams(2, 1), x) == {x}


@given(small_params, st.text(alphabet="01", min_size=1, max_size=7))
def test_possible_outputs_match_transition_scan(params, s):
    x = Bits(s)
    assert possible_outputs(params, x) == enumerate_outputs(params, x)


@pytest.mark.parametrize(
    "k1, k2, x, y, expected",
    [
        (2, 1, "0011", "0001", True),
        (2, 1, "0011", "0011", True),
        (2, 1, "0011", "1011", False),
    ],
)
def test_output_membership_examples(k1, k2, x, y, expected):
    assert output_membership(ChannelParams(k1, k2), Bits(x), Bits(y)) is expected


def test_output_membership_length_mismatch():
    with pytest.raises(ValueError):
        output_membership(ChannelParams(2, 1), Bits("01"), Bits("0"))


@given(
    small_params,
    st.text(alphabet="01", min_size=1, max_size=8),
    st.text(alphabet="01", min_size=1, max_size=8),
)
def test_membership_agrees_with_enumeration(params, sx, sy):
    x, y = Bits(sx), Bits(sy[: len(sx)].ljust(len(sx), "0"))
    assert output_membership(params, x, y) == (y in enumerate_outputs(params, x))


@given(small_params, st.text(alphabet="01", min_size=1, max_size=10))
def test_deterministic_trace_is_always_possible(params, s):
    x = Bits(s)
    assert output_membership(params, x, x)
    assert x in possible_outputs(params, x)


@pytest.mark.parametrize(
    "k1, k2, a, b, expected",
    [
        (2, 1, "00", "11", False),
        (2, 1, "00", "01", True),
        (1, 2, "0110", "0000", True),
    ],
)
def test_confusable_examples(k1, k2, a, b, expected):
    assert confusable_dp(ChannelParams(k1, k2), Bits(a), Bits(b)) is expected


def test_confusable_length_mismatch():
    with pytest.raises(ValueError):
        confusable_dp(ChannelParams(2, 1), Bits("01"), Bits("0"))


@given(
    small_params,
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_confusable_dp_matches_brute_force(params, n, data):
    a = Bits(data.draw(st.text(alphabet="01", min_size=n, max_size=n)))
    b = Bits(data.draw(st.text(alphabet="01", min_size=n, max_size=n)))
    assert confusable_dp(params, a, b) == brute_confusable(params, a, b)


def test_first_symbol_always_separates():
    # y_1 = x_1 is forced, so inputs differing at position 1 never share outputs
    params = ChannelParams(4, 4)
    for a, b in combinations(all_sequences(5), 2):
        if a.at(1) != b.at(1):
            assert not confusable_dp(params, a, b)


@pytest.mark.parametrize(
    "k1, k2, expected_edges",
    [
        (1, 1, []),
        (2, 1, [(0, 1), (2, 3)]),
        (1, 2, [(0, 1), (2, 3)]),
    ],
)
def test_build_graph_n2_examples(k1, k2, expected_edges):
    rows = build_graph(ChannelParams(k1, k2), 2).rows
    assert [(i, j) for i, j in combinations(range(4), 2) if rows[i] >> j & 1] == expected_edges


def test_build_graph_cap_and_env_independence(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("the walk started past the cap")

    monkeypatch.setenv("ZECAP_MAX_N", "20")
    monkeypatch.setattr("zecap.confusability.confusable_rows", no_walk)
    assert GRAPH_CAP == 16
    with pytest.raises(CapExceededError, match=f"exceeds cap {GRAPH_CAP}"):
        build_graph(ChannelParams(2, 1), GRAPH_CAP + 1)


@pytest.mark.parametrize(
    "k1, k2, n, edges",
    [(2, 5, 11, 707014), (3, 5, 12, 891502), (1, 5, 12, 96352), (4, 6, 12, 220796)],
)
def test_graph_edge_counts_at_the_benchmark_points(k1, k2, n, edges):
    # the reference counts the benchmark's search workloads gate on
    assert build_graph(ChannelParams(k1, k2), n).edge_count() == edges


def test_graph_matches_pairwise_dp():
    for params in (ChannelParams(k1, k2) for k1 in range(1, 6) for k2 in range(1, 6)):
        graph = build_graph(params, 6)
        seqs = list(all_sequences(6))
        for i, j in combinations(range(len(seqs)), 2):
            assert graph.rows[i] >> j & 1 == confusable_dp(params, seqs[i], seqs[j])


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=7, max_value=9),
    st.data(),
)
def test_graph_matches_pairwise_dp_on_sampled_pairs(k1, k2, n, data):
    # n >= k1 + k2 saturates both run caps, where the walk merges b-prefixes
    params = ChannelParams(k1, k2)
    graph = build_graph(params, n)
    index = st.integers(min_value=0, max_value=(1 << n) - 1)
    # uniform pairs are rarely confusable; flipping a few bits finds the border
    flips = st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=3)
    for _ in range(20):
        i = data.draw(index)
        j = i
        for bit in data.draw(flips):
            j ^= 1 << bit
        a, b = Bits.from_index(i, n), Bits.from_index(j, n)
        assert graph.rows[i] >> j & 1 == (i != j and confusable_dp(params, a, b))


def assert_rows_match_pairwise_dp(params, n, labels):
    ranked = [Bits.from_index(label, n) for label in sorted(labels)]
    # the walk takes the words unsorted and ranks them itself
    rows = list(confusable_rows(params, n, [format(label, f"0{n}b") for label in labels]))
    assert len(rows) == len(labels)
    for r, (word, row) in enumerate(zip(ranked, rows)):
        # a repeated label is one word, so its copies share every output with it
        partners = (
            s for s, other in enumerate(ranked) if s != r and confusable_dp(params, word, other)
        )
        assert row == sum(1 << s for s in partners)


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=9),
    st.data(),
)
def test_rows_of_a_word_set_match_pairwise_dp(k1, k2, n, data):
    labels = data.draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=16))
    assert_rows_match_pairwise_dp(ChannelParams(k1, k2), n, labels)


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=10, max_value=14),
    st.data(),
)
def test_rows_of_a_sparse_word_set_match_pairwise_dp(k1, k2, n, data):
    # few words over many labels part well above the suffix depth, where
    # the walk yields a parted word's empty row without going further down
    labels = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12))
    # uniform words are rarely confusable; a few flipped bits find the border
    for _ in range(data.draw(st.integers(0, 12))):
        label = data.draw(st.sampled_from(labels))
        for bit in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
            label ^= 1 << bit
        labels.append(label)
    assert_rows_match_pairwise_dp(ChannelParams(k1, k2), n, labels)


def test_rows_of_a_repeated_word_next_to_a_parted_word():
    # the copies share every trie node, so neither is ever a node of its own;
    # the third word parts from both at the first symbol
    params = ChannelParams(2, 4)
    assert list(confusable_rows(params, 8, ["00100000", "11111111", "00100000"])) == [2, 1, 0]


def test_rows_of_words_that_part_only_in_the_suffix():
    # the words split at depth 1 but their prefixes still share an output at
    # the suffix depth, so the walk must not stop early and the suffix
    # table decides: apart after 100, confusable after 000
    params, n = ChannelParams(2, 4), 8
    a, b, c = "00100000", "01101100", "01101000"
    depth = n - SUFFIX
    for other in (b, c):
        assert confusable_dp(params, Bits(a[:depth]), Bits(other[:depth]))
    assert not confusable_dp(params, Bits(a), Bits(b))
    assert confusable_dp(params, Bits(a), Bits(c))
    assert list(confusable_rows(params, n, [a, b])) == [0, 0]
    assert list(confusable_rows(params, n, [a, c])) == [2, 1]


@pytest.mark.parametrize(
    "n, words, rows",
    [
        (1, ["1"], [0]),
        (1, ["1", "0"], [0, 0]),
        (1, ["1", "1"], [2, 1]),
        (2, ["01"], [0]),
        (2, ["11", "10", "01", "00"], [2, 1, 8, 4]),
        (2, ["01", "01", "10"], [2, 1, 0]),
        # rows from confusable_dp, a repeat confusable with its copy
        (3, ["011", "110", "010", "101", "000"], [6, 5, 3, 16, 8]),
        (4, ["0110", "0101", "1010", "0100", "1001", "0010", "0110"], [30, 29, 27, 23, 15, 64, 32]),
    ],
)
def test_rows_when_the_root_is_at_the_suffix_depth(n, words, rows):
    assert list(confusable_rows(ChannelParams(2, 2), n, words)) == rows


@pytest.mark.parametrize(
    "k1, k2, n, digest",
    [
        (2, 5, 11, "f62126b366ff91d4621503d66bce9cedbaace218425ddab46ab135e4e25f1e2c"),
        (3, 5, 12, "430684f8c43606bbf480a4fb4de542dda9bdf5e9de76b0c049d1def9dbbe2889"),
        (1, 5, 12, "c8e7176393799357ea9c35e4140b1958c35366c6857257f3731b236f75cf13a0"),
        (4, 6, 12, "a558a7278b2a92e16e3cbb69344b635bf237e8f80c30410b37e1945bc7a1320e"),
        (3, 7, 14, "10dfa316059cd494e7b681a9523207e4354f229ef7eeb05ed19c6e3d01bb3b09"),
    ],
)
def test_half_rows_match_pinned_digests(k1, k2, n, digest):
    # sha256 of the 0-half rows in order, each as 2^(n-1) bits little-endian,
    # taken from the walk that finished rows at SUFFIX = 3
    hashed = sha256()
    for row in half_rows(ChannelParams(k1, k2), n):
        hashed.update(row.to_bytes(1 << (n - 4), "little"))
    assert hashed.hexdigest() == digest


def test_suffix_sets_match_a_walk_of_the_joint_steps():
    # the suffix table against the joint moves applied one symbol at a time
    for k1 in range(1, 5):
        for k2 in range(1, 5):
            steps_in, moves = run_steps(k1), _joint_steps(k1, k2)
            joints = len(steps_in) * len(run_steps(k2))
            for length in range(SUFFIX + 1):
                table = _suffix_sets(k1, k2, length)
                for a_state, sigma, joint in product(
                    range(len(steps_in)), product("01", repeat=length), range(joints)
                ):
                    expected = 0
                    for beta in range(1 << length):
                        state, alive = a_state, {joint}
                        for depth, symbol in zip(reversed(range(length)), sigma):
                            s_a, s_b = int(symbol), beta >> depth & 1
                            step = moves[2 * state + s_a]
                            state = steps_in[state][s_a][0]
                            alive = {key for j in alive for key in step[2 * j + s_b]}
                        expected |= bool(alive) << beta
                    assert table[a_state]["".join(sigma)][joint] == expected


def test_mirrored_graph_matches_the_full_walk():
    # build_graph walks only the words starting with 0, reads n from the
    # 2^(n-1) rows of that half (one at n = 1, two at n = 2) and mirrors the
    # rest by complement, at every n
    for k1 in range(1, 6):
        for k2 in range(1, 6):
            params = ChannelParams(k1, k2)
            for n in range(1, 10):
                full = tuple(confusable_rows(params, n, map(str, all_sequences(n))))
                graph = build_graph(params, n)
                assert graph.n == n
                assert graph.rows == full
    # the top bit of a 0-half row is its last word, the edge 0-3 mirrors to
    # 4-7, and n = 1 has one row
    graph = ConfusabilityGraph(ChannelParams(1, 1), (1 << 3, 0, 0, 1))
    assert graph.rows == (1 << 3, 0, 0, 1, 1 << 7, 0, 0, 1 << 4)
    assert graph.edge_count() == 2
    graph = ConfusabilityGraph(ChannelParams(1, 1), (0,))
    assert graph.rows == (0, 0)
    assert graph.edge_count() == 0


def test_half_rows_reach_no_word_that_starts_with_1():
    # no output differs from the input at t = 1, so no row of a word that
    # starts with 0 sets the bit of label 2^(n-1), the first word starting
    # with 1, or any bit past it
    for k1 in range(1, 7):
        for k2 in range(1, 7):
            for n in range(1, 11):
                first_one = 1 << (1 << (n - 1))
                rows = tuple(half_rows(ChannelParams(k1, k2), n))
                assert len(rows) == 1 << (n - 1), (k1, k2, n)
                assert all(0 <= row < first_one for row in rows), (k1, k2, n)


def test_graph_symmetric_and_irreflexive():
    rows = build_graph(ChannelParams(2, 2), 5).rows
    for i, row in enumerate(rows):
        assert not row >> i & 1
        for j in range(len(rows)):
            if row >> j & 1:
                assert rows[j] >> i & 1


def test_graph_value_identical_across_runs():
    a = build_graph(ChannelParams(3, 2), 5)
    b = build_graph(ChannelParams(3, 2), 5)
    assert a == b


def test_graph_equality_ignores_the_rows_read():
    # `rows` is cached on first read; equality and hash stay on the 0-half
    a = build_graph(ChannelParams(2, 6), 7)
    b = build_graph(ChannelParams(2, 6), 7)
    assert len(a.rows) == 128
    assert a == b
    assert hash(a) == hash(b)
    assert {a, b} == {b}


@pytest.mark.parametrize("k1, k2, n", [(2, 5, 11), (3, 5, 12), (1, 5, 12), (4, 6, 12)])
def test_edge_count_matches_the_full_rows(k1, k2, n):
    # the benchmark's search points
    graph = build_graph(ChannelParams(k1, k2), n)
    assert graph.edge_count() == sum(row.bit_count() for row in graph.rows) // 2
    # each edge once, from its lower end
    assert graph.edge_count() == sum(
        (row >> (i + 1)).bit_count() for i, row in enumerate(graph.rows)
    )


@pytest.mark.parametrize("k1, k2", [(2, 2), (3, 2), (2, 4), (4, 3)])
def test_graph_dominates_single_memory_marginals(k1, k2):
    n = 5
    joint = build_graph(ChannelParams(k1, k2), n)
    input_only = build_graph(ChannelParams(k1, 1), n)
    output_only = build_graph(ChannelParams(1, k2), n)
    for i in range(1 << n):
        marginal = input_only.rows[i] | output_only.rows[i]
        assert marginal & ~joint.rows[i] == 0


@pytest.mark.parametrize("k1, k2", [(4, 4), (5, 4), (4, 6)])
def test_short_run_inputs_have_singleton_outputs(k1, k2):
    params = ChannelParams(k1, k2)
    bound = min(k1, k2) - 1
    for x in all_sequences(6):
        if not contains_run(x, bound):
            assert possible_outputs(params, x) == frozenset({x})


def test_adjacency_lines_format():
    lines = _adjacency_lines(tuple(half_rows(ChannelParams(2, 1), 2)))
    assert list(lines) == ["0: 1\n", "1: 0\n", "2: 3\n", "3: 2\n"]
    # an isolated vertex is its label and a colon
    lines = _adjacency_lines(tuple(half_rows(ChannelParams(1, 1), 1)))
    assert list(lines) == ["0:\n", "1:\n"]


@pytest.mark.parametrize("n", [0, -1])
def test_half_rows_refuses_a_block_length_below_one(n):
    with pytest.raises(ValueError, match="block length must be >= 1"):
        half_rows(ChannelParams(2, 2), n)
