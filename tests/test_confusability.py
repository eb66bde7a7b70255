from itertools import combinations

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
    with pytest.raises(CapExceededError):
        possible_outputs(ChannelParams(2, 1), Bits("0101"), max_n=3)


@given(small_params, st.text(alphabet="01", min_size=1, max_size=7))
def test_possible_outputs_match_transition_scan(params, s):
    x = Bits(s)
    assert possible_outputs(params, x).members == enumerate_outputs(params, x)


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
    graph = build_graph(ChannelParams(k1, k2), 2)
    assert list(graph.edges()) == expected_edges


def test_build_graph_cap_and_env_independence():
    with pytest.raises(CapExceededError):
        build_graph(ChannelParams(2, 1), 5, max_n=4)


def test_graph_matches_pairwise_dp():
    for params in (ChannelParams(k1, k2) for k1 in range(1, 6) for k2 in range(1, 6)):
        graph = build_graph(params, 6)
        seqs = list(all_sequences(6))
        for i, j in combinations(range(len(seqs)), 2):
            assert graph.has_edge(i, j) == confusable_dp(params, seqs[i], seqs[j])


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
    index = st.integers(min_value=0, max_value=graph.vertex_count - 1)
    # uniform pairs are rarely confusable; flipping a few bits finds the border
    flips = st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=3)
    for _ in range(20):
        i = data.draw(index)
        j = i
        for bit in data.draw(flips):
            j ^= 1 << bit
        expected = i != j and confusable_dp(params, graph.sequence(i), graph.sequence(j))
        assert graph.has_edge(i, j) == expected


def test_graph_symmetric_and_irreflexive():
    graph = build_graph(ChannelParams(2, 2), 5)
    for i in range(graph.vertex_count):
        assert not graph.has_edge(i, i)
        for j in graph.neighbors(i):
            assert graph.has_edge(j, i)


def test_graph_value_identical_across_runs():
    a = build_graph(ChannelParams(3, 2), 5)
    b = build_graph(ChannelParams(3, 2), 5)
    assert a == b


@pytest.mark.parametrize("k1, k2", [(2, 2), (3, 2), (2, 4), (4, 3)])
def test_graph_dominates_single_memory_marginals(k1, k2):
    n = 5
    joint = build_graph(ChannelParams(k1, k2), n)
    input_only = build_graph(ChannelParams(k1, 1), n)
    output_only = build_graph(ChannelParams(1, k2), n)
    for i in range(joint.vertex_count):
        marginal = input_only.rows[i] | output_only.rows[i]
        assert marginal & ~joint.rows[i] == 0


@pytest.mark.parametrize("k1, k2", [(4, 4), (5, 4), (4, 6)])
def test_short_run_inputs_have_singleton_outputs(k1, k2):
    params = ChannelParams(k1, k2)
    bound = min(k1, k2) - 1
    for x in all_sequences(6):
        if not contains_run(x, bound):
            assert possible_outputs(params, x).members == frozenset({x})


def test_adjacency_text_format():
    graph = build_graph(ChannelParams(2, 1), 2)
    assert graph.adjacency_text() == "0: 1\n1: 0\n2: 3\n3: 2\n"
