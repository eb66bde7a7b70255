from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zecap import Bits, ChannelParams, condition_a, condition_b, step_outputs, transition_prob
from zecap.channel import channel_steps

prefix_pairs = st.integers(min_value=1, max_value=10).flatmap(
    lambda t: st.tuples(
        st.text(alphabet="01", min_size=t, max_size=t),
        st.text(alphabet="01", min_size=t - 1, max_size=t - 1),
    )
)
params_strategy = st.tuples(
    st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5)
).map(lambda p: ChannelParams(*p))


def test_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(0, 1)
    with pytest.raises(ValueError):
        ChannelParams(1, 0)


@pytest.mark.parametrize(
    "k1, k2, x, t, expected",
    [
        (2, 1, "01", 2, True),
        (3, 1, "001", 3, True),
        (1, 2, "0101", 3, False),
        (2, 1, "00", 2, False),
        (3, 1, "011", 3, False),
    ],
)
def test_condition_a_examples(k1, k2, x, t, expected):
    assert condition_a(ChannelParams(k1, k2), Bits(x), t) is expected


def test_condition_a_index_errors():
    with pytest.raises(ValueError):
        condition_a(ChannelParams(2, 1), Bits("01"), 3)


@pytest.mark.parametrize(
    "k1, k2, x_t, y_prefix, t, expected",
    [
        (1, 3, 1, "00", 3, True),
        (1, 2, 1, "0", 2, True),
        (2, 1, 1, "0", 2, False),
        (1, 3, 1, "01", 3, False),
    ],
)
def test_condition_b_examples(k1, k2, x_t, y_prefix, t, expected):
    assert condition_b(ChannelParams(k1, k2), x_t, Bits(y_prefix), t) is expected


def test_condition_b_length_mismatch():
    with pytest.raises(ValueError):
        condition_b(ChannelParams(1, 2), 1, Bits("00"), 2)


@pytest.mark.parametrize(
    "k1, k2, x_prefix, y_prefix, expected",
    [
        (2, 1, "01", "0", {0, 1}),
        (1, 1, "1", "", {1}),
        (1, 2, "01", "0", {0, 1}),
        (2, 1, "00", "0", {0}),
    ],
)
def test_step_outputs_examples(k1, k2, x_prefix, y_prefix, expected):
    got = step_outputs(ChannelParams(k1, k2), Bits(x_prefix), Bits(y_prefix))
    assert got == frozenset(expected)


def test_transition_prob_examples():
    assert transition_prob(ChannelParams(2, 1), Bits("01"), Bits("0"), 0) == Fraction(1, 2)
    assert transition_prob(ChannelParams(1, 1), Bits("1"), Bits(""), 1) == Fraction(1)
    assert transition_prob(ChannelParams(1, 1), Bits("1"), Bits(""), 0) == Fraction(0)


@given(params_strategy, prefix_pairs)
def test_probabilities_sum_to_one(params, prefixes):
    x_prefix, y_prefix = Bits(prefixes[0]), Bits(prefixes[1])
    total = sum(transition_prob(params, x_prefix, y_prefix, y) for y in (0, 1))
    assert total == Fraction(1)


@given(params_strategy, prefix_pairs)
def test_support_matches_step_outputs(params, prefixes):
    x_prefix, y_prefix = Bits(prefixes[0]), Bits(prefixes[1])
    support = {y for y in (0, 1) if transition_prob(params, x_prefix, y_prefix, y) > 0}
    assert support == set(step_outputs(params, x_prefix, y_prefix))


@given(prefix_pairs)
def test_no_memory_is_noiseless(prefixes):
    x_prefix, y_prefix = Bits(prefixes[0]), Bits(prefixes[1])
    params = ChannelParams(1, 1)
    assert step_outputs(params, x_prefix, y_prefix) == frozenset({x_prefix.at(len(x_prefix))})


def test_simultaneous_conditions_still_fair_coin():
    # input 001 under (3, 2): at t=3 both run breaks fire at once
    params = ChannelParams(3, 2)
    x_prefix, y_prefix = Bits("001"), Bits("00")
    assert condition_a(params, x_prefix, 3)
    assert condition_b(params, 1, y_prefix, 3)
    assert transition_prob(params, x_prefix, y_prefix, 0) == Fraction(1, 2)
    assert transition_prob(params, x_prefix, y_prefix, 1) == Fraction(1, 2)


def test_channel_steps_match_the_spec():
    # every (x, y) history of length <= 6 the table reaches allows exactly
    # the next outputs that step_outputs allows
    for k1 in range(1, 6):
        for k2 in range(1, 6):
            params, table = ChannelParams(k1, k2), channel_steps(k1, k2)
            stack = [(0, "", "")]
            while stack:
                state, x, y = stack.pop()
                if len(x) == 6:
                    continue
                for x_t in (0, 1):
                    moves = {y_t: table[state][2 * x_t + y_t] for y_t in (0, 1)}
                    allowed = {y_t for y_t, nxt in moves.items() if nxt is not None}
                    assert allowed == step_outputs(params, Bits(x + str(x_t)), Bits(y))
                    stack.extend((moves[y_t], x + str(x_t), y + str(y_t)) for y_t in allowed)


def test_first_output_always_equals_the_first_input():
    # no history yet, so neither run break fires at t = 1: a word that
    # starts with 0 shares no output with one that starts with 1, the split
    # of the confusability graph that the code search rests on
    for k1 in range(1, 9):
        for k2 in range(1, 9):
            start = channel_steps(k1, k2)[0]
            for x in (0, 1):
                assert start[x + 1] is None, (k1, k2, x)
                assert start[3 * x] is not None, (k1, k2, x)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda params: condition_b(params, 2, Bits(""), 1),
            "input symbol must be 0 or 1",
            id="condition_b-x_t=2",
        ),
        pytest.param(
            lambda params: step_outputs(params, Bits(""), Bits("")),
            "input prefix must be nonempty",
            id="step_outputs-empty-input",
        ),
        pytest.param(
            lambda params: step_outputs(params, Bits("01"), Bits("")),
            "output prefix must have length 1, got 0",
            id="step_outputs-short-output",
        ),
        pytest.param(
            lambda params: transition_prob(params, Bits("0"), Bits(""), 2),
            "output symbol must be 0 or 1",
            id="transition_prob-y_t=2",
        ),
    ],
)
def test_channel_spec_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call(ChannelParams(2, 2))
