import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zecap import (
    Bits,
    CapExceededError,
    ChannelParams,
    all_sequences,
    condition_a,
    condition_b,
    contains_run,
)
from zecap.sequences import ENUMERATION_CAP, run_steps, symbols

bit_strings = st.text(alphabet="01", max_size=24)


def test_construction_and_rendering():
    x = Bits("0101")
    assert str(x) == "0101"
    assert len(x) == 4
    assert list(symbols(x)) == [0, 1, 0, 1]


def test_rejects_non_binary():
    with pytest.raises(ValueError):
        Bits("012")


def test_index_round_trip():
    for i in range(16):
        assert Bits.from_index(i, 4).to_index() == i


def test_ordering_matches_index_order():
    seqs = list(all_sequences(4))
    assert seqs == sorted(seqs)
    assert [s.to_index() for s in seqs] == list(range(16))


@pytest.mark.parametrize(
    "s, run_length, expected",
    [
        ("010", 2, False),
        ("0011", 2, True),
        ("0001", 3, True),
        ("", 1, False),
        ("0", 2, False),
    ],
)
def test_contains_run_examples(s, run_length, expected):
    assert contains_run(Bits(s), run_length) is expected


@given(bit_strings)
def test_contains_run_1_iff_nonempty(s):
    assert contains_run(Bits(s), 1) == bool(s)


@given(bit_strings, st.integers(min_value=1, max_value=8))
def test_contains_run_equals_pattern_search(s, run_length):
    expected = "0" * run_length in s or "1" * run_length in s
    assert contains_run(Bits(s), run_length) == expected


@pytest.mark.parametrize("n", [0, 1, 3])
def test_all_sequences_complete_and_ordered(n):
    seqs = list(all_sequences(n))
    assert len(seqs) == 2**n
    assert len(set(seqs)) == 2**n
    if n:
        assert str(seqs[0]) == "0" * n
        assert str(seqs[-1]) == "1" * n


def test_all_sequences_cap():
    with pytest.raises(CapExceededError, match=f"exceeds cap {ENUMERATION_CAP}"):
        next(all_sequences(ENUMERATION_CAP + 1))
    assert len(next(all_sequences(ENUMERATION_CAP))) == ENUMERATION_CAP


def test_concatenation():
    assert str(Bits("01") + Bits("10")) == "0110"


@pytest.mark.parametrize("span", range(1, 7))
def test_run_steps_break_flags_match_the_channel_conditions(span):
    # walking every length-9 word steps through every word of length <= 9
    steps = run_steps(span)
    as_input, as_output = ChannelParams(span, 1), ChannelParams(1, span)
    for word in all_sequences(9):
        state = 0
        for t, sym in enumerate(symbols(word), start=1):
            state, breaks = steps[state][sym]
            assert breaks == condition_a(as_input, word, t), (str(word), t)
            assert breaks == condition_b(as_output, sym, Bits(word[: t - 1]), t), (str(word), t)
    assert len(steps) == 1 + 2 * max(span - 1, 1)


def test_bits_is_a_checked_str():
    x = Bits("01")
    assert isinstance(x, str)
    assert x == "01" and hash(x) == hash("01")
    assert x[0] == "0" and x[1:] == "1"
    assert Bits(x) == x
    with pytest.raises(ValueError, match="symbols must be 0 or 1, got '012'"):
        Bits("012")


def test_bits_operations_stay_bits():
    assert list(symbols(Bits("0110"))) == [0, 1, 1, 0]
    # iteration is the string's
    assert list(Bits("0110")) == ["0", "1", "1", "0"]
    assert repr(Bits("01")) == "Bits('01')"
    # + is the string's: the joined word is a plain str, checked again as Bits(...)
    joined = Bits("01") + "10"
    assert joined == "0110" and type(joined) is str


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_bits_pickle_round_trip(protocol):
    x = Bits("0110")
    copy = pickle.loads(pickle.dumps(x, protocol))
    assert copy == x
    assert type(copy) is Bits


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: Bits.from_index(0, -1), "length must be", id="from_index(0,-1)"),
        pytest.param(lambda: Bits.from_index(16, 4), "index 16 out of", id="from_index(16,4)"),
        pytest.param(lambda: contains_run(Bits("01"), 0), "run length", id="contains_run(x,0)"),
        pytest.param(lambda: next(all_sequences(-1)), "length must be", id="all_sequences(-1)"),
    ],
)
def test_sequence_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
