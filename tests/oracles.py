"""Brute-force reference implementations, deliberately independent of the
paths they check: output sets by scanning every candidate output through the
step transition probabilities, decoding by those output sets, code validity
by the pairwise DP over every pair of words, maximum independent sets by
subset enumeration, the forbidden-run family by filtering every sequence,
and the graph's adjacency text by reading each full row, mirrored half
included."""

from functools import cache

from zecap import (
    Bits,
    ChannelParams,
    Code,
    DecodeResult,
    all_sequences,
    confusable_dp,
    contains_run,
    transition_prob,
)


@cache
def enumerate_outputs(params: ChannelParams, x: Bits) -> frozenset[Bits]:
    """Every y whose stepwise transition probabilities are all positive (cached)."""
    n = len(x)
    members = []
    for y in all_sequences(n):
        if all(
            transition_prob(params, Bits(x[:t]), Bits(y[: t - 1]), y.at(t)) > 0
            for t in range(1, n + 1)
        ):
            members.append(y)
    return frozenset(members)


def decode_by_enumeration(params: ChannelParams, code: Code, y: Bits) -> DecodeResult:
    """decode's answer from each codeword's enumerated output set."""
    producers = [word for word in code.words if y in enumerate_outputs(params, word)]
    if not producers:
        return DecodeResult(status="none")
    if len(producers) > 1:
        return DecodeResult(status="ambiguous")
    return DecodeResult(status="ok", word=producers[0])


def brute_confusable(params: ChannelParams, a: Bits, b: Bits) -> bool:
    return not enumerate_outputs(params, a).isdisjoint(enumerate_outputs(params, b))


def pairwise_valid(params: ChannelParams, code: Code) -> bool:
    """True iff no two entries of code.words are confusable, one pair at a time."""
    words = code.words
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            if confusable_dp(params, words[i], words[j]):
                return False
    return True


def brute_mis_size(rows: list[int]) -> int:
    """Exact maximum independent set size over all vertex subsets (<= 16)."""
    count = len(rows)
    assert count <= 16, "subset enumeration oracle is for tiny graphs only"
    best = 0
    for mask in range(1 << count):
        independent = True
        probe = mask
        while probe:
            low = probe & -probe
            probe ^= low
            if rows[low.bit_length() - 1] & mask:
                independent = False
                break
        if independent and mask.bit_count() > best:
            best = mask.bit_count()
    return best


def forbidden_run_words(n: int, run_bound: int) -> list[Bits]:
    """Every length-n sequence with no run of run_bound equal symbols, in order."""
    return [x for x in all_sequences(n) if not contains_run(x, run_bound)]


def adjacency_lines(rows: tuple[int, ...]) -> list[str]:
    """`i: j1 j2 ...` per vertex, each read from its full (mirrored) row."""
    lines = []
    for i, row in enumerate(rows):
        bits = f"{row:b}"[::-1]  # bit j at index j
        neighbors = []
        j = bits.find("1")
        while j >= 0:
            neighbors.append(str(j))
            j = bits.find("1", j + 1)
        lines.append(f"{i}: {' '.join(neighbors)}\n" if neighbors else f"{i}:\n")
    return lines
