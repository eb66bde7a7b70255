"""Possible-output sets, pairwise distinguishability, and the confusability graph.

Every path here reads the channel law through one cached table,
`channel.channel_steps`: the only history the law can see is the last
symbol and its trailing run, capped at span-1, once along the input (k1)
and once along the output (k2). A table state encodes that pair as a small
int, and the table says which outputs it allows and where each one leads.

Distinguishability of two inputs is decided by a joint forward DP instead of
materializing both output sets. The DP tracks the set of reachable output run
states; the pair is confusable iff a state survives to the final step.
confusable_dp runs it for one pair and stays as the reference; the
exhaustive output-set enumerator `tests/oracles.enumerate_outputs` is the
slow one for tests.

confusable_rows runs the same DP bit-parallel over a set of words, given as
'0'/'1' strings, for the graph (all length-n words) and code verification
alike: one walk of the set's trie, as input a, carries per joint state (b
input run state, output run state) the union bitmask of the ranks of the
words b whose prefix reaches it; appending a symbol to b ANDs that mask
with the ranks having that symbol at that depth. Those column masks come
from one join of the words, highest rank first, sliced every n symbols from
each depth and read as binary; a trie node splits after as many ranks as
its slice of the 0-column has set bits. A joint state is b's
`channel_steps` state. The walk reads a cached joint table built from
`channel_steps`, mapping (a's input run state and symbol, joint state, b's
symbol) straight to the next joint states; a's own input run state moves by
`sequences.run_steps`.

The walk stops SUFFIX symbols short of the leaves. A cached suffix table, a
DP over suffix length on the joint table, gives for a's state, a's last
SUFFIX symbols and a joint state the set of b-suffixes that can still share
an output from there. Each word's row is then finished at once: each of its
node's masks is ANDed with the union of the ranks whose last SUFFIX symbols
fall in the set that the word's own last SUFFIX symbols read off for that
joint state. The ranks per b-suffix are doubled out of the last SUFFIX
columns when the walk first reaches that depth, and a set's union is ORed
over its bits alone when the call first reads it: a dozen to a few hundred
sets at SUFFIX = 4. A word that has parted from every other word stops
sooner: masks only shrink going down (a parent's, ANDed with a column, then
ORed over moves) and b = a keeps the word's own bit in them, so a node
holding one word whose masks OR to that bit alone yields an empty row.

No output differs from the input at t = 1, so no word that starts with 0
is confusable with one that starts with 1: half_rows feeds confusable_rows
the words that start with 0 alone, each ranked at its label, and its rows
are the first half of the graph, all that `codesearch.search` reads.
Complementing x and y together keeps the channel law, so the row of word
N-1-i is the row of word i read backwards over N bits: row i as an N-bit
string, read from its top bit, lists the neighbours of N-1-i, and `zecap
graph` prints that half so, unmirrored. A ConfusabilityGraph is given by its
0-half alone: build_graph stores half_rows as it is, and the other half is
made byte by byte with `mirror` only when `rows` is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import product
from operator import or_
from collections.abc import Iterable, Iterator

from .channel import ChannelParams, channel_steps
from .errors import CapExceededError
from .sequences import Bits, run_steps

OUTPUT_CAP = 1 << 18
GRAPH_CAP = 16  # the graph route's whole reach
# symbols each confusability row is finished with from `_suffix_sets`
SUFFIX = 4


def possible_outputs(params: ChannelParams, x: Bits) -> frozenset[Bits]:
    """All outputs with positive probability, extended one step at a time.

    Output sets can be exponential in len(x); a step from more than
    OUTPUT_CAP prefixes is refused. The first output symbol never
    branches, so every x of length <= 20 is admitted.
    """
    table = channel_steps(params.k1, params.k2)
    level = [(0, "")]  # (channel state, output prefix) per reachable prefix
    for x_t in x:
        if len(level) > OUTPUT_CAP:
            raise CapExceededError(f"{len(level)} output prefixes exceed cap {OUTPUT_CAP}")
        level = [
            (state, y + "01"[y_t])
            for at, y in level
            for y_t in (0, 1)
            if (state := table[at][2 * x_t + y_t]) is not None
        ]
    return frozenset(Bits(y) for _, y in level)


def output_membership(params: ChannelParams, x: Bits, y: Bits) -> bool:
    """True iff y is a possible output for input x. Linear scan, no enumeration."""
    if len(x) != len(y):
        raise ValueError("input and output must have equal length")
    table = channel_steps(params.k1, params.k2)
    state = 0
    for x_t, y_t in zip(x, y):
        state = table[state][2 * x_t + y_t]
        if state is None:
            return False
    return True


def confusable_dp(params: ChannelParams, x: Bits, x_other: Bits) -> bool:
    """Decide whether two equal-length inputs share a possible output.

    Forward reachability over the pairs of channel states that one shared
    output prefix reaches; cost O(n * k2).
    """
    if len(x) != len(x_other):
        raise ValueError("inputs must have equal length")
    table = channel_steps(params.k1, params.k2)
    states = {(0, 0)}
    for s_a, s_b in zip(x, x_other):
        states = {
            (a_next, b_next)
            for a, b in states
            for y in (0, 1)
            if (a_next := table[a][2 * s_a + y]) is not None
            and (b_next := table[b][2 * s_b + y]) is not None
        }
        if not states:
            return False
    return True


@dataclass(frozen=True)
class ConfusabilityGraph:
    """Graph over all length-n inputs; edges join non-distinguishable pairs.

    Vertex i is the i-th sequence in lexicographic order; adjacency is one
    bit vector per vertex. The graph is given by its 0-half, the rows of the
    2^(n-1) words that start with 0, none reaching a word that starts with
    1; row N-1-i is `mirror(rows[i], n)` (the module docstring says why).
    Value-identical across runs.
    """

    params: ChannelParams
    n: int
    half: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("block length must be >= 1")
        count = 1 << (self.n - 1)
        if len(self.half) != count:
            raise ValueError(f"the 0-half at n={self.n} has {count} rows, got {len(self.half)}")
        if any(row < 0 or row.bit_length() > count for row in self.half):
            raise ValueError("a 0-half row reaches a word that starts with 1")

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """Every vertex's row: the 0-half, then its mirror."""
        return (*self.half, *(mirror(row, self.n) for row in reversed(self.half)))

    def edge_count(self) -> int:
        # each half holds its own edges, counted twice, and the halves match
        return sum(row.bit_count() for row in self.half)


@cache
def _joint_steps(k1: int, k2: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The joint (b run state, y run state) moves, read off `channel_steps`.

    A joint state is b's `channel_steps` state, and a's state is a_state
    with the same output run state. The entry
    table[2 * a_state + s_a][2 * joint + s_b] holds the joint states after
    a reads s_a and b reads s_b: one per output symbol both words allow.
    """
    table = channel_steps(k1, k2)
    y_states = len(run_steps(k2))
    return tuple(
        tuple(
            tuple(
                b_next
                for y in (0, 1)
                if table[a_state * y_states + joint % y_states][2 * s_a + y] is not None
                and (b_next := table[joint][2 * s_b + y]) is not None
            )
            for joint in range(len(table))
            for s_b in (0, 1)
        )
        for a_state in range(len(run_steps(k1)))
        for s_a in (0, 1)
    )


@cache
def _suffix_sets(k1: int, k2: int, length: int) -> tuple[dict[str, tuple[int, ...]], ...]:
    """Which b-suffixes can still share an output with a given a-suffix.

    table[a_state][sigma][joint] is the bitmask, over the `length`-symbol
    b-suffixes beta read as labels, of those for which some output survives
    when a reads sigma, a '0'/'1' string, from a_state while b reads beta
    from the joint state (b run state, y run state). Built by a DP over the
    suffix length, sigma read as a label: the first symbol of sigma and of
    beta moves both by `_joint_steps`, the rest is looked up one length
    shorter.
    """
    steps_in = run_steps(k1)
    moves = _joint_steps(k1, k2)
    joints = range(len(channel_steps(k1, k2)))
    # length 0: the empty b-suffix survives from every joint state
    table = [((1,) * len(joints),)] * len(steps_in)
    for done in range(length):
        shorter, table = table, []
        for a_state in range(len(steps_in)):
            by_sigma = []
            for sigma in range(2 << done):
                s_a = sigma >> done
                a_next = steps_in[a_state][s_a][0]
                reach = shorter[a_next][sigma ^ s_a << done]  # sigma past its first symbol
                step = moves[2 * a_state + s_a]
                kinds = []
                for joint in joints:
                    kind = 0
                    for s_b in (0, 1):
                        for key in step[2 * joint + s_b]:
                            kind |= reach[key] << (s_b << done)
                    kinds.append(kind)
                by_sigma.append(tuple(kinds))
            table.append(tuple(by_sigma))
    tails = ["".join(tail) for tail in product("01", repeat=length)]
    return tuple(dict(zip(tails, by_sigma)) for by_sigma in table)


def confusable_rows(params: ChannelParams, n: int, words: Iterable[str]) -> Iterator[int]:
    """Yield, in rank order, the rank bitmask of the words each word is confusable with.

    The words are length-n strings of '0' and '1', and rank r is the r-th
    smallest of them; a repeat is confusable with its copies, and a consumer
    may stop early. The caller checks the lengths: the columns are read by
    slicing the words joined end to end, so a word of another length shifts
    every later one. A trie node covers ranks [lo, hi), splits them at its
    0-column's popcount, and maps a joint (b run state, y run state) to a rank
    mask. A one-word node whose masks OR to its own bit (b = a keeps it) yields
    0 at once: masks only shrink below. The walk stops SUFFIX symbols above the
    leaves; there each mask ANDs the ranks ending in its `_suffix_sets` set of
    b-suffixes, ORed over the set's bits from per-suffix ranks made on arrival.
    """
    words = sorted(words)
    if not words:
        return
    steps_in = run_steps(params.k1)
    table = _joint_steps(params.k1, params.k2)
    length = min(SUFFIX, n)
    suffix_sets = _suffix_sets(params.k1, params.k2, length)
    full = (1 << len(words)) - 1
    # highest rank first, so that rank r is bit r of each column
    joined = "".join(reversed(words))
    # per depth, the ranks whose symbol there is 0 and those where it is 1
    columns = [(full ^ ones, ones) for ones in (int(joined[depth::n], 2) for depth in range(n))]
    by_suffix = None  # per b-suffix beta, the ranks ending in it, made when first needed
    # per set of b-suffixes, the ranks ending in one of them, made when first read
    unions = {0: 0}
    stack = [(0, 0, len(words), 0, {0: full})]
    while stack:
        depth, lo, hi, a_state, states = stack.pop()
        if hi - lo == 1 and reduce(or_, states.values()) == 1 << lo:
            yield 0  # the word has parted: no other rank is left below
            continue
        if depth == n - length:
            if by_suffix is None:
                by_suffix = [full]  # beta read as a label, its first symbol highest
                for column in columns[depth:]:
                    by_suffix = [mask & ranks for mask in by_suffix for ranks in column]
            kinds_of = suffix_sets[a_state]
            for rank in range(lo, hi):
                kinds = kinds_of[words[rank][depth:]]
                row = 0
                for joint, mask in states.items():
                    kind = kinds[joint]
                    union = unions.get(kind)
                    if union is None:
                        union, rest = 0, kind
                        while rest:
                            beta = rest.bit_length() - 1
                            union |= by_suffix[beta]
                            rest ^= 1 << beta
                        unions[kind] = union
                    row |= mask & union
                yield row & ~(1 << rank)
            continue
        zeros, ones = columns[depth]
        moves = []  # the b side does not depend on a's next symbol
        for joint, mask in states.items():
            if moved := mask & zeros:
                moves.append((2 * joint, moved))
            if moved := mask & ones:
                moves.append((2 * joint + 1, moved))
        # the ranks in [lo, hi) share their first `depth` symbols, so the 0s come first
        split = lo + (zeros >> lo & ~(-1 << (hi - lo))).bit_count()
        for s_a, child_lo, child_hi in ((1, split, hi), (0, lo, split)):
            if child_lo == child_hi:
                continue
            joint_steps = table[2 * a_state + s_a]
            nxt: dict[int, int] = {}
            for index, moved in moves:
                for key in joint_steps[index]:
                    nxt[key] = nxt.get(key, 0) | moved
            # b = a keeps the deterministic trace alive, so nxt is never empty
            stack.append((depth + 1, child_lo, child_hi, steps_in[a_state][s_a][0], nxt))


# each byte with its eight bits in reverse order
_REVERSED_BITS = bytes(int(f"{byte:08b}"[::-1], 2) for byte in range(256))


def mirror(mask: int, n: int) -> int:
    """A bitmask over the 2^n labels with bit i moved to bit 2^n-1-i, its complement."""
    if n < 3:  # under 8 labels: move them to the top of one byte
        return mirror(mask << 8 - (1 << n), 3)
    return int.from_bytes(mask.to_bytes(1 << (n - 3), "little").translate(_REVERSED_BITS), "big")


def half_rows(params: ChannelParams, n: int) -> Iterator[int]:
    """The rows of the 2^(n-1) words that start with 0, lazily; n is checked first."""
    if n < 1:
        raise ValueError("block length must be >= 1")
    if n > GRAPH_CAP:
        raise CapExceededError(f"graph over 2^{n} vertices exceeds cap {GRAPH_CAP}")
    spec = f"0{n}b"
    return confusable_rows(params, n, (format(i, spec) for i in range(1 << (n - 1))))


def build_graph(params: ChannelParams, n: int) -> ConfusabilityGraph:
    """The confusability graph over all length-n inputs, from its 0-half rows."""
    return ConfusabilityGraph(params, n, tuple(half_rows(params, n)))
