"""Zero-error code verification, exact optimal-code search, and code files.

An optimal code is a maximum independent set of the confusability graph.
The search is branch and reduce on the big-int rows of the words that
start with 0, the 0-half (see `confusability` for why that half decides
the whole graph); its best set plus that set's mirror is the optimum.
Its two reduction rules preserve the exact optimum: a vertex with no
neighbour left is always taken, and when N[u] is a subset of N[v] the
vertex v is dropped, since any code using v can swap v for u (the graph
form of the codeword-replacement rule). The vertices u dominates are the
intersection of N[w] over w in N[u], so the rule ANDs those closed rows,
stops once only u is left, and drops the rest at once. One reduction of
the 0-half leaves a kernel; it sweeps the vertices by ascending degree,
since a low-degree u dominates the most and removing its neighbours early
shrinks every later step. Each connected component of the kernel is then
solved on its own, reducing again, in label order, at every search node,
and branching on the candidate with the most neighbours among the
candidates (ties to the lowest label), whose inclusion removes the most
candidates. One deadline covers every phase. search(params, n) reads the
0-half rows from `half_rows`; optimal_code reads the same 0-half, which
build_graph stores in a ConfusabilityGraph.

verify_code reads confusable_rows over the code's words as Code holds
them, Bits of length n and ascending, and stops at the first conflict.
The walk leaves a word once it has parted from every other word, so its
cost follows the depth at which the code's words part, not n. A code
whose words, repeats counted, are closed under the same complement walks
only its words that start with 0, the cut half_rows makes; one string
comparison decides this, the words joined and complemented against the
same words joined in descending order.
"""

from __future__ import annotations

import os
import re
import time
from bisect import bisect_left
from dataclasses import dataclass
from collections.abc import Iterable, Iterator
from math import log2

from .channel import ChannelParams, channel_steps
from .confusability import ConfusabilityGraph, confusable_rows, half_rows, mirror
from .errors import PreconditionError
from .sequences import Bits, as_bits, symbols

DEFAULT_TIME_LIMIT = 60.0
# swaps the symbols of a word: the complement verify_code tests closure under
_COMPLEMENT = str.maketrans("01", "10")


@dataclass(frozen=True)
class Code:
    """Bits of length n in ascending order, repeats kept; from_words wraps, sorts and drops repeats."""

    n: int
    words: tuple[Bits, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(w, Bits) for w in self.words):
            raise ValueError("code words must be Bits")
        if any(len(w) != self.n for w in self.words):
            raise ValueError(f"code words must all have length {self.n}")
        if any(map(str.__gt__, self.words, self.words[1:])):
            raise ValueError("code words must be in ascending order")

    @classmethod
    def from_words(cls, words: Iterable[str], n: int | None = None) -> "Code":
        unique = sorted(set(map(as_bits, words)))
        if not unique and n is None:
            raise ValueError("empty code needs an explicit block length")
        return cls(n=n if n is not None else len(unique[0]), words=tuple(unique))

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Bits]:
        return iter(self.words)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an optimal-code search; optimal=False marks a timeout."""

    witness: Code
    optimal: bool

    @property
    def size(self) -> int:
        return len(self.witness)


def verify_code(params: ChannelParams, code: Code) -> bool:
    """True iff every distinct pair of words is distinguishable (a repeat is not).

    The words are read ascending, as Code holds them. When they, as a
    multiset, are closed under bit complement, only the words that start
    with 0 are walked: a confusable pair of words that start with 1 has in
    the code its mirror, a confusable pair that starts with 0, and no word
    that starts with 1 is confusable with one that starts with 0.
    """
    words = code.words
    # complementing every word reverses their order, so a closed multiset
    # reads, complemented in ascending order, as itself in descending order
    if "".join(words).translate(_COMPLEMENT) == "".join(reversed(words)):
        words = words[: bisect_left(words, "1")]
    return not any(confusable_rows(params, code.n, words))


def rate(n: int, size: int) -> float:
    """Code rate log2(size)/n in bits per channel use."""
    if n < 1:
        raise ValueError("block length must be >= 1")
    if size < 1:
        raise ValueError("code size must be >= 1")
    return log2(size) / n


def replace_codeword(params: ChannelParams, code: Code, x: str, x_new: str) -> Code:
    """Swap one copy of codeword x for x_new; requires every output of x_new to be one of x's.

    The other words stay as listed, repeats included. Under that
    containment the updated set stays a zero-error code. It is checked by
    one forward pass over the pairs of channel states (x_new's, x's) that a
    shared output prefix reaches, with no length cap. An output prefix that
    x_new allows and x does not, followed by the rest of x_new, which is
    always possible, names an offending output.
    """
    if x not in code:
        raise PreconditionError(f"{x} is not a codeword")
    if len(x_new) != code.n:
        raise ValueError("replacement word has the wrong length")
    x_new = as_bits(x_new)
    table = channel_steps(params.k1, params.k2)
    level = {(0, 0): ""}  # per pair of states, the first output prefix reaching it
    for t, (s_new, s_old) in enumerate(zip(symbols(x_new), symbols(x)), 1):
        nxt: dict[tuple[int, int], str] = {}
        for (at_new, at_old), y in level.items():
            for y_t in (0, 1):
                if (new := table[at_new][2 * s_new + y_t]) is None:
                    continue
                y_next = y + "01"[y_t]
                if (old := table[at_old][2 * s_old + y_t]) is None:
                    raise PreconditionError(
                        f"output {y_next}{x_new[t:]} of {x_new} "
                        f"is not a possible output of {x}"
                    )
                nxt.setdefault((new, old), y_next)
        level = nxt
    i = code.words.index(x)
    return Code(n=code.n, words=tuple(sorted((*code.words[:i], *code.words[i + 1 :], x_new))))


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask as single-bit masks, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low


def _reduce(
    rows: tuple[int, ...],
    cand: int,
    chosen: int,
    deadline: float,
    order: list[int] | None = None,
) -> tuple[int, int, bool]:
    """Move isolated candidates into `chosen`, drop dominated ones, to a fixed point.

    A pass sweeps the candidates by the vertex indices in `order`, or in
    label order when it is None. Returns the new (cand, chosen) and False if
    the deadline cut it off; `chosen` is independent either way.
    """
    changed = True
    while changed:
        changed = False
        for low in _bits(cand) if order is None else (1 << u for u in order):
            if not low & cand:
                continue
            if time.monotonic() >= deadline:
                return cand, chosen, False
            u = low.bit_length() - 1
            closed = rows[u] & cand | low
            if closed == low:
                chosen |= low
                cand ^= low
                continue
            # u dominates v iff v lies in N[w] for every w in N[u]
            dominated = closed
            for w in _bits(closed ^ low):
                dominated &= rows[w.bit_length() - 1] | w
                if dominated == low:
                    break
            dominated &= ~low
            if dominated:
                cand &= ~dominated
                changed = True
    return cand, chosen, True


def _degree_order(rows: tuple[int, ...]) -> list[int]:
    """Vertex indices by ascending degree, ties in label order."""
    return sorted(range(len(rows)), key=lambda u: rows[u].bit_count())


def _component(rows: tuple[int, ...], cand: int) -> int:
    """The connected component of the lowest candidate, within the candidates."""
    comp = frontier = cand & -cand
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = rows[low.bit_length() - 1] & cand & ~comp
        comp |= new
        frontier |= new
    return comp


def _max_independent(rows: tuple[int, ...], deadline: float) -> tuple[int, bool]:
    """Largest independent set of the graph, as a bitmask in vertex labels.

    Each component of the reduced graph is searched on its own stack. A
    node is cut when its chosen set and all its candidates cannot beat the
    best, and otherwise branches on the candidate with the most neighbours
    among the candidates, ties to the lowest label, taken or not. The
    second value is False when the deadline passed; the mask is then the
    best set found so far, or the root sweep's takes, possibly none.
    """
    # low-degree vertices dominate the most, so the root sweep takes them first
    rest, found, swept = _reduce(rows, (1 << len(rows)) - 1, 0, deadline, _degree_order(rows))
    if not swept:
        return found, False
    while rest:
        comp = _component(rows, rest)
        rest ^= comp
        best = 0
        stack = [(comp, 0)]
        while stack:
            cand, chosen, reduced = _reduce(rows, *stack.pop(), deadline)
            if not reduced:
                return found | best, False
            if chosen.bit_count() + cand.bit_count() <= best.bit_count():
                continue
            if not cand:
                best = chosen
                continue
            # counting inside every _reduce pass instead measured no faster at (3,7) n=16
            low = max(_bits(cand), key=lambda v: (rows[v.bit_length() - 1] & cand).bit_count())
            # the include child is pushed last, so it is searched first
            stack.append((cand ^ low, chosen))
            stack.append((cand & ~(rows[low.bit_length() - 1] | low), chosen | low))
        found |= best
    return found, True


def _deadline(time_limit: float) -> float:
    """The `time.monotonic()` reading time_limit seconds from now ends at; math.inf never ends."""
    if not time_limit >= 0:
        raise ValueError(f"time limit must be >= 0, got {time_limit}")
    return time.monotonic() + time_limit


def _result(n: int, mask: int, completed: bool) -> SearchResult:
    """The words of mask's labels, ascending as Code stores them; vertex 0 if it is empty."""
    words = tuple(Bits.from_index(low.bit_length() - 1, n) for low in _bits(mask or 1))
    return SearchResult(witness=Code(n=n, words=words), optimal=completed)


def _mirrored_search(n: int, half: tuple[int, ...], deadline: float) -> SearchResult:
    """Search the 0-half rows and add the complement of every word found."""
    mask, completed = _max_independent(half, deadline)
    return _result(n, mask | mirror(mask, n), completed)


def search(
    params: ChannelParams, n: int, *, time_limit: float = DEFAULT_TIME_LIMIT
) -> SearchResult:
    """optimal_code(build_graph(params, n)), from the 0-half rows alone.

    The limit, checked before any walk, counts from before the first row and
    is checked after each; a row build it cuts off starts no search and
    gives vertex 0 alone, not optimal.
    """
    deadline = _deadline(time_limit)
    half = []
    for row in half_rows(params, n):
        if time.monotonic() >= deadline:
            return _result(n, 0, False)
        half.append(row)
    return _mirrored_search(n, tuple(half), deadline)


def optimal_code(
    graph: ConfusabilityGraph, *, time_limit: float = DEFAULT_TIME_LIMIT
) -> SearchResult:
    """Exact largest zero-error code for the graph's channel and length.

    The size is deterministic; the witness is one maximizer and need not be
    canonical. The time limit covers every phase. On timeout the best code
    found so far (vertex 0 alone if none yet) is returned with optimal=False.
    """
    return _mirrored_search(graph.n, graph.half, _deadline(time_limit))


_HEADER_RE = re.compile(r"^# zecap code n=(\d+) k1=(\d+) k2=(\d+)\s*$")


def write_code_file(path: str | os.PathLike[str], params: ChannelParams, code: Code) -> None:
    """Write `# zecap code n=<n> k1=<k1> k2=<k2>` then one word per line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# zecap code n={code.n} k1={params.k1} k2={params.k2}\n")
        for word in code.words:
            fh.write(f"{word}\n")


def read_code_file(path: str | os.PathLike[str]) -> tuple[ChannelParams, Code]:
    """Read a code file written by write_code_file, bit-exact.

    Every listed word is kept, a repeat included, so that verify_code sees
    the repeat; the words are sorted, as Code holds them, so a file read
    out of order gives the same code as its sorted twin.
    """
    with open(path, encoding="ascii") as fh:
        header = fh.readline()
        match = _HEADER_RE.match(header)
        if not match:
            raise ValueError(f"{path}: missing or malformed code file header")
        n, k1, k2 = (int(g) for g in match.groups())
        words = []
        for line in fh:
            line = line.strip()
            if line:
                words.append(Bits(line))
    return ChannelParams(k1, k2), Code(n=n, words=tuple(sorted(words)))
