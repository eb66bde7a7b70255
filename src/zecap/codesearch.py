"""Zero-error code verification, exact optimal-code search, and code files.

An optimal code is a maximum independent set of the confusability graph.
The search first discards vertices whose closed neighborhood contains
another's: if N[u] is a subset of N[v], any code using v can swap v for u,
so v is never needed. That is the graph form of the codeword-replacement
rule and it preserves the exact optimum. Branch and bound then runs on the
kept kernel directly on the big-int confusability rows, with a greedy
clique-cover upper bound. One deadline covers both phases.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass
from collections.abc import Iterable, Iterator
from math import inf, log2

from .channel import ChannelParams
from .confusability import ConfusabilityGraph, confusable_rows
from .confusability import output_membership, possible_outputs
from .errors import PreconditionError
from .sequences import Bits

DEFAULT_TIME_LIMIT = 60.0


@dataclass(frozen=True)
class Code:
    """A set of equal-length words, stored sorted lexicographically."""

    n: int
    words: tuple[Bits, ...]

    @classmethod
    def from_words(cls, words: Iterable[Bits], n: int | None = None) -> "Code":
        unique = sorted(set(words))
        if not unique and n is None:
            raise ValueError("empty code needs an explicit block length")
        length = n if n is not None else len(unique[0])
        if any(len(w) != length for w in unique):
            raise ValueError("code words must all have the same length")
        return cls(n=length, words=tuple(unique))

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Bits]:
        return iter(self.words)

    def __contains__(self, word: Bits) -> bool:
        return word in self.words


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an optimal-code search; optimal=False marks a timeout."""

    size: int
    witness: Code
    optimal: bool


def verify_code(params: ChannelParams, code: Code) -> bool:
    """True iff every distinct pair of words is distinguishable (a repeat is not)."""
    if any(len(w) != code.n for w in code.words):
        raise ValueError("code words must all have length n")
    labels = [w.to_index() for w in code.words]
    return not any(confusable_rows(params, code.n, labels))


def rate(n: int, size: int) -> float:
    """Code rate log2(size)/n in bits per channel use."""
    if n < 1:
        raise ValueError("block length must be >= 1")
    if size < 1:
        raise ValueError("code size must be >= 1")
    return log2(size) / n


def replace_codeword(params: ChannelParams, code: Code, x: Bits, x_new: Bits) -> Code:
    """Swap codeword x for x_new; requires every output of x_new to be one of x's.

    Under that containment the updated set stays a zero-error code.
    """
    if x not in code:
        raise PreconditionError(f"{x} is not a codeword")
    if len(x_new) != code.n:
        raise ValueError("replacement word has the wrong length")
    for y in possible_outputs(params, x_new):
        if not output_membership(params, x, y):
            raise PreconditionError(
                f"output {y} of {x_new} is not a possible output of {x}"
            )
    return Code.from_words([w for w in code.words if w != x] + [x_new], n=code.n)


def _drop_dominated(rows: tuple[int, ...], deadline: float) -> int | None:
    """Bitmask of kept vertices after closed-neighborhood domination removal.

    None when the deadline passes first.
    """
    count = len(rows)
    alive = (1 << count) - 1
    changed = True
    while changed:
        changed = False
        for u in range(count):
            if not (alive >> u) & 1:
                continue
            if time.monotonic() >= deadline:
                return None
            cu = (rows[u] | (1 << u)) & alive
            neighbors = rows[u] & alive
            while neighbors:
                low = neighbors & -neighbors
                neighbors ^= low
                # N[u] within N[v]: v is the only member of N[u] outside N(v)
                if cu & ~rows[low.bit_length() - 1] == low:
                    alive ^= low
                    cu ^= low
                    changed = True
    return alive


def _max_independent(rows: tuple[int, ...], kernel: int, deadline: float) -> tuple[int, bool]:
    """Largest independent set inside `kernel`, as a bitmask in vertex labels.

    Each search node first takes every candidate with no neighbour among the
    candidates, then bounds the rest by a greedy clique cover (an independent
    set meets each clique at most once) and branches on the vertices in
    reverse cover order. The second value is False when the deadline passed;
    the mask is then the best set found so far, possibly empty.
    """
    best, best_size = 0, 0
    frames: list[tuple[list[int], list[int], int, int]] = []
    # each frame: cover-ordered vertices, their bounds, candidates, chosen set

    def push(candidates: int, chosen: int) -> None:
        nonlocal best, best_size
        m = candidates
        while m:
            low = m & -m
            m ^= low
            if not rows[low.bit_length() - 1] & candidates:
                chosen |= low
        candidates &= ~chosen
        if not candidates:
            if chosen.bit_count() > best_size:
                best, best_size = chosen, chosen.bit_count()
            return
        verts: list[int] = []
        bounds: list[int] = []
        rest = candidates
        cliques = 0
        while rest:
            cliques += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                avail &= rows[v]
                rest ^= low
                verts.append(v)
                bounds.append(cliques)
        frames.append((verts, bounds, candidates, chosen))

    push(kernel, 0)
    while frames:
        if time.monotonic() >= deadline:
            return best, False
        verts, bounds, candidates, chosen = frames[-1]
        if not verts or chosen.bit_count() + bounds[-1] <= best_size:
            frames.pop()
            continue
        v = verts.pop()
        bounds.pop()
        low = 1 << v
        # later siblings exclude v; the child includes it
        frames[-1] = (verts, bounds, candidates & ~low, chosen)
        push(candidates & ~(rows[v] | low), chosen | low)
    return best, True


def optimal_code(
    graph: ConfusabilityGraph,
    *,
    time_limit: float | None = DEFAULT_TIME_LIMIT,
) -> SearchResult:
    """Exact largest zero-error code for the graph's channel and length.

    The size is deterministic; the witness is one maximizer and need not be
    canonical. The time limit covers every phase. On timeout the best code
    found so far (vertex 0 alone if none yet) is returned with optimal=False.
    """
    if time_limit is not None and not time_limit >= 0:
        raise ValueError(f"time limit must be >= 0 or None, got {time_limit}")
    deadline = inf if time_limit is None else time.monotonic() + time_limit
    kernel = _drop_dominated(graph.rows, deadline)
    if kernel is None:
        mask, completed = 0, False
    else:
        mask, completed = _max_independent(graph.rows, kernel, deadline)
    mask = mask or 1
    words = []
    while mask:
        low = mask & -mask
        mask ^= low
        words.append(graph.sequence(low.bit_length() - 1))
    # ascending labels are already the lexicographic order Code stores
    witness = Code(n=graph.n, words=tuple(words))
    return SearchResult(size=len(witness), witness=witness, optimal=completed)


_HEADER_RE = re.compile(r"^# zecap code n=(\d+) k1=(\d+) k2=(\d+)\s*$")


def write_code_file(path: str | os.PathLike[str], params: ChannelParams, code: Code) -> None:
    """Write `# zecap code n=<n> k1=<k1> k2=<k2>` then one word per line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# zecap code n={code.n} k1={params.k1} k2={params.k2}\n")
        for word in code.words:
            fh.write(f"{word}\n")


def read_code_file(path: str | os.PathLike[str]) -> tuple[ChannelParams, Code]:
    """Read a code file written by write_code_file, bit-exact."""
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
    code = Code.from_words(words, n=n)
    return ChannelParams(k1, k2), code
