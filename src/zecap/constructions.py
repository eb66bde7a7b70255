"""Explicit code families and their exact counting recurrences.

Counts use unbounded integers throughout; recurrence values pass 64 bits
near n = 80. Rates are always derived from exact counts.
"""

from __future__ import annotations

from itertools import product

from .codesearch import Code
from .errors import CapExceededError
from .sequences import ENUMERATION_CAP, Bits, run_steps


def pairwise_block_code(n: int) -> Code:
    """All concatenations of 00/11 blocks; odd lengths get a free first symbol.

    Size 2^ceil(n/2); lengths past 2 * ENUMERATION_CAP (over 2^24 words) are refused.
    """
    if n < 1:
        raise ValueError("block length must be >= 1")
    if n > 2 * ENUMERATION_CAP:
        raise CapExceededError(f"pairwise code of length {n} exceeds cap {2 * ENUMERATION_CAP}")
    prefixes = ("",) if n % 2 == 0 else ("0", "1")
    words = [
        Bits(head + "".join(blocks))
        for head in prefixes
        for blocks in product(("00", "11"), repeat=n // 2)
    ]
    return Code.from_words(words, n=n)


def forbidden_run_code(n: int, run_bound: int) -> Code:
    """All length-n sequences whose every run is shorter than run_bound.

    Grown one symbol at a time with each word's trailing run, so only the
    family's own words are ever built, in lexicographic order.
    """
    if n < 1:
        raise ValueError("block length must be >= 1")
    if run_bound < 2:
        raise ValueError("run bound must be >= 2")
    if n > ENUMERATION_CAP:
        raise CapExceededError(f"forbidden-run code of length {n} exceeds cap {ENUMERATION_CAP}")
    level = [("0", 1), ("1", 1)]
    for _ in range(n - 1):
        level = [
            (word + symbol, run + 1 if symbol == word[-1] else 1)
            for word, run in level
            for symbol in "01"
            if symbol != word[-1] or run + 1 < run_bound
        ]
    return Code(n=n, words=tuple(Bits(word) for word, _ in level))


def forbidden_run_counts(run_bound: int, n_max: int) -> tuple[int, ...]:
    """Sizes of the runs-shorter-than-run_bound family, indexed by n = 0..n_max.

    For n < run_bound every sequence qualifies (2^n); from n = run_bound on,
    counts[n] = sum of the previous run_bound - 1 counts (classify by the
    length of the final run).
    """
    if run_bound < 2:
        raise ValueError("run bound must be >= 2")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    counts = [1 << n for n in range(min(run_bound, n_max + 1))]
    for n in range(run_bound, n_max + 1):
        counts.append(sum(counts[n - i] for i in range(1, run_bound)))
    return tuple(counts)


def no_run_break_counts(k2: int, n_max: int) -> tuple[int, ...]:
    """Sizes of the family avoiding 0^(k2-1)1 and 1^(k2-1)0, indexed by n = 0..n_max.

    These are the words that never break a run of span k2, so the DP counts
    paths through the channel's run-state table `run_steps(k2)` that take no
    breaking step.
    """
    if k2 < 3:
        raise ValueError("k2 must be >= 3")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    steps = run_steps(k2)
    ways = [1] + [0] * (len(steps) - 1)
    counts = [1]
    for _ in range(n_max):
        nxt = [0] * len(steps)
        for state, count in enumerate(ways):
            for after, breaks in steps[state]:
                if not breaks:
                    nxt[after] += count
        ways = nxt
        counts.append(sum(ways))
    return tuple(counts)


def growth_ratio(run_bound: int, n: int) -> float:
    """counts[n+1]/counts[n] for the forbidden-run family.

    Estimates the dominant root of the counting recurrence; requires
    n >= 2 * run_bound so the recurrence is past its base cases.
    """
    if n < 2 * run_bound:
        raise ValueError("n must be at least twice the run bound")
    counts = forbidden_run_counts(run_bound, n + 1)
    return counts[n + 1] / counts[n]
