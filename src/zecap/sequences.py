"""Binary sequence primitives: the checked `Bits` string with a 1-based `at`,
run tests, enumeration, and the run-state step table that
`channel.channel_steps` is built from."""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache
from itertools import groupby

from .errors import CapExceededError

ENUMERATION_CAP = 24


class Bits(str):
    """A binary sequence: a str of '0'/'1' symbols, checked at construction.

    `at` counts positions from 1, iteration yields the symbols as ints, and
    `[i]`, slices and `+` are the string's, giving a plain str (a prefix is
    `Bits(x[:t])`). Ordering and hashing are the string's, so lexicographic
    sequence order coincides with the order of `to_index` values.
    """

    __slots__ = ()

    def __new__(cls, value: str) -> "Bits":
        if value.strip("01"):
            raise ValueError(f"symbols must be 0 or 1, got {value!r}")
        return str.__new__(cls, value)

    @classmethod
    def from_index(cls, index: int, n: int) -> "Bits":
        """The index-th length-n sequence in lexicographic order (000..0 is 0)."""
        if n < 0:
            raise ValueError("length must be nonnegative")
        if not 0 <= index < (1 << n):
            raise ValueError(f"index {index} out of range for length {n}")
        return cls(format(index, f"0{n}b") if n else "")

    def to_index(self) -> int:
        """Lexicographic rank among sequences of the same length."""
        return int(self, 2) if self else 0

    def at(self, t: int) -> int:
        """Symbol at 1-based position t."""
        if not 1 <= t <= len(self):
            raise ValueError(f"position {t} out of range 1..{len(self)}")
        return ord(self[t - 1]) - 48

    def __iter__(self) -> Iterator[int]:
        return (ord(c) - 48 for c in str.__iter__(self))

    def __repr__(self) -> str:
        return f"Bits({str.__repr__(self)})"


def contains_run(x: Bits, run_length: int) -> bool:
    """True iff x contains run_length consecutive equal symbols."""
    if run_length < 1:
        raise ValueError("run length must be >= 1")
    return any(sum(1 for _ in group) >= run_length for _, group in groupby(x))


def all_sequences(n: int) -> Iterator[Bits]:
    """All 2^n length-n sequences, lexicographic order, each exactly once."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    if n > ENUMERATION_CAP:
        raise CapExceededError(f"enumeration of 2^{n} sequences exceeds cap {ENUMERATION_CAP}")
    for index in range(1 << n):
        yield Bits.from_index(index, n)


@cache
def run_steps(span: int) -> tuple[tuple[tuple[int, bool], tuple[int, bool]], ...]:
    """Step table of a history seen through a window of `span` symbols.

    State 0 is the empty history; state 2 * run - 1 + last is a last
    symbol with its trailing run capped at max(span - 1, 1). steps[state][sym]
    is (the state after sym, whether sym breaks a run of span - 1 equal
    symbols): condition a when read along the input, b along the output.
    """
    cap = max(span - 1, 1)
    steps = [((1, False), (2, False))]
    for run in range(1, cap + 1):
        for last in (0, 1):
            same = (2 * min(run + 1, cap) - 1 + last, False)
            other = (2 - last, span > 1 and run == cap)
            steps.append((same, other) if last == 0 else (other, same))
    return tuple(steps)
