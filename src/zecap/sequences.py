"""Binary sequence primitives: 1-based indexing, run and substring tests,
enumeration, and the run-state step table that `channel.channel_steps` is
built from."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cache
from itertools import groupby

from .errors import CapExceededError

ENUMERATION_CAP = 24


class Bits:
    """An immutable binary sequence, indexed 1..n.

    Renders as the string of '0'/'1' characters with position 1 first;
    ordering and hashing follow that string, so lexicographic sequence
    order coincides with the order of `to_index` values.
    """

    __slots__ = ("_s",)

    def __init__(self, value: str | Iterable[int] | "Bits" = ""):
        if isinstance(value, Bits):
            s = value._s
        elif isinstance(value, str):
            s = value
        else:
            s = "".join(str(b) for b in value)
        if s.strip("01"):
            raise ValueError(f"symbols must be 0 or 1, got {s!r}")
        self._s = s

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
        return int(self._s, 2) if self._s else 0

    def at(self, t: int) -> int:
        """Symbol at 1-based position t."""
        if not 1 <= t <= len(self._s):
            raise ValueError(f"position {t} out of range 1..{len(self._s)}")
        return ord(self._s[t - 1]) - 48

    def prefix(self, t: int) -> "Bits":
        """The first t symbols (t may be 0)."""
        if not 0 <= t <= len(self._s):
            raise ValueError(f"prefix length {t} out of range")
        return Bits(self._s[:t])

    def __len__(self) -> int:
        return len(self._s)

    def __iter__(self) -> Iterator[int]:
        return (ord(c) - 48 for c in self._s)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Bits) and self._s == other._s

    def __lt__(self, other: "Bits") -> bool:
        return self._s < other._s

    def __hash__(self) -> int:
        return hash(self._s)

    def __add__(self, other: "Bits") -> "Bits":
        return Bits(self._s + other._s)

    def __str__(self) -> str:
        return self._s

    def __repr__(self) -> str:
        return f"Bits({self._s!r})"


def contains_run(x: Bits, run_length: int) -> bool:
    """True iff x contains run_length consecutive equal symbols."""
    if run_length < 1:
        raise ValueError("run length must be >= 1")
    return any(sum(1 for _ in group) >= run_length for _, group in groupby(str(x)))


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
