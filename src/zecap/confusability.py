"""Possible-output sets, pairwise distinguishability, and the confusability graph.

Distinguishability of two inputs is decided by a joint forward DP instead of
materializing both output sets: along any shared output, the only history the
channel law can see is the identity of the last output symbol and the length
of its trailing run (capped at k2-1). The DP tracks the set of reachable
(last symbol, capped run) states; the pair is confusable iff a state survives
to the final step. The exhaustive output-set enumerator is kept as the slow
reference for tests.

The graph builder runs the same DP bit-parallel: reachability distributes
over union, so one walk of the input trie carries, for each joint state
(b input run, output run), a big-int bitset of every b-prefix that reaches
it. Each b-prefix is stored at the high bits of its final lexicographic
label, so extending b by a symbol is one shift and the rows come out in
vertex labels. confusable_dp stays as the independent pairwise reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator

from .channel import ChannelParams
from .errors import CapExceededError
from .sequences import Bits

OUTPUT_ENUMERATION_CAP = 20
GRAPH_CAP = 14


def _breaks_run(span: int, run: int, last: int, sym: int) -> bool:
    # run/last describe the window ending just before the current step
    return span > 1 and run >= span - 1 and sym != last


@dataclass(frozen=True)
class OutputSet:
    """The exact set of output sequences reachable from one input."""

    n: int
    members: frozenset[Bits]

    def __contains__(self, y: Bits) -> bool:
        return y in self.members

    def __iter__(self) -> Iterator[Bits]:
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)


def possible_outputs(
    params: ChannelParams, x: Bits, *, max_n: int = OUTPUT_ENUMERATION_CAP
) -> OutputSet:
    """All outputs with positive probability, by depth-first extension.

    Output sets can be exponential in len(x); the cap guards enumeration.
    """
    n = len(x)
    if n > max_n:
        raise CapExceededError(f"output enumeration for length {n} exceeds cap {max_n}")
    k1, k2 = params.k1, params.k2
    sym = [0] + list(x)

    # input-run break flags depend on x alone
    free_a = [False] * (n + 1)
    run, last = 0, -1
    for t in range(1, n + 1):
        free_a[t] = _breaks_run(k1, run, last, sym[t])
        run = run + 1 if sym[t] == last else 1
        last = sym[t]

    members: list[str] = []
    acc: list[str] = []

    def extend(t: int, y_last: int, y_run: int) -> None:
        if t > n:
            members.append("".join(acc))
            return
        free = free_a[t] or _breaks_run(k2, y_run, y_last, sym[t])
        for y_t in (0, 1) if free else (sym[t],):
            acc.append("01"[y_t])
            extend(t + 1, y_t, y_run + 1 if y_t == y_last else 1)
            acc.pop()

    extend(1, -1, 0)
    return OutputSet(n, frozenset(Bits(m) for m in members))


def output_membership(params: ChannelParams, x: Bits, y: Bits) -> bool:
    """True iff y is a possible output for input x. Linear scan, no enumeration."""
    if len(x) != len(y):
        raise ValueError("input and output must have equal length")
    k1, k2 = params.k1, params.k2
    x_run = y_run = 0
    x_last = y_last = -1
    for x_t, y_t in zip(x, y):
        free = _breaks_run(k1, x_run, x_last, x_t) or _breaks_run(k2, y_run, y_last, x_t)
        if not free and y_t != x_t:
            return False
        x_run = x_run + 1 if x_t == x_last else 1
        x_last = x_t
        y_run = y_run + 1 if y_t == y_last else 1
        y_last = y_t
    return True


def confusable_dp(params: ChannelParams, x: Bits, x_other: Bits) -> bool:
    """Decide whether two equal-length inputs share a possible output.

    Forward reachability over shared-output states (last symbol, trailing
    run capped at k2-1); cost O(n * k2).
    """
    if len(x) != len(x_other):
        raise ValueError("inputs must have equal length")
    k1, k2 = params.k1, params.k2
    a_run = b_run = 0
    a_last = b_last = -1
    # state None = no output yet; else (last symbol, capped trailing run)
    states: set[tuple[int, int] | None] = {None}
    cap = k2 - 1
    for s_a, s_b in zip(x, x_other):
        free_in_a = _breaks_run(k1, a_run, a_last, s_a)
        free_in_b = _breaks_run(k1, b_run, b_last, s_b)
        nxt: set[tuple[int, int] | None] = set()
        for state in states:
            y_last, y_run = state if state is not None else (-1, 0)
            allowed_a = (0, 1) if free_in_a or _breaks_run(k2, y_run, y_last, s_a) else (s_a,)
            allowed_b = (0, 1) if free_in_b or _breaks_run(k2, y_run, y_last, s_b) else (s_b,)
            for y in allowed_a:
                if y not in allowed_b:
                    continue
                run = y_run + 1 if y == y_last else 1
                nxt.add((y, min(run, cap) if cap else 1))
        if not nxt:
            return False
        states = nxt
        a_run = a_run + 1 if s_a == a_last else 1
        a_last = s_a
        b_run = b_run + 1 if s_b == b_last else 1
        b_last = s_b
    return True


@dataclass(frozen=True)
class ConfusabilityGraph:
    """Graph over all length-n inputs; edges join non-distinguishable pairs.

    Vertex i is the i-th sequence in lexicographic order; adjacency is stored
    as one bit vector per vertex. Value-identical across runs.
    """

    params: ChannelParams
    n: int
    rows: tuple[int, ...]

    @property
    def vertex_count(self) -> int:
        return 1 << self.n

    def sequence(self, i: int) -> Bits:
        return Bits.from_index(i, self.n)

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def neighbors(self, i: int) -> Iterator[int]:
        row = self.rows[i]
        while row:
            low = row & -row
            yield low.bit_length() - 1
            row ^= low

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for i, row in enumerate(self.rows):
            row >>= i + 1
            j = i + 1
            while row:
                low = row & -row
                yield i, j + low.bit_length() - 1
                row ^= low

    def adjacency_text(self) -> str:
        """One line per vertex: `i: j1 j2 ...` (neighbors ascending)."""
        lines = []
        for i in range(self.vertex_count):
            neighbors = " ".join(str(j) for j in self.neighbors(i))
            lines.append(f"{i}: {neighbors}" if neighbors else f"{i}:")
        return "\n".join(lines) + "\n"


def _advance(last: int, run: int, sym: int, cap: int) -> tuple[int, int]:
    return sym, min(run + 1, cap) if sym == last else 1


def build_graph(
    params: ChannelParams, n: int, *, max_n: int = GRAPH_CAP
) -> ConfusabilityGraph:
    """Materialize the confusability graph over all length-n inputs.

    One depth-first walk over the prefixes of input a decides a against
    every b at once. Each node carries {(b last, b run, y last, y run):
    mask}, where mask holds one bit per b-prefix that reaches that joint
    state alongside the node's a-prefix. A b-prefix sits at the high bits
    of its final lexicographic label (the unread suffix is zero), so
    appending symbol s at depth d is the shift s << (n-1-d), and the rows
    come out in vertex labels with no relabelling pass.
    """
    if n < 1:
        raise ValueError("block length must be >= 1")
    if n > max_n:
        raise CapExceededError(f"graph over 2^{n} vertices exceeds cap {max_n}")
    k1, k2 = params.k1, params.k2
    cap_in, cap_out = max(k1 - 1, 1), max(k2 - 1, 1)
    rows = [0] * (1 << n)

    def walk(depth: int, a: int, a_last: int, a_run: int, states: dict) -> None:
        if depth == n:
            row = 0
            for mask in states.values():
                row |= mask
            rows[a] = row & ~(1 << a)
            return
        for s_a in (0, 1):
            free_a = _breaks_run(k1, a_run, a_last, s_a)
            nxt: dict[tuple[int, int, int, int], int] = {}
            for (b_last, b_run, y_last, y_run), mask in states.items():
                out_a = 3 if free_a or _breaks_run(k2, y_run, y_last, s_a) else 1 << s_a
                for s_b in (0, 1):
                    free_b = _breaks_run(k1, b_run, b_last, s_b)
                    out_b = 3 if free_b or _breaks_run(k2, y_run, y_last, s_b) else 1 << s_b
                    joint = out_a & out_b
                    if not joint:
                        continue
                    b_state = _advance(b_last, b_run, s_b, cap_in)
                    moved = mask << (s_b << (n - 1 - depth))
                    for y in (0, 1):
                        if joint >> y & 1:
                            key = b_state + _advance(y_last, y_run, y, cap_out)
                            nxt[key] = nxt.get(key, 0) | moved
            # b = a keeps the deterministic trace alive, so nxt is never empty
            walk(depth + 1, a << 1 | s_a, *_advance(a_last, a_run, s_a, cap_in), nxt)

    walk(0, 0, -1, 0, {(-1, 0, -1, 0): 1})
    return ConfusabilityGraph(params=params, n=n, rows=tuple(rows))
