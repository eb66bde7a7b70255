"""Transition law of the binary run-break memory channel.

The output copies the input symbol for symbol, except at a step where the
current input breaks a run in the recent history: if the previous k1-1
inputs are all equal and the current input differs (condition a), or the
previous k2-1 outputs are all equal and the current input differs
(condition b), the output symbol is a fair coin flip instead.

Probabilities are exact rationals from {0, 1/2, 1}; zero-error analysis
only ever needs the support.

The functions below are the readable spec. Every fast path reads the same
law from one cached finite-state table instead, `channel_steps(k1, k2)`:
the channel state is the input run state and the output run state of
`sequences.run_steps`, and the table says which output symbols each state
allows and where it moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .sequences import Bits, run_steps


@dataclass(frozen=True)
class ChannelParams:
    """Memory spans: k1 symbols of input history, k2 of output history."""

    k1: int
    k2: int

    def __post_init__(self) -> None:
        if self.k1 < 1 or self.k2 < 1:
            raise ValueError("memory spans k1, k2 must be >= 1")


def condition_a(params: ChannelParams, x: Bits, t: int) -> bool:
    """Input-run break at step t: x_{t-1}..x_{t-k1+1} equal, x_t differs.

    Vacuously false for k1 = 1 and for t < k1.
    """
    if not 1 <= t <= len(x):
        raise ValueError(f"step {t} out of range 1..{len(x)}")
    k1 = params.k1
    if k1 == 1 or t < k1:
        return False
    history = {x.at(i) for i in range(t - k1 + 1, t)}
    return len(history) == 1 and x.at(t) not in history


def condition_b(params: ChannelParams, x_t: int, y_prefix: Bits, t: int) -> bool:
    """Output-run break at step t: y_{t-1}..y_{t-k2+1} equal, x_t differs.

    Vacuously false for k2 = 1 and for t < k2.
    """
    if x_t not in (0, 1):
        raise ValueError("input symbol must be 0 or 1")
    if len(y_prefix) != t - 1:
        raise ValueError(f"output prefix must have length {t - 1}, got {len(y_prefix)}")
    k2 = params.k2
    if k2 == 1 or t < k2:
        return False
    history = {y_prefix.at(i) for i in range(t - k2 + 1, t)}
    return len(history) == 1 and x_t not in history


def step_outputs(params: ChannelParams, x_prefix: Bits, y_prefix: Bits) -> frozenset[int]:
    """Support of the next output symbol given input and output history.

    {0, 1} when either run-break condition fires at the current step,
    otherwise the singleton {x_t}.
    """
    t = len(x_prefix)
    if t < 1:
        raise ValueError("input prefix must be nonempty")
    if len(y_prefix) != t - 1:
        raise ValueError(f"output prefix must have length {t - 1}, got {len(y_prefix)}")
    x_t = x_prefix.at(t)
    if condition_a(params, x_prefix, t) or condition_b(params, x_t, y_prefix, t):
        return frozenset((0, 1))
    return frozenset((x_t,))


def transition_prob(
    params: ChannelParams, x_prefix: Bits, y_prefix: Bits, y_t: int
) -> Fraction:
    """P(y_t | input prefix, output prefix) as an exact rational.

    The output is uniform over its support, `step_outputs`.
    """
    if y_t not in (0, 1):
        raise ValueError("output symbol must be 0 or 1")
    support = step_outputs(params, x_prefix, y_prefix)
    return Fraction(1, len(support)) if y_t in support else Fraction(0)


@cache
def channel_steps(k1: int, k2: int) -> tuple[tuple[int | None, ...], ...]:
    """The channel as a finite-state machine, read off two `run_steps` tables.

    A state is x_state * len(run_steps(k2)) + y_state, the input and output
    run states, and 0 is the empty history. table[state][2 * x_t + y_t] is
    the state after input x_t gives output y_t, or None when y_t is
    impossible: y_t may differ from x_t only if x_t breaks a run.
    """
    steps_in, steps_out = run_steps(k1), run_steps(k2)
    return tuple(
        tuple(
            None if y_t != x_t and not breaks and not y_step[x_t][1]
            else x_next * len(steps_out) + y_step[y_t][0]
            for x_t, (x_next, breaks) in enumerate(x_step)
            for y_t in (0, 1)
        )
        for x_step in steps_in
        for y_step in steps_out
    )
