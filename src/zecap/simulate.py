"""Seeded channel sampling and the exhaustive zero-error decoder.

Trials replay bit-exactly: every report's JSON names the generator, and
per-trial randomness is derived as seed + trial index. Seeds are
nonnegative, since random.Random(-s) replays the stream of Random(s).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .channel import ChannelParams, channel_steps
from .codesearch import Code, verify_code
from .confusability import output_membership
from .errors import PreconditionError
from .sequences import Bits, as_bits, symbols

GENERATOR = "python-random-mt19937/getrandbits"
MAX_REPORT_EXAMPLES = 10


def _sample(params: ChannelParams, x: str, rng: random.Random) -> Bits:
    table = channel_steps(params.k1, params.k2)
    out: list[str] = []
    state = 0
    for x_t in symbols(x):
        # a coin only where output 1 - x_t, entry 2 * x_t + 1 - x_t, is possible
        y_t = rng.getrandbits(1) if table[state][x_t + 1] is not None else x_t
        out.append("01"[y_t])
        state = table[state][2 * x_t + y_t]
    return Bits("".join(out))


def sample_output(params: ChannelParams, x: str, seed: int) -> Bits:
    """Draw one output sequence for input x; same seed, same output."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return _sample(params, x, random.Random(seed))


@dataclass(frozen=True)
class DecodeResult:
    """status is "ok", "ambiguous" (>= 2 codewords match) or "none"."""

    status: str
    word: Bits | None = None


def decode(params: ChannelParams, code: Code, y: str) -> DecodeResult:
    """The unique codeword that can produce y, or a failure value."""
    y = as_bits(y)
    if len(y) != code.n:
        raise ValueError("received word has the wrong length")
    found = [word for word in code.words if output_membership(params, word, y)]
    if len(found) == 1:
        return DecodeResult(status="ok", word=found[0])
    return DecodeResult(status="ambiguous" if found else "none")


@dataclass(frozen=True)
class TrialReport:
    """Outcome of a seeded trial batch; failures = decode mismatches."""

    trials: int
    failures: int
    seed: int
    ambiguity_examples: tuple[tuple[Bits, Bits], ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "failures": self.failures,
            "seed": self.seed,
            "generator": GENERATOR,
            "examples": [
                {"sent": sent, "received": received}
                for sent, received in self.ambiguity_examples
            ],
        }


def zero_error_trial(
    params: ChannelParams,
    code: Code,
    trials: int,
    seed: int,
    *,
    force: bool = False,
) -> TrialReport:
    """Send random codewords through the channel and decode each output.

    Refuses codes that fail verification unless force is set; a verified
    code is guaranteed zero failures, so the run is a reproducible
    end-to-end confirmation.
    """
    if trials < 0:
        raise ValueError("trial count must be nonnegative")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if not code.words:
        raise ValueError("code is empty")
    if not force and not verify_code(params, code):
        raise PreconditionError(
            "code failed verification; pass force=True to simulate anyway"
        )
    failures = 0
    examples: list[tuple[Bits, Bits]] = []
    for i in range(trials):
        rng = random.Random(seed + i)
        sent = code.words[rng.randrange(len(code.words))]
        received = _sample(params, sent, rng)
        result = decode(params, code, received)
        if result.status != "ok" or result.word != sent:
            failures += 1
            if len(examples) < MAX_REPORT_EXAMPLES:
                examples.append((sent, received))
    return TrialReport(
        trials=trials,
        failures=failures,
        seed=seed,
        ambiguity_examples=tuple(examples),
    )
