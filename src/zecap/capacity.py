"""Characteristic-root solvers and the zero-error capacity dispatch.

The rate-determining roots solve x^m = x^(m-1) + ... + x + 1 (the order-m
multinacci equation; m = 2 gives the golden ratio, m = 3 the tribonacci
constant). Bisection runs in exact rational arithmetic: near the root the
two sides of the equation cancel to ~1e5 * ulp, so float evaluation cannot
certify residuals at the 1e-10 scale, while the exact sign test can.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log2


def multinacci_value(order: int, x: Fraction | float | int) -> Fraction | float | int:
    """x^order - (x^(order-1) + ... + x + 1); exact when x is a Fraction."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return x**order - sum(x**j for j in range(order))


def multinacci_root(order: int) -> float:
    """The unique root in [1, 2] of the order-m multinacci equation.

    Returns the float nearest the true root, so residuals evaluated in
    exact arithmetic stay within ~|p'(root)| * half-ulp.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order == 1:
        return 1.0
    lo, hi = Fraction(1), Fraction(2)  # p(1) = 2 - order <= 0, p(2) = 1 > 0
    for _ in range(80):
        mid = (lo + hi) / 2
        if multinacci_value(order, mid) < 0:
            lo = mid
        else:
            hi = mid
    candidates = {float(lo), float(hi)}
    return min(candidates, key=lambda c: abs(multinacci_value(order, Fraction(c))))


def lambda_root(k1: int) -> float:
    """Largest real root of x^(k1-1) = x^(k1-2) + ... + 1; needs k1 >= 2."""
    if k1 < 2:
        raise ValueError("k1 must be >= 2")
    return multinacci_root(k1 - 1)


def omega_root(k2: int) -> float:
    """Only positive root of x^(k2-2) = x^(k2-3) + ... + 1; needs k2 >= 3."""
    if k2 < 3:
        raise ValueError("k2 must be >= 3")
    return multinacci_root(k2 - 2)


@dataclass(frozen=True)
class CapacityResult:
    """Exact capacity (value set) or a (lower, upper) bound pair, in bits per channel use."""

    provenance: str
    value: float | None = None
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self) -> None:
        if self.value is not None:
            if not 0.0 <= self.value <= 1.0:
                raise ValueError("exact capacity must lie in [0, 1]")
        elif None in (self.lower, self.upper) or not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValueError("bounds must satisfy 0 <= lower <= upper <= 1")

    @property
    def kind(self) -> str:
        """'exact' when value is set, else 'bounds'."""
        return "bounds" if self.value is None else "exact"


def capacity(k1: int, k2: int) -> CapacityResult:
    """Zero-error capacity of the (k1, k2) channel, exact where known.

    For k1 = 2 with k2 > 3, and for k2 > k1 >= 3, only bounds are known;
    everywhere else the value is exact.
    """
    if k1 < 1 or k2 < 1:
        raise ValueError("memory spans k1, k2 must be >= 1")
    if k1 == 1 and k2 == 1:
        return CapacityResult("no memory window: the channel is noiseless", 1.0)
    if k2 == 1:
        if k1 == 2:
            return CapacityResult("input memory only, span 2: paired-symbol blocks", 0.5)
        return CapacityResult(
            "input memory only: characteristic-root rate", log2(lambda_root(k1))
        )
    if k1 == 1:
        if k2 == 2:
            return CapacityResult("output memory only, span 2: first symbol decides", 0.0)
        return CapacityResult(
            "output memory only: characteristic-root rate", log2(omega_root(k2))
        )
    if k2 <= 3:
        return CapacityResult("joint memory, output span <= 3: zero rate", 0.0)
    if k1 >= k2:
        return CapacityResult(
            "joint memory, k1 >= k2: run-limited words are noise-free", log2(omega_root(k2))
        )
    if k1 == 2:
        return CapacityResult(
            "joint memory, k1 = 2 < k2: open; input-window upper bound", lower=0.0, upper=0.5
        )
    return CapacityResult(
        "joint memory, 3 <= k1 < k2: open; run-limited lower, input-window upper",
        lower=log2(omega_root(k1)),
        upper=log2(lambda_root(k1)),
    )


def bounds_table(k1_min: int, k1_max: int) -> list[tuple[int, float, float]]:
    """Rows (k1, lower_bits, upper_bits) for the open regime k2 > k1 >= 3."""
    if not 3 <= k1_min <= k1_max:
        raise ValueError("need 3 <= k1_min <= k1_max")
    rows = []
    for k1 in range(k1_min, k1_max + 1):
        bounds = capacity(k1, k1 + 1)
        rows.append((k1, bounds.lower, bounds.upper))
    return rows
