from fractions import Fraction
from math import log2, sqrt

import pytest

from zecap import (
    CapacityResult,
    bounds_table,
    capacity,
    growth_ratio,
    lambda_root,
    multinacci_root,
    multinacci_value,
    omega_root,
)

GOLDEN = (1 + sqrt(5)) / 2
TRIBONACCI = 1.839286755214161


def test_lambda_root_examples():
    assert lambda_root(2) == 1.0
    assert lambda_root(3) == pytest.approx(GOLDEN, abs=1e-12)
    assert lambda_root(4) == pytest.approx(TRIBONACCI, abs=1e-9)


def test_omega_root_examples():
    assert omega_root(3) == 1.0
    assert omega_root(4) == pytest.approx(GOLDEN, abs=1e-12)
    assert omega_root(5) == pytest.approx(TRIBONACCI, abs=1e-9)


def test_root_domain_errors():
    with pytest.raises(ValueError):
        lambda_root(1)
    with pytest.raises(ValueError):
        omega_root(2)


@pytest.mark.parametrize("k", range(3, 21))
def test_omega_equals_shifted_lambda(k):
    assert omega_root(k) == pytest.approx(lambda_root(k - 1), abs=1e-10)


@pytest.mark.parametrize("order", range(2, 20))
def test_exact_residual_at_returned_root(order):
    root = multinacci_root(order)
    assert abs(multinacci_value(order, Fraction(root))) <= 1e-10


def test_lambda_strictly_increasing_below_two():
    roots = [lambda_root(k) for k in range(2, 21)]
    assert all(a < b for a, b in zip(roots, roots[1:]))
    assert all(r < 2 for r in roots)
    assert log2(lambda_root(20)) > 0.999


@pytest.mark.parametrize("k2", [4, 5, 6])
def test_growth_ratio_approaches_root(k2):
    assert growth_ratio(k2 - 1, 256) == pytest.approx(omega_root(k2), abs=1e-6)


def exact_value(k1, k2):
    result = capacity(k1, k2)
    assert result.kind == "exact"
    return result.value


def test_capacity_exact_cases():
    assert exact_value(1, 1) == 1.0
    assert exact_value(2, 1) == 0.5
    assert exact_value(1, 2) == 0.0
    assert exact_value(3, 1) == pytest.approx(log2(GOLDEN), abs=1e-12)
    assert exact_value(1, 4) == pytest.approx(log2(GOLDEN), abs=1e-12)
    assert exact_value(5, 4) == pytest.approx(0.694242, abs=1e-6)
    for k1 in (2, 3, 5):
        assert exact_value(k1, 2) == 0.0
        assert exact_value(k1, 3) == 0.0


def test_capacity_bound_cases():
    result = capacity(3, 7)
    assert result.kind == "bounds"
    assert result.lower == 0.0
    assert result.upper == pytest.approx(log2(GOLDEN), abs=1e-9)
    result = capacity(2, 5)
    assert (result.lower, result.upper) == (0.0, 0.5)


def test_capacity_validation():
    with pytest.raises(ValueError):
        capacity(0, 1)
    with pytest.raises(ValueError):
        CapacityResult(provenance="x", value=1.5)
    with pytest.raises(ValueError):
        CapacityResult(provenance="x", lower=0.7, upper=0.2)


def test_capacity_below_single_memory_marginals():
    for k1 in range(2, 8):
        for k2 in range(2, 8):
            ceiling = min(capacity(k1, 1).value, capacity(1, k2).value)
            result = capacity(k1, k2)
            value = result.value if result.kind == "exact" else result.upper
            assert value <= ceiling + 1e-12


def test_bounds_table_rows():
    rows = bounds_table(3, 12)
    assert rows[0][0] == 3
    assert rows[0][1] == pytest.approx(0.0, abs=1e-12)
    assert rows[0][2] == pytest.approx(0.694242, abs=1e-6)
    assert rows[1][1:] == (
        pytest.approx(0.694242, abs=1e-6),
        pytest.approx(0.879146, abs=1e-6),
    )
    # adjacent rows chain: this row's lower bound is the previous row's upper bound
    for previous, current in zip(rows, rows[1:]):
        assert current[1] == pytest.approx(previous[2], abs=1e-9)
    gaps = [upper - lower for _, lower, upper in rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_bounds_table_validation():
    with pytest.raises(ValueError):
        bounds_table(2, 5)
    with pytest.raises(ValueError):
        bounds_table(5, 4)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: multinacci_value(0, 1), id="multinacci_value(0,1)"),
        pytest.param(lambda: multinacci_root(0), id="multinacci_root(0)"),
    ],
)
def test_multinacci_refuses_order_below_one(call):
    with pytest.raises(ValueError, match="order must be >= 1"):
        call()
