"""Output checks: each compares program outputs with reference values and
returns a list of failure messages, empty when everything agrees."""

from __future__ import annotations

import math

EULER_RTOL = 1e-9
CIRCLE_SLACK = 1e-6


def check_counts(reported: dict[int, int], expected: dict[int, int], where: str) -> list[str]:
    """Exact counts must equal the reference at every target."""
    fails = []
    if sorted(reported) != sorted(expected):
        return [f"{where}: targets {sorted(reported)} != {sorted(expected)}"]
    for m in sorted(expected):
        if reported[m] != expected[m]:
            fails.append(f"{where}: R({m}) = {reported[m]}, reference {expected[m]}")
    return fails


def check_euler(per_prime, expected, estimate: float, where: str) -> list[str]:
    """Euler factors must be positive and match the reference to EULER_RTOL
    relative, and the reported product must be the product of the factors."""
    got = [(int(p), float(v)) for p, v in per_prime]
    if [p for p, _ in got] != [p for p, _ in expected]:
        return [f"{where}: primes {[p for p, _ in got]} != {[p for p, _ in expected]}"]
    fails = []
    for (p, v), (_, ref) in zip(got, expected):
        if not v > 0.0:
            fails.append(f"{where}: factor at p={p} is {v!r}, not positive")
        if abs(v - ref) > EULER_RTOL * abs(ref):
            fails.append(f"{where}: factor at p={p} is {v!r}, reference {ref!r}")
    product = math.prod(ref for _, ref in expected)
    if abs(estimate - product) > EULER_RTOL * abs(product):
        fails.append(f"{where}: Euler estimate {estimate!r}, reference product {product!r}")
    return fails


def check_circle(result: dict, expected_R: int, where: str) -> list[str]:
    """R_s(m) = round(Re(major + minor)), within the summed quadrature errors."""
    R = int(result["R"])
    total = complex(*result["major"]) + complex(*result["minor"])
    slack = result["major_err"] + result["minor_err"] + CIRCLE_SLACK
    fails = []
    if R != expected_R:
        fails.append(f"{where}: count {R}, reference {expected_R}")
    if round(total.real) != expected_R or abs(total.real - expected_R) > slack:
        fails.append(f"{where}: major + minor = {total!r}, reference {expected_R} (slack {slack:.3g})")
    if abs(total.imag) > slack:
        fails.append(f"{where}: imaginary part {total.imag!r} exceeds {slack:.3g}")
    return fails


def check_equal(got: int, expected: int, where: str) -> list[str]:
    return [] if got == expected else [f"{where}: {got}, reference {expected}"]
