"""Shared small helpers: exact rationals, signs, deterministic formatting."""

from __future__ import annotations

from fractions import Fraction

#: tolerance for "unit norm" preconditions throughout the package
UNIT_TOL = Fraction(1, 10**9)


def as_fraction(x) -> Fraction:
    """Convert to an exact Fraction.

    Floats convert via their exact binary expansion, so every number that
    enters the exact kernels is represented without rounding from then on.
    Strings accept both "3/4" and decimal literals.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot convert {type(x).__name__} to Fraction")


def sgn(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def fmt17(x) -> str:
    """Format a real with 17 significant digits (exact float round-trip)."""
    return f"{float(x):.17g}"
