"""Shared plumbing: canonical JSON and exact decimals."""

from __future__ import annotations

import json
from fractions import Fraction


def canonical_json(doc) -> str:
    """Serialize with sorted keys and fixed separators: equal docs, equal bytes."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def exact_decimal(value: Fraction) -> str:
    """Render a fraction whose denominator is a power of two as an exact decimal."""
    num, den = value.numerator, value.denominator
    k = den.bit_length() - 1
    if den != 1 << k:
        raise ValueError(f"denominator {den} is not a power of two")
    if k == 0:
        return str(num)
    scaled = num * 5**k  # n / 2^k == n * 5^k / 10^k
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(k + 1, "0")
    return f"{sign}{digits[:-k]}.{digits[-k:]}"
