"""Shared plumbing: canonical JSON, integer, array and name fields, integer text, exact decimals."""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import SchemaError, ToolkitError


def canonical_json(doc) -> str:
    """Serialize with sorted keys and fixed separators: equal docs, equal bytes."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def read_int(value, field: str) -> int:
    """The integer a document gives for `field`, or SchemaError naming the field.

    A bool or a float is refused rather than truncated, so 1.5 and true are
    not read as 1; anything else goes through `int`.
    """
    if not isinstance(value, (bool, float)):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise SchemaError(f"{field} is not an integer: {value!r}")


def read_array(value, field: str) -> list | tuple:
    """The array a document gives for `field`; a string or object would pass for its letters or keys."""
    if not isinstance(value, (list, tuple)):
        raise SchemaError(f"{field} must be an array")
    return value


def read_name(value, field: str) -> str:
    """The name a document gives for `field`: a string, or an integer read as its decimal text.

    Arrays, objects, booleans and floats are refused, so `["a"]`, `true` and
    `1.5` do not pass for the names "['a']", "True" and "1.5".
    """
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise SchemaError(f"{field} is not a name (a string or an integer): {value!r}")


def int_text(value: int) -> str:
    """The decimal text of an integer result.

    An integer with more digits than the interpreter converts to text
    (`sys.get_int_max_str_digits`, 4300 by default) raises `ToolkitError`
    naming that limit, not a bare ValueError.
    """
    try:
        return str(value)
    except ValueError as exc:
        raise ToolkitError(f"cannot print the result: {exc}") from None


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
