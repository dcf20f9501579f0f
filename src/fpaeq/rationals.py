"""Parsing and formatting of exact rationals as "p/q" strings."""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from .errors import DomainError

# Longest string the fast path of parse_rational reads: CPython's smallest int-to-str limit, so int() takes every
# part of it whatever the limit is set to, as Fraction's own parse does.
SHORT = 640
SHORT_BITS = 2126  # 2**2126 < 10**SHORT: an int of at most this many bits has at most SHORT digits


def parse_rational(value) -> Fraction:
    """Accept strings in Fraction's grammar without exponent notation, ints, and Fractions.

    A string is an optional sign, then an integer with an optional "/" and an
    unsigned nonzero integer denominator ("3/4", "+1/2", "-7") or a decimal
    ("0.25", ".5"), with "_" allowed between digits and whitespace around it
    ("1_000", " 3/4 "); each is read exactly.  "1/-2", "1/0", "nan" and "inf"
    are not rationals.  Floats are deliberately rejected to keep JSON inputs
    lossless, and so is exponent notation ("1e-3"), for which Fraction would
    first build the power of ten.  The common form "-?digits(/digits)?", in
    ASCII digits, is read by int; every other string by Fraction.
    """
    pair = _short_pair(value)
    if pair is not None:
        return Fraction(*pair)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # an int subclass: JSON true and false are not 1 and 0
        raise ValueError(f"not a rational: {value!r} (booleans are not accepted)")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"not a rational: {value!r} (exponent notation is not accepted)")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    if isinstance(value, float):
        raise ValueError(f"not a rational: {value!r} (floats are not accepted)")
    raise ValueError(f"not a rational: {value!r} (expected a \"p/q\" or integer string, or an integer)")


def _short_pair(value) -> tuple[int, int] | None:
    """The two ints of a string of at most SHORT ASCII characters in the form "-?digits(/digits)?" with a
    nonzero denominator, as written ("14/32" gives (14, 32)); None for any other value."""
    if value.__class__ is str and len(value) <= SHORT and value.isascii():
        num, slash, den = value.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdigit():
            if not slash:
                return int(num), 1
            if den.isdigit() and (q := int(den)):
                return int(num), q
    return None


def rational_pair(value) -> tuple[int, int]:
    """parse_rational(value) as (numerator, denominator), denominator > 0, with no Fraction for the common form
    "-?digits(/digits)?", whose ints come as written and need not be in lowest terms; every other value goes
    through parse_rational, with its errors."""
    return _short_pair(value) or parse_rational(value).as_integer_ratio()


def parse_rational_list(value, what: str, parse=parse_rational) -> tuple:
    """A JSON array of rationals as a tuple of Fractions, or of what parse makes of each; DomainError for any other shape."""
    if not isinstance(value, list):
        raise DomainError(f"{what} must be a JSON array of rationals, got {value!r}")
    return tuple(parse(x) for x in value)


def format_rational(q: Fraction) -> str:
    """q as "p/q", or "p" for an integer, with every digit: by str up to SHORT digits, which every int-to-str limit
    allows, and by Decimal, which has no limit, beyond.  q is a Fraction or an int."""
    p, d = q.as_integer_ratio()
    if p.bit_length() > SHORT_BITS or d.bit_length() > SHORT_BITS:
        p, d = Decimal(p), Decimal(d)
    return str(p) if d == 1 else str(p) + "/" + str(d)
