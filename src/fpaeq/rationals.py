"""Parsing and formatting of exact rationals as "p/q" strings."""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from .errors import DomainError

# Longest digit string int() reads in one call: CPython's smallest int-to-str limit, so int() takes it whatever the
# limit is set to.  A longer one is read by halves (_digits).
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
    first build the power of ten.  The form "-?digits(/digits)?" in ASCII,
    which :func:`format_rational` writes, is read at any length (:func:`_pair`);
    every other string by Fraction.
    """
    pair = _pair(value)
    if pair is not None:
        return Fraction(*pair)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # an int subclass: JSON true and false are not 1 and 0
        raise ValueError(f"not a rational: {shown(value)} (booleans are not accepted)")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"not a rational: {shown(value)} (exponent notation is not accepted)")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {shown(value)}") from exc
    if isinstance(value, float):
        raise ValueError(f"not a rational: {shown(value)} (floats are not accepted)")
    raise ValueError(f"not a rational: {shown(value)} (expected a \"p/q\" or integer string, or an integer)")


def _pair(value) -> tuple[int, int] | None:
    """The two ints of an ASCII string in the form "-?digits(/digits)?" with a nonzero denominator, as written
    ("14/32" gives (14, 32)); None for any other value.  A part of more than SHORT digits is read by halves."""
    if value.__class__ is str and value.isascii():
        num, slash, den = value.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdigit():
            if not slash:
                return _digits(num), 1
            if den.isdigit() and (q := _digits(den)):
                return _digits(num), q
    return None


def _digits(text: str) -> int:
    """int(text) for "-?digits" of any length: up to SHORT digits by int, beyond by halves joined as
    high * 10**len(low) + low, with no int-to-str limit and in subquadratic time, where int() is quadratic."""
    if len(text) <= SHORT:
        return int(text)
    if text[0] == "-":
        return -_digits(text[1:])
    half = len(text) // 2
    return _digits(text[:-half]) * 10**half + _digits(text[-half:])


def rational_pair(value) -> tuple[int, int]:
    """parse_rational(value) as (numerator, denominator), denominator > 0, with no Fraction for the common form
    "-?digits(/digits)?", whose ints come as written and need not be in lowest terms; every other value goes
    through parse_rational, with its errors."""
    return _pair(value) or parse_rational(value).as_integer_ratio()


def parse_rational_list(value, what: str, parse=parse_rational) -> tuple:
    """A JSON array of rationals as a tuple of Fractions, or of what parse makes of each; DomainError for any other shape."""
    if not isinstance(value, list):
        raise DomainError(f"{what} must be a JSON array of rationals, got {shown(value)}")
    return tuple(parse(x) for x in value)


def format_rational(q: Fraction) -> str:
    """q as "p/q", or "p" for an integer, with every digit: by str up to SHORT digits, which every int-to-str limit
    allows, and by Decimal, which has no limit, beyond.  q is a Fraction or an int."""
    p, d = q.as_integer_ratio()
    if p.bit_length() > SHORT_BITS or d.bit_length() > SHORT_BITS:
        p, d = Decimal(p), Decimal(d)
    return str(p) if d == 1 else str(p) + "/" + str(d)


def shown(value) -> str:
    """repr(value) for an error message, cut to its first 60 and last 20 characters where it has more than 100."""
    text = repr(value)
    return text if len(text) <= 100 else f"{text[:60]}...{text[-20:]} ({len(text)} characters)"
