"""The library's exceptions, and the checks on a point's integer pair and on the number of bidders."""


class DomainError(ValueError):
    """An argument lies outside the operation's domain."""


class PrecisionError(RuntimeError):
    """No attempt of the finite-grid solver produced a strategy that passes the certificate."""


# Most bidders any solver or verifier accepts.  The exact work grows with n: F**(n-1) has
# n - 1 times the cdf's degree, with coefficients to match.  Measured with CPython 3.11 on
# 2 vCPUs at n = 64, through the CLI: on an 8-piece cubic, ccfpa-explicit and cdfpa (three
# bids) take 0.3 s; on a dense degree-64 piece whose coefficients share a 64-bit denominator,
# near the largest cdf a JSON file may give, ccfpa-explicit takes 1.0 s, printing an integral
# row of 4034 integers of up to 9,800 bits, and the grid verify of that bid 0.6 s; cdfpa (three
# bids, eps 1/64) 0.5 s and the exact verify of its strategy 1.4 s, each printing rationals of
# about 134,000 characters (.github/worst_cases.py).  At n = 256 (limit lifted) ccfpa-explicit on the cubic: 0.65 s in process.
MAX_BIDDERS = 64


def check_unit_ratio(p: int, q: int) -> None:
    """Raise DomainError unless q > 0 and 0 <= p <= q: the pair of ints (p, q) is then a point p/q of [0, 1]."""
    if q <= 0 or not 0 <= p <= q:
        raise DomainError(f"x={p}/{q} " + ("outside [0, 1]" if q > 0 else "needs a denominator q > 0"))


def check_bidders(n: int) -> None:
    """Raise DomainError unless 2 <= n <= MAX_BIDDERS."""
    if n < 2:
        raise DomainError(f"need n >= 2 bidders, got {n}")
    if n > MAX_BIDDERS:
        raise DomainError(f"n = {n} exceeds the limit of {MAX_BIDDERS} bidders")
