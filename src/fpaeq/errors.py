"""The library's exceptions, and the check on the number of bidders every solver and verifier shares."""


class DomainError(ValueError):
    """An argument lies outside the operation's domain."""


class PrecisionError(RuntimeError):
    """No attempt of the finite-grid solver produced a strategy that passes the certificate."""


# Most bidders any solver or verifier accepts.  The exact work grows with n: F**(n-1) has
# n - 1 times the cdf's degree, with coefficients to match.  Measured with CPython 3.11 on
# 2 vCPUs at n = 64, through the CLI: on an 8-piece cubic, ccfpa-explicit and cdfpa
# (three bids) take 0.3 s; on a dense degree-64 piece whose coefficients share a 64-bit
# denominator, near the largest cdf a JSON file may give, ccfpa-explicit takes 2.8-3.4 s, and
# cdfpa (three bids, eps 1/64) 10.4 s and the exact verify of its strategy 10.7 s, each printing
# rationals of about 134,000 characters.  At n = 256 (limit lifted) ccfpa-explicit on the cubic: 0.65 s in process.
MAX_BIDDERS = 64


def check_bidders(n: int) -> None:
    """Raise DomainError unless 2 <= n <= MAX_BIDDERS."""
    if n < 2:
        raise DomainError(f"need n >= 2 bidders, got {n}")
    if n > MAX_BIDDERS:
        raise DomainError(f"n = {n} exceeds the limit of {MAX_BIDDERS} bidders")
