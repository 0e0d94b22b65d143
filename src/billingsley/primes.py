"""Smallest-prime-factor sieve, prime-reciprocal sums, and exact n^t endpoints.

The sieve stores the least prime divisor of every m <= limit, which gives
O(log m) factorization for the ranked-factor statistics; a largest-prime-factor
table is derived lazily for the vectorized enumerations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from .errors import DomainError, ParameterError, ResourceError

#: refuse sieves whose arrays would exceed this many bytes (spf + lpf, int32)
DEFAULT_MEMORY_BUDGET = 4 << 30


@dataclass(eq=False)
class PrimeSieve:
    """Least-prime-divisor table for 2..limit.

    ``smallest_prime_factor[m]`` is the least prime dividing m; m is prime
    iff ``smallest_prime_factor[m] == m``.  Index 0 and 1 hold the value 1.
    Instances are immutable after construction and safe to share.
    """

    limit: int
    smallest_prime_factor: np.ndarray
    _primes: np.ndarray | None = field(default=None, repr=False)
    _lpf: np.ndarray | None = field(default=None, repr=False)

    def primes(self) -> np.ndarray:
        """Ascending array of all primes <= limit."""
        if self._primes is None:
            spf = self.smallest_prime_factor
            idx = np.arange(self.limit + 1, dtype=spf.dtype)
            self._primes = np.flatnonzero(spf == idx)[1:].astype(np.int64)  # drop m=1
        return self._primes

    def primes_in_range(self, a: int, b: int) -> np.ndarray:
        """Primes p with a <= p <= b."""
        ps = self.primes()
        i = np.searchsorted(ps, a, side="left")
        j = np.searchsorted(ps, b, side="right")
        return ps[i:j]

    def is_prime(self, m: int) -> bool:
        if m < 2 or m > self.limit:
            return False
        return int(self.smallest_prime_factor[m]) == m

    def largest_prime_factor_table(self) -> np.ndarray:
        """lpf[m] = largest prime factor of m (lpf[1] = 1), built on first use."""
        if self._lpf is None:
            lpf = np.ones(self.limit + 1, dtype=np.int32)
            for p in self.primes():
                lpf[p::p] = p
            self._lpf = lpf
        return self._lpf

    def factorize(self, m: int) -> list[int]:
        """All prime factors of m with multiplicity, ascending."""
        if not 1 <= m <= self.limit:
            raise DomainError(f"{m} outside sieve range [1, {self.limit}]")
        spf = self.smallest_prime_factor
        out = []
        while m > 1:
            p = int(spf[m])
            out.append(p)
            m //= p
        return out


def build_sieve(limit: int, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> PrimeSieve:
    """Sieve the least prime divisor of every integer in [2, limit]."""
    if limit < 2 or limit > 2**31 - 1:
        raise ParameterError(f"sieve limit must be in [2, 2^31 - 1], got {limit}")
    if 8 * (limit + 1) > memory_budget:
        raise ResourceError(
            f"sieve to {limit} needs ~{8 * (limit + 1) / 2**30:.1f} GiB, "
            f"budget is {memory_budget / 2**30:.1f} GiB"
        )
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p:: p]
            block[block == 0] = p
    rest = np.flatnonzero(spf == 0)
    spf[rest] = rest
    spf[0:2] = 1
    return PrimeSieve(limit=limit, smallest_prime_factor=spf)


# ---------------------------------------------------------------------------
# exact integer endpoints of n^t

_BAND_REL = 1e-11
_BAND_ABS = 1e-9


def _compare_power(m: int, n: int, t: float) -> int:
    """Sign of m - n^t, decided exactly for the dyadic value of t."""
    frac = Fraction(t)
    num, den = frac.numerator, frac.denominator
    if den <= 64:
        lhs = m**den
        rhs = n**num
        return (lhs > rhs) - (lhs < rhs)
    # high-precision fallback; a tie at 60 digits cannot occur for these sizes
    with localcontext() as ctx:
        ctx.prec = 60
        val = (Decimal(t) * Decimal(n).ln()).exp()
        dm = Decimal(m)
    return (dm > val) - (dm < val)


def power_floor(n: int, t: float) -> int:
    """floor(n^t) with deterministic resolution of near-integer boundaries."""
    if n < 1 or t < 0:
        raise ParameterError("power_floor needs n >= 1 and t >= 0")
    c = math.exp(t * math.log(n)) if n > 1 else 1.0
    m0 = round(c)
    if abs(c - m0) > max(_BAND_ABS, c * _BAND_REL) or m0 < 1:
        return math.floor(c)
    return m0 if _compare_power(m0, n, t) <= 0 else m0 - 1


def power_ceil(n: int, t: float) -> int:
    """ceil(n^t), resolved the same way as power_floor."""
    if n < 1 or t < 0:
        raise ParameterError("power_ceil needs n >= 1 and t >= 0")
    c = math.exp(t * math.log(n)) if n > 1 else 1.0
    m0 = round(c)
    if abs(c - m0) > max(_BAND_ABS, c * _BAND_REL) or m0 < 1:
        return math.ceil(c)
    return m0 if _compare_power(m0, n, t) >= 0 else m0 + 1


# ---------------------------------------------------------------------------
# Mertens sums

def mertens_sum(sieve: PrimeSieve, a: int, b: int) -> float:
    """Sum of 1/p over primes a <= p <= b, accumulated in ascending order.

    Plain double accumulation: restarting from a partial sum and folding in
    the remaining primes reproduces the full-range value exactly.
    """
    if not 2 <= a or a > b or b > sieve.limit:
        raise DomainError(f"range [{a}, {b}] invalid or outside sieve limit {sieve.limit}")
    total = 0.0
    for p in sieve.primes_in_range(a, b).tolist():
        total += 1.0 / p
    return total


def mertens_sum_from(sieve: PrimeSieve, a: int, b: int, start: float) -> float:
    """Continue the ascending accumulation of 1/p over [a, b] from ``start``."""
    if not 2 <= a or a > b or b > sieve.limit:
        raise DomainError(f"range [{a}, {b}] invalid or outside sieve limit {sieve.limit}")
    total = float(start)
    for p in sieve.primes_in_range(a, b).tolist():
        total += 1.0 / p
    return total


def mertens_constant_estimate(sieve: PrimeSieve, x: int) -> float:
    """sum_{p <= x} 1/p - log log x; stabilizes to Mertens' constant as x grows."""
    if x < 3:
        raise DomainError("need x >= 3 so that log log x is positive")
    if x > sieve.limit:
        raise DomainError(f"x={x} beyond sieve limit {sieve.limit}")
    return mertens_sum(sieve, 2, x) - math.log(math.log(x))
