"""Largest-prime-factor sieve, prime-reciprocal sums, and exact n^t endpoints.

The sieve stores the largest prime factor of every m <= limit and the
ascending primes.  Dividing m by its largest prime factor again and again
lists its prime factors in descending order, which is all that the ranked
factor statistics, the exact box scan and psi_bruteforce read.

It is built in one pass over the table, segment by segment.  Slices write
the primes p <= sqrt(limit) into a segment in ascending order, which leaves
the largest of them dividing m, or 1 where none does: such an m is prime,
since a composite m <= limit has a prime factor p <= sqrt(limit).  A
finalize pass then walks the segment's entries above sqrt(limit) in order,
using lpf(m) = max(p, lpf(m / p)) for a prime p dividing m: 2 for an even
m, the slice prime for an odd one.  The quotient m / p <= m / 2 lies below
the block being finalized, so its entry is already final.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from .errors import DomainError, ParameterError, check_memory

#: build_sieve tiles the largest of these primes dividing m, period 30030
SIEVE_WHEEL = (2, 3, 5, 7, 11, 13)

#: build_sieve writes the other primes up to sqrt(limit) into this many table
#: entries (1 MiB) at a time and finalizes them while they are still in
#: cache; its quotient buffer holds the odd entries of one segment
SIEVE_SEGMENT = 1 << 18

#: mertens_sum takes this many reciprocals (512 KiB) at a time
_SUM_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class PrimeSieve:
    """Largest-prime-factor table for 1..limit and the primes up to limit.

    ``largest_prime_factor[m]`` is the largest prime dividing m (1 at
    indices 0 and 1); m >= 2 is prime iff it equals m.  ``prime_array``
    holds the primes in ascending order as int64.  Both arrays are
    read-only, and so are the arrays whose memory they view, so a sieve can
    be shared across threads.
    """

    limit: int
    largest_prime_factor: np.ndarray
    prime_array: np.ndarray

    def __post_init__(self):
        _read_only(self.largest_prime_factor)
        _read_only(self.prime_array)

    def primes_in_range(self, a: int, b: int) -> np.ndarray:
        """Primes p with a <= p <= b."""
        ps = self.prime_array
        i = np.searchsorted(ps, a, side="left")
        j = np.searchsorted(ps, b, side="right")
        return ps[i:j]


def _prime_count_bound(limit: int) -> int:
    """An upper bound on pi(limit), from pi(x) < 1.25506 x / ln x for x > 1
    (Rosser and Schoenfeld)."""
    return int(1.26 * limit / math.log(limit))


def _read_only(arr: np.ndarray) -> np.ndarray:
    """Make arr and every array whose memory it views read-only, so that no
    write through a base reaches it; returns arr."""
    a = arr
    while isinstance(a, np.ndarray):
        a.flags.writeable = False
        a = a.base
    return arr


def _build_bytes(limit: int) -> int:
    """Upper bound on the peak bytes of build_sieve: the int32 table; the
    int64 prime buffer of _prime_count_bound entries; the finalize
    quotients and their temporaries, 24 bytes per odd entry of one segment;
    the wheel pattern with up to one period of table padding; and 64 KiB of
    Python objects.  That is 4.58 bytes per integer at 10^8 and 4.49 at
    10^9, so the default memory budget admits limits up to about 9.56e8."""
    odd = min(SIEVE_SEGMENT, limit + 1) // 2 + 1
    return (4 * (limit + 1) + 8 * _prime_count_bound(limit)
            + 24 * odd + 8 * math.prod(SIEVE_WHEEL) + (1 << 16))


def build_sieve(limit: int) -> PrimeSieve:
    """Sieve the largest prime factor of every integer in [2, limit].

    Primes p <= sqrt(limit) are written in ascending order, so the largest
    of them dividing m is left in place: the wheel primes 2..13 by tiling
    their periodic pattern, the others one slice per prime inside segments
    of SIEVE_SEGMENT entries.  Each segment is then finalized above
    sqrt(limit) in blocks [s, min(2s, segment end)), so that every entry
    the block reads is below s and already final:

    * an even m takes lpf[m / 2], which is at least 2;
    * an odd m that no slice reached (entry 1) is a prime above sqrt(limit);
    * any other odd m takes max(P, lpf[m / P]), P being its entry.

    The writes move forward through the table, and for a fixed P so do the
    reads.  A float limit is refused.
    """
    limit = _integer_n(limit, "sieve limit")
    if limit < 2 or limit > 2**31 - 1:
        raise ParameterError(f"sieve limit must be in [2, 2^31 - 1], got {limit}")
    check_memory(_build_bytes(limit), f"sieve to {limit}")
    # at least 2, so that 2 is a slice prime and the finalize pass meets
    # only odd primes
    root = max(math.isqrt(limit), 2)
    wheel = [p for p in SIEVE_WHEEL if p <= root]
    pattern = np.ones(math.prod(wheel), dtype=np.int32)
    for p in wheel:
        pattern[::p] = p
    lpf = np.resize(pattern, limit + 1)
    # find the other primes up to root on the head of the table, then write
    # each of them into every segment
    others = []
    head = lpf[: root + 1]
    for p in range(2, root + 1):
        if head[p] == 1:  # no smaller prime divides p
            others.append(p)
            head[p * p::p] = p
    # each prime is written once, ascending, into one buffer sized by the
    # bound on pi(limit); the sieve keeps the filled head
    primes = np.empty(_prime_count_bound(limit), dtype=np.int64)
    filled = len(wheel) + len(others)
    primes[:filled] = wheel + others
    quotient = np.empty(min(SIEVE_SEGMENT, limit + 1) // 2 + 1, dtype=np.intp)
    for start in range(0, limit + 1, SIEVE_SEGMENT):
        end = min(start + SIEVE_SEGMENT, limit + 1)
        seg = lpf[start:end]
        for p in others:
            seg[-start % p::p] = p
        s = max(start, root + 1)
        while s < end:
            e = min(2 * s, end)
            lpf[s + s % 2:e:2] = lpf[(s + 1) // 2:(e + 1) // 2]  # m / 2 >= 2
            odd = lpf[s | 1:e:2]
            q = quotient[: odd.size]
            big = np.flatnonzero(odd == 1) * 2 + (s | 1)  # primes above root
            # P divides m (a prime m has P = 1), so the float64 quotient is
            # an exact integer; a prime reads its own entry, still 1
            np.divide(np.arange(s | 1, e, 2, dtype=np.float64), odd, out=q,
                      casting="unsafe")
            np.maximum(odd, lpf.take(q), out=odd)
            lpf[big] = big
            primes[filled:filled + big.size] = big
            filled += big.size
            s = e
    lpf[0] = 1
    return PrimeSieve(limit=limit, largest_prime_factor=lpf,
                      prime_array=primes[:filled])


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


def _float_power(n: int, t: float) -> float:
    """n^t as a float; ParameterError unless it is finite."""
    try:
        c = math.exp(t * math.log(n)) if n > 1 else 1.0
    except OverflowError:
        c = math.inf
    if not math.isfinite(c):
        raise ParameterError(f"n^t is not a finite float at n = {n}, t = {t:g}")
    return c


def power_floor(n: int, t: float) -> int:
    """floor(n^t) with deterministic resolution of near-integer boundaries."""
    return _power_round(n, t, math.floor, -1)


def power_ceil(n: int, t: float) -> int:
    """ceil(n^t), resolved the same way as power_floor."""
    return _power_round(n, t, math.ceil, 1)


def _integer_n(n, name: str = "n") -> int:
    """n as a Python int, so that its powers never wrap: a numpy integer
    converts exactly; a float, integral or not, or a bool is a
    ParameterError."""
    try:
        if not isinstance(n, bool):
            return operator.index(n)
    except TypeError:
        pass
    raise ParameterError(f"{name} must be an integer, got {n!r}")


def _integer_array(x, name: str = "x") -> np.ndarray:
    """x as an int64 array of its shape, 0-d for a scalar: an int, a numpy
    integer, or an array or sequence of integers.  A float, integral or
    not, or a non-empty array of any other dtype is a ParameterError, so
    that nothing is truncated; an int past int64 raises OverflowError."""
    a = np.asarray(x)
    if a.dtype.kind in "iu" or not a.size:  # an empty list comes as float64
        return a.astype(np.int64, copy=False)
    if a.ndim and a.dtype != object:
        raise ParameterError(f"{name} must be integers, got an array of {a.dtype}")
    # a scalar, or objects such as ints past int64: each one through _integer_n
    return np.array([_integer_n(v, name) for v in a.ravel().tolist()],
                    dtype=np.int64).reshape(a.shape)


def _power_round(n: int, t: float, rounding, step: int) -> int:
    """n^t rounded by math.floor (step -1) or math.ceil (step +1).  A float
    n^t within the band around an integer m0 is placed exactly by
    _compare_power: the result is m0 unless n^t lies on the step's side of
    m0, and then m0 + step."""
    n = _integer_n(n)
    if n < 1 or t < 0:  # a nan t is refused below, as not a finite n^t
        raise ParameterError(f"power_{rounding.__name__} needs n >= 1 and t >= 0")
    c = _float_power(n, t)
    m0 = round(c)
    if abs(c - m0) > max(_BAND_ABS, c * _BAND_REL) or m0 < 1:
        return rounding(c)
    return m0 if _compare_power(m0, n, t) * step >= 0 else m0 + step


# ---------------------------------------------------------------------------
# Mertens sums

def mertens_sum(sieve: PrimeSieve, a: int, b: int) -> float:
    """Sum of 1/p over primes a <= p <= b, accumulated in ascending order.

    The reciprocals are taken _SUM_CHUNK primes at a time into one reused
    buffer whose first element holds the running sum, and np.cumsum adds
    each chunk strictly left to right (np.sum would add pairwise), so the
    value is bit for bit that of a plain loop over the ascending primes and
    the memory does not grow with the range.  Floats are refused.
    """
    if not 2 <= a <= b <= sieve.limit:  # nan and inf fail here
        raise DomainError(f"range [{a}, {b}] invalid or outside sieve limit {sieve.limit}")
    ps = sieve.primes_in_range(_integer_n(a, "a"), _integer_n(b, "b"))
    terms = np.empty(min(ps.size, _SUM_CHUNK) + 1)
    total = 0.0
    for lo in range(0, ps.size, _SUM_CHUNK):
        part = ps[lo:lo + _SUM_CHUNK]
        run = terms[:part.size + 1]
        run[0] = total
        np.divide(1.0, part, out=run[1:])
        total = float(np.cumsum(run, out=run)[-1])
    return total


def mertens_constant_estimate(sieve: PrimeSieve, x: int) -> float:
    """sum_{p <= x} 1/p - log log x; stabilizes to Mertens' constant as x grows."""
    if not x >= 3:
        raise DomainError("need x >= 3 so that log log x is positive")
    if x > sieve.limit:
        raise DomainError(f"x={x} beyond sieve limit {sieve.limit}")
    return mertens_sum(sieve, 2, _integer_n(x, "x")) - math.log(math.log(x))
