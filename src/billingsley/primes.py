"""Largest-prime-factor sieve, prime-reciprocal sums, and exact n^t endpoints.

The sieve stores the largest prime factor of every m <= limit and the
ascending primes.  Dividing m by its largest prime factor again and again
lists its prime factors in descending order, which is all that the ranked
factor statistics, the exact box scan and psi_bruteforce read.

Slices write the primes p <= sqrt(limit) into the table, which leaves a
prime dividing m, or 1 where none does: such an m is prime, since a
composite m <= limit has a prime factor p <= sqrt(limit).  A finalize pass
then walks the entries above sqrt(limit) in blocks [s, 2s), using
lpf(m) = max(p, lpf(m / p)) for a prime p dividing m: 2 for an even m, the
slice prime for an odd one.  The quotient m / p <= m / 2 lies below s, so
every entry a block reads is already final, and the block's entries do
not depend on one another.  Past the first segment each block is one wave
of segment-sized tasks on every CPU (rng.run_tasks), and a task writes
only the odd multiples of each slice prime, since the pass overwrites
every even entry from m / 2; the table has one correct value whatever the
schedule.
"""
from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from . import rng
from .errors import DomainError, ParameterError, check_memory

#: build_sieve tiles the largest of these primes dividing m, period 30030
SIEVE_WHEEL = (2, 3, 5, 7, 11, 13)

#: a task of build_sieve tiles, slices and finalizes this many table entries
#: (1 MiB) while they are still in cache; each worker's buffers hold the odd
#: entries of one segment
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
    int64 prime buffer of _prime_count_bound entries, and half as many for
    the primes of one wave, as pi(2x) <= 2 pi(x); the shared float64
    offsets, 8 bytes per odd entry of one segment, and 24 bytes per odd
    entry for each worker of the largest wave: its float64 and intp buffers
    and the positions of a task's primes, with room for numpy's cast
    buffers; the wheel pattern, two periods; and 64 KiB, plus 64 bytes per
    prime up to sqrt(limit), of Python objects."""
    odd = min(SIEVE_SEGMENT, limit + 1) // 2 + 1
    workers = min(rng.cpu_count(), -(-(limit + 1) // (2 * SIEVE_SEGMENT)))
    return (4 * (limit + 1) + 12 * _prime_count_bound(limit)
            + odd * (8 + 24 * workers) + 8 * math.prod(SIEVE_WHEEL)
            + 64 * _prime_count_bound(max(math.isqrt(limit), 2)) + (1 << 16))


def build_sieve(limit: int) -> PrimeSieve:
    """Sieve the largest prime factor of every integer in [2, limit].

    Primes p <= sqrt(limit) are written in ascending order, so the largest
    of them dividing m is left in place: the wheel primes 2..13 by tiling
    their periodic pattern, the others one slice per prime.  The table is
    then finalized above sqrt(limit) in blocks [s, min(2s, limit + 1)), so
    that every entry a block reads is below s and already final:

    * an even m takes lpf[m / 2], which is at least 2;
    * an odd m that no slice reached (entry 1) is a prime above sqrt(limit);
    * any other odd m takes max(P, lpf[m / P]), P being its entry.

    The first segment, SIEVE_SEGMENT entries, holds every entry up to
    sqrt(limit), which no block finalizes, so it takes every multiple of
    each slice prime, and its blocks stop at its end.  Past it, a block is
    a wave of SIEVE_SEGMENT-entry tasks run through rng.run_tasks on every
    CPU: each task tiles the wheel into its entries and writes only the odd
    multiples of each slice prime, since the finalize pass overwrites every
    even entry.  A task stores its primes in a buffer for the wave's primes,
    and they go into the prime buffer in task order once the wave is done.
    A float limit is refused.
    """
    limit = _integer_n(limit, "sieve limit")
    if limit < 2 or limit > 2**31 - 1:
        raise ParameterError(f"sieve limit must be in [2, 2^31 - 1], got {limit}")
    check_memory(_build_bytes(limit), f"sieve to {limit}")
    # at least 2, so that 2 is a slice prime and the finalize pass meets
    # only odd primes
    root = max(math.isqrt(limit), 2)
    wheel = [p for p in SIEVE_WHEEL if p <= root]
    period = math.prod(wheel)
    pattern = np.ones(2 * period, dtype=np.int32)  # two periods: any phase
    for p in wheel:
        pattern[::p] = p
    lpf = np.empty(limit + 1, dtype=np.int32)

    def tile(seg, lo):
        """Write the wheel into seg = lpf[lo:lo + seg.size]."""
        window = pattern[lo % period:lo % period + period]
        whole = seg.size - seg.size % period
        seg[:whole].reshape(-1, period)[...] = window
        seg[whole:] = window[:seg.size - whole]

    # the other primes up to root are those the primes up to sqrt(root)
    # leave unmarked on the head of the table; each of them is then written
    # into every entry of the first segment that it divides
    first = lpf[:SIEVE_SEGMENT]
    tile(first, 0)
    head = lpf[: root + 1]
    for p in range(2, math.isqrt(root) + 1):
        if head[p] == 1:  # no smaller prime divides p
            head[p * p::p] = p
    others = (np.flatnonzero(head[2:] == 1) + 2).tolist()
    for p in others:
        first[::p] = p
    # each prime is written once, ascending, into one buffer sized by the
    # bound on pi(limit); the sieve keeps the filled head
    primes = np.empty(_prime_count_bound(limit), dtype=np.int64)
    filled = len(wheel) + len(others)
    primes[:filled] = wheel + others
    # the odd entries of a segment at most, and their distances from the first
    width = min(SIEVE_SEGMENT, limit + 1) // 2 + 1
    offsets = np.arange(0, 2 * width, 2, dtype=np.float64)

    # a wave's primes, in the order its tasks store them: at most pi(s) of
    # them in [s, 2s), since pi(2s) <= 2 pi(s), and so at most half the bound
    found = np.empty(_prime_count_bound(limit) // 2 + 1, dtype=np.int64)
    stored, lock = 0, threading.Lock()

    def finalize(lo, hi, buffers):
        """Finalize lpf[lo:hi], first sieving it past the first segment, and
        return where in found its primes above root are, ascending."""
        nonlocal stored
        if lo >= SIEVE_SEGMENT:
            seg = lpf[lo:hi]
            tile(seg, lo)
            for p in others:
                seg[(p - lo) % (2 * p)::2 * p] = p
        lpf[lo + lo % 2:hi:2] = lpf[(lo + 1) // 2:(hi + 1) // 2]  # m / 2 >= 2
        odd = lpf[lo | 1:hi:2]
        m, q = (b[:odd.size] for b in buffers)
        # P divides m (a prime m has P = 1), so the float64 quotient is an
        # exact integer; a prime reads its own entry, still 1
        np.add(offsets[:odd.size], lo | 1, out=m)
        np.divide(m, odd, out=q, casting="unsafe")
        rows = np.flatnonzero(np.equal(odd, 1, out=m.view(np.bool_)[:odd.size]))
        with lock:
            at, stored = stored, stored + rows.size
        big = np.multiply(rows, 2, out=found[at:at + rows.size])
        big += lo | 1
        np.maximum(odd, lpf.take(q, out=m.view(np.int32)[:odd.size], mode="clip"),
                   out=odd)
        lpf[big] = big
        return at, big.size

    # a worker's buffers go back to spare when its wave ends, so that the
    # next wave writes into pages already mapped
    spare, lent = [], []

    def new_buffers():
        lent.append(spare.pop() if spare else
                    (np.empty(width, dtype=np.float64), np.empty(width, dtype=np.intp)))
        return lent[-1]

    s = root + 1
    while s <= limit:
        e = min(2 * s, limit + 1)
        if s < SIEVE_SEGMENT:
            e = min(e, SIEVE_SEGMENT)
        for at, count in rng.run_tasks(finalize, range(s, e, SIEVE_SEGMENT), new_buffers):
            primes[filled:filled + count] = found[at:at + count]
            filled += count
        stored = 0
        spare += lent
        lent.clear()
        s = e
    lpf[0] = 1
    return PrimeSieve(limit=limit, largest_prime_factor=lpf,
                      prime_array=primes[:filled])


# ---------------------------------------------------------------------------
# exact integer endpoints of n^t

_BAND_REL = 1e-11
_BAND_ABS = 1e-9

#: n^t is estimated in Decimal from here on: exp(t log n) is off by up to a
#: few times 7e-15 relative from 2^32 up, by half a unit from about 10^14
_FLOAT_POWER_MAX = 2.0**40


def _decimal_power(n: int, t: float, digits: int) -> Decimal:
    """n^t for the dyadic value of t, to `digits` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        return (Decimal(t) * Decimal(n).ln()).exp()


def _compare_power(m: int, n: int, t: float) -> int:
    """Sign of m - n^t, decided exactly for the dyadic value of t."""
    num, den = float(t).as_integer_ratio()
    if den <= 64:
        lhs, rhs = m**den, n**num
    else:  # 44 digits past m's integer part: a tie that close cannot occur here
        lhs, rhs = m, _decimal_power(n, t, 44 + max(16, len(str(m))))
    return (lhs > rhs) - (lhs < rhs)


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
    m0, and then m0 + step.  From _FLOAT_POWER_MAX on, the estimate is a
    Decimal to 20 digits past its integer part, and m0 its nearest integer."""
    n = _integer_n(n)
    if n < 1 or t < 0:  # a nan t is refused below, as not a finite n^t
        raise ParameterError(f"power_{rounding.__name__} needs n >= 1 and t >= 0")
    try:
        c = math.exp(t * math.log(n)) if n > 1 else 1.0
    except OverflowError:
        c = math.inf
    if not math.isfinite(c):
        raise ParameterError(f"n^t is not a finite float at n = {n}, t = {t:g}")
    if c >= _FLOAT_POWER_MAX:
        c = _decimal_power(n, t, 20 + len(str(int(c))))
    m0 = round(c)
    if abs(c - m0) > max(_BAND_ABS, float(c) * _BAND_REL) or m0 < 1:
        return rounding(c)
    return m0 if _compare_power(m0, n, t) * step >= 0 else m0 + step


# ---------------------------------------------------------------------------
# Mertens sums

def _require_range(a, b, limit: int) -> None:
    """DomainError unless 2 <= a <= b <= limit; nan and inf fail here."""
    if not 2 <= a <= b <= limit:
        raise DomainError(f"range [{a}, {b}] invalid or outside sieve limit {limit}")


def mertens_sum(sieve: PrimeSieve, a: int, b: int) -> float:
    """Sum of 1/p over primes a <= p <= b, accumulated in ascending order.

    The reciprocals are taken _SUM_CHUNK primes at a time into one reused
    buffer whose first element holds the running sum, and np.cumsum adds
    each chunk strictly left to right (np.sum would add pairwise), so the
    value is bit for bit that of a plain loop over the ascending primes and
    the memory does not grow with the range.  Floats are refused.
    """
    _require_range(a, b, sieve.limit)
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
