"""Ranked prime factors of random integers and box probabilities, three ways.

For a box B = prod [t_i, t_i + dt_i] the probability P(P_i(N) in
[n^{t_i}, n^{t_i+dt_i}], i=1..k) for N uniform on [1, n] is computed by

* exact enumeration of all m <= n (vectorized largest-factor scans),
* the prime-tuple identity sum_{p_1 >= ... >= p_k} Psi(n/(p_1...p_k), p_k)/n,
* Monte Carlo over the seed's counter-based stream.

All three resolve interval endpoints through the same power_ceil/power_floor
pair, so a prime on the boundary classifies identically everywhere; the first
two must agree to the integer.

The identity sums the innermost prime in closed form: the m <= N whose
largest prime lies in [a, b] number sum_{a <= q <= b} Psi(N/q, q) =
Psi(N, b) - Psi(N, a - 1).  Tuples run over the outer k - 1 ranges; rows
whose quotient N is at most the Psi engine's leaf limit (2^20) read it off
one prefix count of the leaf table's labels in [a, b], and only larger N
are expanded and swept.  The identity reads the sieve's prime list but
never its largest-prime-factor table, which the scan reads, so each route
checks the other through an independently built table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import DomainError, ParameterError, ResourceError, check_memory
from .primes import PrimeSieve, _integer_n, power_ceil, power_floor
from .smoothcount import default_engine

#: most draws one Monte Carlo estimate may make, about five minutes on one
#: CPU at n = 10^7: the draws stream through fixed buffers, so no memory
#: bound refuses a larger budget
MAX_MC_SAMPLES = 1 << 33

#: integers per task of the exact scan
SCAN_CHUNK = 1 << 18

#: share of True in a rank-1 mask above which _positions pads it past a
#: tenth.  numpy 2.4 lists the positions of a mask at most a tenth True by a
#: skip loop, else by a branch-free pass of about 1.3 ns an entry on a
#: 2-vCPU Xeon VM; the skip loop costs as much at a share of 3.0 to 3.3%,
#: and 2 to 3 times as much near a tenth, measured over fresh scan and
#: Monte Carlo masks of 2^18 and 2^16 entries (one mask listed over and over
#: trains the branch predictor, which hides the skip loop's cost)
_PAD_FROM = 0.03

#: prime tuples box_probability_via_psi forms and counts at a time, which
#: set the route's peak memory: a tracemalloc peak of 14 MiB on the tests'
#: k = 3 box at 10^13, against 52 MiB at 2^20, which was no faster
PSI_TUPLE_CHUNK = 1 << 18


@dataclass(frozen=True)
class BoxSpec:
    """A closed coordinate box prod_i [t[i], t[i] + dt[i]], listed largest
    coordinate first."""

    t: tuple
    dt: tuple

    def __post_init__(self):
        object.__setattr__(self, "t", tuple(float(v) for v in self.t))
        object.__setattr__(self, "dt", tuple(float(v) for v in self.dt))
        if len(self.t) != len(self.dt) or not self.t:
            raise ParameterError("t and dt must be non-empty and equally long")
        if any(not math.isfinite(v) for v in self.t + self.dt):
            raise ParameterError("box coordinates must be finite")
        if any(d <= 0 for d in self.dt):
            raise ParameterError("box widths must be positive")

    @property
    def k(self) -> int:
        return len(self.t)

    def volume(self) -> float:
        return float(np.prod(self.dt))

    def diameter(self) -> float:
        return math.sqrt(sum(d * d for d in self.dt))

    def upper(self) -> tuple:
        return tuple(a + b for a, b in zip(self.t, self.dt))

    def _facets(self) -> list[float]:
        """Distances from the box's nearest vertex to U's k+1 facet
        hyperplanes: t_k = 0, then t_i = t_{i+1} for i = 1..k-1, then
        sum t_i = 1.  Each is positive iff the box is on U's side of it."""
        t, up, k = self.t, self.upper(), self.k
        return ([t[-1]] + [(t[i] - up[i + 1]) / math.sqrt(2.0) for i in range(k - 1)]
                + [(1.0 - sum(up)) / math.sqrt(k)])

    def _violation(self) -> str | None:
        """Why the box is not inside U, for the first facet it reaches."""
        up = self.upper()
        i = next((i for i, d in enumerate(self._facets()) if d <= 0), None)
        if i is None:
            return None
        if i == 0:
            return f"t_{self.k} = {self.t[-1]} is not > 0"
        if i < self.k:
            return f"t_{i + 1} + dt_{i + 1} = {up[i]} is not < t_{i} = {self.t[i - 1]}"
        return f"sum of right endpoints = {sum(up)} is not < 1"

    def require_inside_u(self) -> None:
        reason = self._violation()
        if reason is not None:
            raise DomainError(f"box not inside U: {reason}")

    def u0(self) -> float:
        """(1 - sum t_i) / t_k, the largest rho argument over the box."""
        return (1.0 - sum(self.t)) / self.t[-1]

    @classmethod
    def from_string(cls, text: str) -> "BoxSpec":
        """Parse 't1,dt1;t2,dt2;...'."""
        ts, dts = [], []
        for part in text.split(";"):
            try:  # a field that is not a number, or not two fields
                t, dt = (float(v) for v in part.split(","))
            except ValueError:
                raise ParameterError(f"bad box component {part!r}, want 't,dt'") from None
            ts.append(t)
            dts.append(dt)
        return cls(t=tuple(ts), dt=tuple(dts))


@dataclass(frozen=True)
class ExactProbability:
    count: int
    total: int

    @property
    def value(self) -> float:
        return self.count / self.total


@dataclass(frozen=True)
class EmpiricalEstimate:
    hits: int
    total: int

    @property
    def p_hat(self) -> float:
        return self.hits / self.total

    @property
    def std_err(self) -> float:
        p = self.p_hat
        return math.sqrt(p * (1.0 - p) / self.total)


def _peel(sieve: PrimeSieve, m: np.ndarray, k: int) -> np.ndarray:
    """The k largest prime factors of each m in [1, limit] with multiplicity,
    descending and padded with 1, as an (m.size, k) array: rank i is the
    largest prime factor of m with the i larger ranks divided out."""
    if k < 1:
        raise ParameterError("k must be >= 1")
    lpf = sieve.largest_prime_factor
    out = np.empty((k, m.size), dtype=lpf.dtype)
    for i in range(k):
        if i:
            m = m // out[i - 1]
        out[i] = lpf[m]
    return out.T


def _factor_rows(sieve: PrimeSieve, n: int, N: np.ndarray, k: int) -> np.recarray:
    p = _peel(sieve, N, k)
    # math.log, not np.log, which differs from it in the last bit on some primes
    logn = math.log(n)
    q, inv = np.unique(p, return_inverse=True)
    scaled = np.array([math.log(v) / logn if v > 1 else 0.0 for v in q.tolist()])
    rows = np.recarray(N.size, dtype=[("N", np.int64), ("p", p.dtype, (k,)),
                                      ("L", np.float64, (k,))])
    rows.N, rows.p, rows.L = N, p, scaled[inv.reshape(p.shape)]
    return rows


def prime_bounds(n: int, box: BoxSpec) -> list[tuple[int, int]]:
    """Integer interval [max(ceil(n^t_i), 2), floor(n^{t_i+dt_i})] per
    coordinate: the padding 1 of _peel is never a rank inside a box."""
    return [(max(power_ceil(n, t), 2), power_floor(n, t + d))
            for t, d in zip(box.t, box.dt)]


def box_probability_exact(sieve: PrimeSieve, n: int, box: BoxSpec) -> ExactProbability:
    """Exact count of m <= n whose ranked factors fall in the box's prime
    intervals, scanned in chunks of SCAN_CHUNK integers off the sieve: rank
    1 is a slice of the table, and only the m whose rank 1 is inside go on
    to be peeled.  The chunks are run_tasks tasks, pooled from two whole
    chunks on."""
    n = _integer_n(n)
    if n < 1 or n > sieve.limit:
        raise DomainError(f"n={n} outside sieve range [1, {sieve.limit}]")
    bounds = _scan_bounds(sieve, n, box)
    lpf = sieve.largest_prime_factor

    def chunk_count(lo, hi, masks):
        return _count_survivors(lpf, lpf[lo:hi], bounds,
                                lambda rows: np.add(rows, lo, out=rows), masks)

    counts = rng.run_tasks(chunk_count, range(1, n + 1, SCAN_CHUNK),
                           lambda: _masks(min(SCAN_CHUNK, n)))
    return ExactProbability(count=sum(counts), total=n)


def _masks(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The two boolean buffers _count_survivors compares rank 1 into.  The
    first has size // 9 + 1 entries of room past size, where _positions
    writes True until more than a tenth of the longer mask is True, from
    any count of True in the first size entries."""
    return np.empty(size + size // 9 + 1, dtype=bool), np.empty(size, dtype=bool)


def _scan_bounds(sieve: PrimeSieve, n: int, box: BoxSpec) -> list | None:
    """prime_bounds cut at the sieve limit, where the primes stop, so that
    they compare in the table's int32; None if some interval is empty."""
    bounds = [(lo, min(hi, sieve.limit)) for lo, hi in prime_bounds(n, box)]
    return None if any(lo > hi for lo, hi in bounds) else bounds


def _count_survivors(lpf: np.ndarray, p: np.ndarray, bounds, m_at, masks) -> int:
    """How many integers have ranks 1..k inside the _scan_bounds intervals,
    given rank 1 of each as p and the integers at chosen positions as
    m_at(rows): an intp array of their own that the peel divides in place,
    which may be rows itself, as rows is read before it.

    Rank 1 is compared into the boolean buffers masks (_masks of at least
    p's size) and counted before its positions are listed, so that a share
    of True in (_PAD_FROM, 1/10] is listed on numpy's branch-free pass.
    Rank i + 1 is divided out and read only at the positions of the
    integers whose ranks 1..i are inside; the last rank is counted, never
    compacted.  Padding 1 peels 1 to itself, as in _peel.
    """
    if bounds is None:
        return 0
    (lo, hi), *rest = bounds
    mask, upto = masks
    inside = mask[:p.size]
    np.greater_equal(p, lo, out=inside)
    inside &= np.less_equal(p, hi, out=upto[:p.size])
    count = int(np.count_nonzero(inside))
    if not rest or not count:
        return count
    rows = _positions(mask, p.size, count)
    p = p[rows]
    m = m_at(rows)
    *middle, (lo, hi) = rest
    for lo_i, hi_i in middle:
        p = lpf[_divide_out(m, p)]
        keep = np.flatnonzero((p >= lo_i) & (p <= hi_i))
        m, p = m[keep], p[keep]
    p = lpf[_divide_out(m, p)]
    return int(np.count_nonzero((p >= lo) & (p <= hi)))


def _divide_out(m: np.ndarray, p: np.ndarray) -> np.ndarray:
    """m //= p in place, for an intp array m and each p a divisor of its m:
    the float quotient of integers below 2^53 is then exact, and cheaper
    than an integer division, and written back into m it allocates no
    array."""
    return np.divide(m, p, out=m, casting="unsafe")


def _positions(mask: np.ndarray, size: int, count: int) -> np.ndarray:
    """np.flatnonzero(mask[:size]), given its count of True and the room
    of _masks past size.  For counts in (_PAD_FROM, 1/10] of size, True is
    written past size until just over a tenth of the longer mask is True,
    which numpy lists on its branch-free pass, and only the first count
    positions are kept."""
    if not _PAD_FROM * size < count <= size // 10:
        return np.flatnonzero(mask[:size])
    end = size + (size - 10 * count) // 9 + 1
    mask[size:end] = True
    return np.flatnonzero(mask[:end])[:count]


def box_probability_via_psi(sieve: PrimeSieve, n: int, box: BoxSpec) -> ExactProbability:
    """The same probability through the prime-tuple sum
    sum Psi(n // (p_1 ... p_k), p_k), with the innermost prime in closed form.

    Requires the box inside U, which makes the per-coordinate prime ranges
    disjoint and descending: tuples are strictly ordered and the underlying
    events disjoint, so the sum counts each m exactly once.

    Tuples run over the outer k - 1 ranges only.  Each m <= N whose largest
    prime lies in the innermost range [a, b] is counted once by
    sum_{a <= q <= b} Psi(N // q, q) = Psi(N, b) - Psi(N, a - 1), the m <= N
    labelled in [a, b] in the Psi engine's leaf table: the rows with quotient
    N = n // (p_1 ... p_{k-1}) <= LEAF_LIMIT (k = 1 has the one row N = n)
    read it off one int32 prefix count of those labels, built once per call
    up to the largest such N.  The table cannot answer a larger N, so those
    rows expand the innermost prime as well and go to the engine's psi_sum.

    Only the sieve's prime list is read, never its largest-prime-factor
    table: the exact scan reads that table and this route the engine's, so
    each is an independent check on the other.
    """
    n = _integer_n(n)
    box.require_inside_u()
    if not 1 <= n < 1 << 63:
        raise DomainError("n must be in [1, 2^63 - 1]")
    bounds = prime_bounds(n, box)
    if bounds[0][1] > sieve.limit:
        raise DomainError(
            f"top prime range reaches {bounds[0][1]}, beyond sieve limit {sieve.limit}")
    *outer, (a, b) = bounds
    ranges = [sieve.primes_in_range(lo, hi) for lo, hi in outer]
    inner = [sieve.primes_in_range(a, b)]
    engine = default_engine()
    top = min(n // math.prod(lo for lo, _ in outer), engine.leaf_limit)  # >= every leaf row's N
    lab = engine.leaf_labels[1:top + 1]  # index 0 is the table's sentinel
    below = np.zeros(top + 1, dtype=np.int32)  # below[N]: the m <= N labelled in [a, b]
    np.cumsum((lab >= a) & (lab <= b), dtype=np.int32, out=below[1:])
    count = 0
    for N, _ in _prime_tuples(np.array([n], dtype=np.int64), ranges):
        small = N <= engine.leaf_limit
        count += int(below[N[small]].sum(dtype=np.int64))
        count += sum(engine.psi_sum(z, q) for z, q in _prime_tuples(N[~small], inner))
    return ExactProbability(count=count, total=n)


def _prime_tuples(N: np.ndarray, ranges: list):
    """Yield (N // (p_1 ... p_j), p_j) as int64 arrays over the quotients N
    and the tuples drawn one prime per range with p_1 ... p_j <= N, about
    PSI_TUPLE_CHUNK at a time (p_j is None when there are no ranges).
    Quotients only shrink, so nothing overflows."""
    def extend(z, last, level):
        if level == len(ranges):
            yield z, last
            return
        primes = ranges[level]
        step = max(1, PSI_TUPLE_CHUNK // max(primes.size, 1))
        for start in range(0, z.size, step):
            head = z[start:start + step]
            rows, cols = np.nonzero(primes[None, :] <= head[:, None])
            yield from extend(head[rows] // primes[cols], primes[cols], level + 1)

    yield from extend(N, None, 0)


def sample_box_probability(sieve: PrimeSieve, n: int, box: BoxSpec, samples: int,
                           seed: int = rng.DEFAULT_SEED) -> EmpiricalEstimate:
    """Monte Carlo estimate of the box probability.

    The draws are 0..samples-1 of the seed's stream, exactly the integers
    sample_factor_vectors ranks for the same seed and count, so the
    estimate depends only on (seed, samples).  Each block of
    rng.BLOCK_WORDS draws is one run_tasks task, drawn and counted through
    its worker's buffers.
    """
    n, samples = _integer_n(n), _integer_n(samples, "samples")
    if samples < 1:
        raise ParameterError("samples must be >= 1")
    if samples > MAX_MC_SAMPLES:
        raise ResourceError(f"{samples} Monte Carlo draws are more than the cap "
                            f"of {MAX_MC_SAMPLES}")
    if n < 1 or n > sieve.limit:
        raise DomainError(f"n={n} outside sieve range [1, {sieve.limit}]")
    bounds = _scan_bounds(sieve, n, box)
    lpf = sieve.largest_prime_factor
    key = rng.stream_key(seed)
    block = min(samples, rng.BLOCK_WORDS)

    def block_hits(lo, hi, buffers):
        ints, p, masks = buffers
        m = rng._int_block(key, lo, n, ints, ints[1][:hi - lo].view(np.int64))
        # every draw lies in [1, n], so clipping never moves one
        p = np.take(lpf, m, out=p[:m.size], mode="clip")
        return _count_survivors(lpf, p, bounds, lambda rows: m[rows], masks)

    hits = sum(rng.run_tasks(block_hits, range(0, samples, block), lambda: (
        rng._int_buffers(block), np.empty(block, dtype=lpf.dtype), _masks(block))))
    return EmpiricalEstimate(hits, samples)


def sample_factor_vectors(sieve: PrimeSieve, n: int, count: int, k: int,
                          seed: int = rng.DEFAULT_SEED) -> np.recarray:
    """Draw `count` uniform integers from [1, n] and rank their factors.

    Returns a record array of `count` rows with fields N (int64), p (the
    sieve's int32, shape (k,): the k largest prime factors, descending and
    padded with 1) and L (float64, shape (k,): log p / log n, 0 for the
    padding).  rows.N, rows.p and rows.L are column views; rows[i] and
    iteration give records with the same fields.

    Refuses, before any draw, a count or k below 1 and rows whose peak
    memory would exceed the budget: about 9 + 37 k bytes each, up to 59 at
    k = 1 where the draw's fixed buffers weigh on 2*10^4 rows (tracemalloc
    at k = 1 to 16), counted as 32 + 40 k.  Floats are refused.
    """
    n, count, k = _integer_n(n), _integer_n(count, "count"), _integer_n(k, "k")
    if count < 1:
        raise ParameterError("count must be >= 1")
    if k < 1:
        raise ParameterError("k must be >= 1")
    if n < 1 or n > sieve.limit:
        raise DomainError(f"n={n} outside sieve range [1, {sieve.limit}]")
    check_memory((32 + 40 * k) * count, f"{count} factor rows of rank {k}")
    return _factor_rows(sieve, n, rng.uniform_ints(seed, count, n), k)
