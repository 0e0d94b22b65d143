"""Counting y-smooth integers: Psi(x, y) by two independent exact routes plus
the Dickman approximation x * rho(log x / log y).

psi_bruteforce scans largest prime factors off a PrimeSieve.  psi_exact runs
a PsiEngine, which keeps its own Eratosthenes prime list and shares no table
with PrimeSieve, so each route serves as the other's oracle.  Batches
(psi_sum) always sweep; a single psi_exact call may instead read a prime-count
table, below.
All quotient arithmetic is exact integer division.

The engine evaluates a whole batch sum_r Psi(x_r, y_r) in numpy by sweeping
the primes from the largest label down (the batched "special leaves" step of
Lagarias-Miller-Odlyzko and Deleglise-Rivat).  Stage j holds the distinct
quotients z, with int64 multiplicities, that still need Psi(z, p_j):

* z <= p_j counts z;
* p_j < z <= T (the leaf limit) takes one of the three routes below;
* other z < (p_j + 1)^2 use the one-large-factor identity
  Psi(z, p) = z - sum_{p < q <= z} floor(z/q)
            = z - sum_{r <= z/(p+1)} (pi(z // r) - pi(p));
* any other z passes z // p_j^k, k >= 0, on to stage j - 1, where equal
  quotients merge; at p_j <= SMOOTH_CLOSE the sweep closes instead, each z
  one search in the p_j-smooth numbers up to the largest z (at most 327,090
  numbers, 2.6 MB, at z = 2^62).

The leaf set holds the integers up to T whose largest prime factor is at
most p_j.  A refilter filters the previous refilter's set down to it; the
first one scans a table of all integers up to T labelled by largest prime
factor and counts as T entries.  Each leaf-range z is then one search.

* If all of the stage's leaf-range z admit the identity and its rows are
  no more than the leaf set's entries, they take the identity.
* Otherwise, if they number at least 1 / REFILTER_RATIO of those entries,
  the set is refiltered and they are counted off it.
* Otherwise they are too few to pay for a refilter and pass on like the
  z above T.  Passed-on quotients gather, merged, until a stage holds
  enough of them.

A single x <= T skips the sweep: one count off the leaf table, the same
streamed label count as psi_bruteforce's, for an int or an array of x, with
memory that grows with the number of x, not with their size.

A single x > T with y >= TABLE_CUBE_RATIO * x^(1/3) skips it too: the
engine tabulates pi at every floor quotient x // m by the Lucy/Legendre
recurrence (Lagarias-Miller-Odlyzko 1985, Deleglise-Rivat 1996), x^(3/4) /
log x work in three int64 arrays of sqrt(x) entries: 3 ms at 10^7, 0.3-0.4
s at 10^11 and 1.4-1.9 s at 10^12 (a 33 MB peak).  For (y + 1)^2 > x,
Psi(x, y) is the one-large-factor identity read off it, with pi(y) off the
engine's primes up to T, or past T a second, smaller table, when y is not a
floor quotient of x; below sqrt(x), Psi(x, y) = Psi(x, sqrt x) - sum_{y < p
<= sqrt x} Psi(x // p, p), each term the same identity off the same table.
Each table lives for one call, so a y-ladder at one x builds it anew on
every rung.

Feasibility: the sweep's identity needs the primes up to min(x, (y+1)^2).
The engine's prime list grows geometrically to that, capped at PRIME_CAP =
10^8: on the sweep, y beyond the cap raises ResourceError, and quotients
beyond it are divided down instead.  The table grows no list: its stages
read the engine's primes up to T and its later primes are the steps of its
own counts, so it answers y past the cap and any x below 1048573^3 whose
memory check_memory admits before any work.  psi_exact(10^12, 1000) takes
about 0.15 s on a 2-vCPU Xeon VM; the sweep's work grows with the number of
distinct quotients above T, roughly x / T divisors.  The x of a batch must
sum to at most 2^62 so that every weighted partial sum fits in int64;
larger batches raise ResourceError before any work.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .dickman import DickmanTable, rho
from .errors import (DomainError, ParameterError, ResourceError, _integer_array, _integer_n,
                     check_memory)
from .primes import PrimeSieve, _read_only

#: never sieve the internal prime list beyond this
PRIME_CAP = 10**8

#: quotients up to this many are answered from the engine's leaf table
LEAF_LIMIT = 1 << 20

#: a stage refilters the leaf set only for at least 1 / REFILTER_RATIO of its
#: entries in leaf-range quotients (the first build counts as T entries);
#: in a sweep of 16..128 on psi_exact(3e11 and 1e12, 1000), 24-64 were
#: within 5% of each other and 16, 96 and 128 slower
REFILTER_RATIO = 48

#: the x of one batch must sum to at most this: a weight times a count stays
#: below twice the batch's x, so every partial sum fits in int64
X_SUM_LIMIT = 1 << 62

#: the one-large-factor identity expands at most about this many rows at once
IDENTITY_ROWS = 1 << 22

#: psi_exact takes the prime-count table for y below sqrt(x) only from y >=
#: TABLE_CUBE_RATIO * x^(1/3) on.  Seconds in a fresh process, sweep / table,
#: medians of 3 to 7 on a 2-vCPU Xeon VM: at y = x^(1/3), 0.0034/0.0057 (x =
#: 10^7), 0.0057/0.0062 (10^8), 0.020/0.017 (10^9), 0.061/0.066 (10^10),
#: 0.23/0.29 (10^11), 1.32/1.48 (10^12); at 1.1 x^(1/3), tied up to 10^8 and
#: 0.13/0.065, 0.58/0.30, 3.0/1.4 at 10^10..10^12; at 1.25 x^(1/3),
#: 0.0020/0.0015 (2e6), 0.0028/0.0023, 0.010/0.0087, 0.022/0.015, 0.125/0.063,
#: 0.53/0.29, 3.2/1.4; from there to 2 x^(1/3) the table won at every x
TABLE_CUBE_RATIO = 1.25

#: a label count compares this many int32 labels at a time into one 64 KiB buffer
_COUNT_CHUNK = 1 << 16

#: the prime-count table gathers its floor quotients this many at a time
_TABLE_CHUNK = 1 << 18

#: the sweep closes at the first stage whose prime is at most this.  In a
#: sweep of 5..17 on psi_exact(3e11 and 1e12, 1e3), (1e11, 1e4) and (1e10,
#: 1e5), 7-17 tied on time; 11 bounds the smooth list at 2^62 by 327,090
#: numbers (2.6 MB, 10 ms to build), against 1.16M (9.3 MB) for 13
SMOOTH_CLOSE = 11


def _eratosthenes(limit: int) -> np.ndarray:
    """Ascending int64 array of the primes <= limit."""
    comp = np.zeros(limit + 1, dtype=bool)
    comp[:2] = True
    for p in range(2, math.isqrt(limit) + 1):
        if not comp[p]:
            comp[p * p:: p] = True
    # complemented in place, and flatnonzero's int64 indices kept as they are:
    # the peak is the flags and the primes, with no table-sized copy
    return np.flatnonzero(np.logical_not(comp, out=comp)).astype(np.int64, copy=False)


def _smooth_numbers(primes: np.ndarray, limit: int) -> np.ndarray:
    """Ascending int64 array of the m in [1, limit] with no prime factor
    outside primes, multiplied out from [1] one prime at a time."""
    s = np.ones(1, dtype=np.int64)
    for q in primes.tolist():
        parts = [s]
        while parts[-1].size:  # cut before multiplying, so nothing wraps
            parts.append(parts[-1][parts[-1] <= limit // q] * q)
        s = np.concatenate(parts)
    return np.sort(s)


def _merge(z: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort z ascending and sum the weights of equal z (int64 throughout)."""
    order = np.argsort(z, kind="stable")  # z is a few sorted runs
    z, w = z[order], w[order]
    first = np.ones(z.size, dtype=bool)
    np.not_equal(z[1:], z[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return z[starts], np.add.reduceat(w, starts)


class PsiEngine:
    """Exact sums of smooth-number counts, with a cached prime list and leaf
    table.  Results never depend on call history; only the sweep grows the
    prime list, a prime-count table lives for one call, and every cache is
    read-only, so a shared engine cannot be corrupted through them.
    """

    def __init__(self):
        self.leaf_limit = self.prime_limit = leaf_limit = LEAF_LIMIT
        self.primes = _eratosthenes(self.prime_limit)
        # leaf table: largest prime factor of every m <= T, multiplied out
        # from the engine's own primes (lab[1] = 1; index 0 never matches).
        # Each m has at most one prime factor above sqrt(T), so those are
        # written last, one cofactor r at a time.
        lab = np.ones(leaf_limit + 1, dtype=np.int32)
        root = math.isqrt(leaf_limit)
        for p in self.primes[self.primes <= root].tolist():
            lab[p::p] = p
        big = self.primes[(self.primes > root) & (self.primes <= leaf_limit)]
        for r in range(1, leaf_limit // int(big[0]) + 1):
            q = big[: np.searchsorted(big, leaf_limit // r, side="right")]
            lab[q * r] = q
        lab[0] = np.iinfo(np.int32).max
        self.leaf_labels = _read_only(lab)
        _read_only(self.primes)

    def _ensure_primes(self, limit: int) -> np.ndarray:
        if limit > self.prime_limit:
            if limit > PRIME_CAP:
                raise ResourceError(f"prime list to {limit} exceeds cap {PRIME_CAP}")
            limit = min(max(limit, 2 * self.prime_limit), PRIME_CAP)  # grow geometrically
            self.primes = _read_only(_eratosthenes(limit))
            self.prime_limit = limit
        return self.primes

    def psi_small(self, x, y: int):
        """Psi(x, y) for 1 <= x <= T off the leaf table; x is an int, or an
        integer array for an int64 array of counts.  Floats are refused."""
        return _count_labels(self.leaf_labels, x, _integer_n(y, "y"))

    def psi_sum(self, x, y) -> int:
        """sum_r Psi(x[r], y[r]) over equally shaped integer arrays; terms
        with x < 1 count 0.  Floats and arrays of them are refused, and so
        are x or y past int64."""
        try:
            x = _integer_array(x, "x").ravel()
            y = _integer_array(y, "y").ravel()
        except OverflowError:
            raise DomainError("x and y must lie below 2^63") from None
        if x.shape != y.shape:
            raise ParameterError("x and y must have the same shape")
        keep = x >= 1
        x, y = x[keep], y[keep]
        if not x.size:
            return 0
        if int(y.min()) < 1:
            raise ParameterError("y must be >= 1")
        if float(x.sum(dtype=np.float64)) > X_SUM_LIMIT:
            raise ResourceError(
                f"batch x sums beyond {X_SUM_LIMIT}; weights would overflow int64")
        done = (y >= x) | (y < 2)
        total = int(np.sum(np.where(y >= x, x, 1)[done]))
        x, y = x[~done], y[~done]
        if not x.size:
            return total
        label = np.searchsorted(self._ensure_primes(int(y.max())), y, side="right")
        order = np.argsort(-label, kind="stable")  # y >= p_label, label >= 1
        return total + self._sweep(x[order], label[order])

    def _sweep(self, qx: np.ndarray, qlabel: np.ndarray) -> int:
        """sum Psi(qx, p_qlabel), queries sorted by label descending."""
        T = self.leaf_limit
        lab = self.leaf_labels
        z = np.empty(0, dtype=np.int64)
        w = np.empty(0, dtype=np.int64)
        leaves = None  # sorted m <= T whose largest prime is <= the stage prime
        total = 0
        neg = -qlabel
        qi, qn = 0, qx.size
        j = int(qlabel[0])
        while True:
            qe = int(np.searchsorted(neg, -j, side="right"))
            if qe > qi:
                z = np.concatenate((z, qx[qi:qe]))
                w = np.concatenate((w, np.ones(qe - qi, dtype=np.int64)))
                qi = qe
            z, w = _merge(z, w)
            p = int(self.primes[j - 1])
            if p <= SMOOTH_CLOSE:
                smooth = _smooth_numbers(self.primes[:j], int(z[-1]))
                total += int(np.dot(w, np.searchsorted(smooth, z, side="right")))
                z, w = z[:0], w[:0]
            else:
                # z is sorted: [<= p | leaves <= T | identity | pass on]; the
                # leaves take the identity, the leaf set or, too few to pay
                # for its refilter, all pass on (sending the ones that admit
                # the identity to it costs more rows than carrying them)
                a = int(np.searchsorted(z, p, side="right"))
                b = max(a, int(np.searchsorted(z, T, side="right")))
                c = max(a, int(np.searchsorted(z, min((p + 1) ** 2 - 1, PRIME_CAP),
                                               side="right")))
                total += int(np.dot(w[:a], z[:a]))
                scan = T if leaves is None else leaves.size
                if b > a and (c < b or int(np.sum(z[a:b] // (p + 1))) > scan):
                    if (b - a) * REFILTER_RATIO < scan:
                        c = a
                    else:
                        leaves = (np.flatnonzero(lab <= p) if leaves is None
                                  else leaves[lab[leaves] <= p])
                        total += int(np.dot(w[a:b], np.searchsorted(
                            leaves, z[a:b], side="right")))
                        a = b
                        c = max(b, c)
                if c > a:
                    total += self._one_large_factor(z[a:c], w[a:c], j)
                z, w = z[c:], w[c:]
                parts_z, parts_w = [z], [w]
                while z.size:
                    z = z // p
                    cut = int(np.searchsorted(z, 1))
                    z, w = z[cut:], w[cut:]
                    parts_z.append(z)
                    parts_w.append(w)
                z = np.concatenate(parts_z)
                w = np.concatenate(parts_w)
            if z.size:
                j -= 1
            elif qi < qn:
                j = int(qlabel[qi])
            else:
                return total

    def _one_large_factor(self, z: np.ndarray, w: np.ndarray, j: int) -> int:
        """sum w * Psi(z, p_j) over sorted z with p_j < z < (p_j + 1)^2, through
        Psi(z, p) = z - sum_{r <= z/(p+1)} (pi(z // r) - pi(p))."""
        primes = self._ensure_primes(int(z[-1]))
        reps = z // (primes[j - 1] + 1)
        if z.size > 1 and int(reps.sum()) > IDENTITY_ROWS:  # bound the row arrays
            h = z.size // 2
            return (self._one_large_factor(z[:h], w[:h], j)
                    + self._one_large_factor(z[h:], w[h:], j))
        starts = np.cumsum(reps) - reps
        item = np.repeat(np.arange(z.size), reps)
        r = np.arange(item.size, dtype=np.int64) - starts[item] + 1
        above = np.searchsorted(primes, z[item] // r, side="right") - j
        return int(np.dot(w, z - np.add.reduceat(above, starts)))

    def _prime_counts(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        """pi at every floor quotient of x >= 1, r = isqrt(x): small[v] = pi(v)
        for v <= r and large[m] = pi(x // m) for 1 <= m <= r (large[0] unused).

        The Lucy/Legendre recurrence S(v) -= S(v // p) - S(p - 1), for every
        floor quotient v >= p^2, over the primes p <= r from S(v) = v - 1
        (Lagarias-Miller-Odlyzko 1985, Deleglise-Rivat 1996): x^(3/4) / log x
        updates.  For large[m] with m p <= r, v // p is large[m p], a strided
        slice; otherwise it is small[(x // m) // p], gathered _TABLE_CHUNK at a
        time from a third array of the x // m.  The stages of the p with p^3
        <= x take the engine's primes up to T; from the first p with p^3 > x
        on, a stage writes only large[m] with m < p and reads only entries
        that no later stage writes, so those stages run as one batch of rows,
        m-major, off the counts they read, their p the steps of small, which
        is final by then.  Its peak, _table_bytes(r), and an x >= P^3, P the
        largest prime <= T (1048573 for T = 2^20), are refused before any
        work; no engine state changes."""
        r = math.isqrt(x)
        check_memory(_table_bytes(r), f"a prime-count table to {x}")
        T = self.leaf_limit
        primes = self.primes[:np.searchsorted(self.primes, min(r, T), side="right")]
        reach = x // (primes * primes)  # large[m] holds a v >= p^2 for m <= reach
        k = int(np.searchsorted(primes - reach, 1))  # the first p with p^3 > x
        if k == primes.size and r > T:
            raise ResourceError(f"a prime-count table to {x} needs primes past {T}")
        quot = np.arange(r + 1, dtype=np.int64)
        np.floor_divide(x, quot[1:], out=quot[1:])
        large = quot - 1
        small = np.arange(-1, r, dtype=np.int64)
        small[0] = 0
        at = np.empty(min(r, _TABLE_CHUNK), dtype=np.int64)
        got = np.empty_like(at)
        for p, top in zip(primes[:k].tolist(), reach[:k].tolist()):
            sp = int(small[p - 1])
            top = min(r, top)
            mid = min(top, r // p)
            large[1:mid + 1] -= large[p:p * mid + 1:p] - sp
            for lo in range(mid + 1, top + 1, _TABLE_CHUNK):
                hi = min(lo + _TABLE_CHUNK, top + 1)
                idx = np.floor_divide(quot[lo:hi], p, out=at[:hi - lo])
                val = np.take(small, idx, out=got[:hi - lo])
                val -= sp
                large[lo:hi] -= val
            u = r // p  # small[v] for p^2 <= v <= r reads small[v // p], p <= v // p <= u
            if u >= p:
                less = small[p:u + 1] - sp
                small[p * p:p * u].reshape(u - p, p)[...] -= less[:-1, None]
                small[p * u:] -= less[-1]
                del less  # the next stage's strided slice takes its place
        # the batch's primes are where small steps past the last stage prime
        # (a boolean compare: np.diff would make an int64 array of r entries);
        # row m holds the first `ends[m - 1]` of them, and S(p - 1) = pi(p - 1)
        # is the index of p among all primes
        lo = int(primes[k - 1]) if k else 0
        p = lo + 1 + np.flatnonzero(small[lo + 1:] != small[lo:-1])
        sums, ends = _table_rows(small, large, x, p, x // (p * p))
        large[1:sums.size + 1] -= sums - (k * ends + ends * (ends - 1) // 2)
        return small, large

    def _psi_off_table(self, x: int, y: int) -> int:
        """Psi(x, y) for x > T and (y + 1)^3 >= x, off the prime counts at
        the floor quotients of x.

        For t >= r = isqrt(x), so (t + 1)^2 > x, Psi(x, t) = x - sum_{m <= R}
        (pi(x // m) - pi(t)), R = x // (t + 1).  With t = y, pi(y) is on the
        table when y is a floor quotient of x; when it is not, it is a search
        of the engine's primes up to T, or past T the top of a table for y,
        built first and let go before the one for x, so that the two never
        coexist.  Below r, Psi(x, y) = Psi(x, r) - sum_{y < p <= r}
        Psi(x // p, p), the p read off the table's small counts: every p > y
        has p^3 >= x, so each term is the same identity, one row (p, s) for
        each s <= (x // p) // (p + 1), reading pi(x // (p s)) off the table:
        about x / (y log y) rows in at most x^(1/3) slices."""
        r = math.isqrt(x)
        top = max(y, r)
        rows = x // (top + 1)  # <= r
        pi = None
        if top > r and x // (x // top) != top:
            pi = (np.searchsorted(self.primes, top, side="right") if top <= self.leaf_limit
                  else self._prime_counts(top)[1][1])
        small, large = self._prime_counts(x)
        if pi is None:
            pi = small[r] if top == r else large[x // top]
        total = x - int(large[1:rows + 1].sum()) + rows * int(pi)
        if y >= r:
            return total
        p = y + 1 + np.flatnonzero(small[y + 1:] != small[y:-1])
        z = x // p
        reps = z // (p + 1)
        total -= int(z.sum()) + int(np.dot(reps, small[p]))
        return total + int(_table_rows(small, large, x, p, reps)[0].sum())


def _table_bytes(r: int) -> float:
    """Bytes PsiEngine._prime_counts holds at its peak for r = isqrt(x): three
    int64 arrays of r + 1 entries, a slice of half that (or the batch's
    boolean steps of small), the two gather buffers, fewer than ten int64
    arrays of the primes up to r, pi(r) < 1.26 r / log r (Rosser-Schoenfeld
    1962), and 64 KiB for the interpreter's lists and scalars.
    _psi_off_table holds less besides the table: it builds a table for y, if
    any, before the one for x, and lets it go first."""
    return (28.0 * (r + 1) + 16.0 * min(r, _TABLE_CHUNK) + 96.0 * r / math.log(r + 2)
            + 65536.0)


def _table_rows(small: np.ndarray, large: np.ndarray, x: int, p: np.ndarray,
                reps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For s = 1, ..., max(reps): sum pi(x // (p s)) over the p with reps >= s,
    off _prime_counts(x), and how many p those are; p ascending, reps
    non-increasing, so row s holds a prefix of p, each term large[p s] up to
    p s = r and small[(x // s) // p] past it.  A row costs a few numpy calls."""
    r = small.size - 1
    steps = np.arange(1, int(reps.max(initial=0)) + 1)
    ends = np.searchsorted(-reps, -steps, side="right")
    cuts = np.minimum(np.searchsorted(p, r // steps, side="right"), ends)
    sums = np.empty(steps.size, dtype=np.int64)
    for i, (end, cut) in enumerate(zip(ends.tolist(), cuts.tolist())):
        s = i + 1
        sums[i] = large[p[:cut] * s].sum() + small[(x // s) // p[cut:end]].sum()
    return sums, ends


@functools.cache
def default_engine() -> PsiEngine:
    """The engine shared by psi_exact and the prime-tuple identity."""
    return PsiEngine()


def psi_exact(x: int, y: int) -> int:
    """Number of y-smooth integers in [1, x], by the engine: off its leaf
    table for x <= T, off a prime-count table for y >= TABLE_CUBE_RATIO *
    x^(1/3) (every y >= sqrt(x) among them), by the sweep otherwise.  Floats
    are refused."""
    x, y = _integer_n(x, "x"), _integer_n(y, "y")
    if x < 0:
        raise ParameterError("x must be non-negative")
    if x < 1:
        return 0
    if y < 1:
        raise ParameterError("y must be >= 1")
    if y >= x:
        return x
    if x > X_SUM_LIMIT:
        raise ResourceError(f"x={x} beyond {X_SUM_LIMIT}; weights would overflow int64")
    engine = default_engine()
    if x <= engine.leaf_limit:
        return engine.psi_small(x, y)
    if y**3 >= TABLE_CUBE_RATIO**3 * x:
        return engine._psi_off_table(x, y)
    return engine.psi_sum([x], [y])


def _count_labels(labels: np.ndarray, x, y: int):
    """#{1 <= m <= x : labels[m] <= y}, Psi(x, y) off a largest-prime-factor
    table: for an int x, or for each x of an integer array as an int64 array
    of its shape.  x reaches at most the table's last index; floats are
    refused.  The labels stream _COUNT_CHUNK at a time through one reused
    boolean buffer; with x sorted, a chunk where some x end counts up to the
    first and sums cumulatively from there to the last."""
    limit = labels.size - 1
    try:
        x = _integer_array(x)
    except OverflowError:
        raise DomainError(f"x beyond table limit {limit}") from None
    if y < 1 or (x.size and int(x.min()) < 1):
        raise ParameterError("need x >= 1 and y >= 1")
    top = int(x.max(initial=0))
    if top > limit:
        raise DomainError(f"x={top} beyond table limit {limit}")
    order = x.argsort(axis=None)  # equal x get equal counts, in any order
    ends = x.ravel()[order]
    starts = range(1, top + 1, _COUNT_CHUNK)
    cuts = [0] + ends.searchsorted(starts[1:]).tolist() + [x.size]  # x per chunk
    counts = np.empty(x.size, dtype=np.int64)
    inside = np.empty(min(top, _COUNT_CHUNK), dtype=bool)
    total = 0
    for start, done, stop in zip(starts, cuts, cuts[1:]):
        part = labels[start: min(start + _COUNT_CHUNK, top + 1)]
        smooth = np.less_equal(part, y, out=inside[:part.size])
        if stop > done:
            here = ends[done:stop] - start
            first = int(here[0])
            sums = np.add.accumulate(smooth[first: int(here[-1]) + 1], dtype=np.int32)
            # counts stay <= limit < 2^31, so they fit the sums' int32
            counts[order[done:stop]] = (total + int(np.count_nonzero(smooth[:first]))
                                        + sums[here - first])
        total += int(np.count_nonzero(smooth))
    counts = counts.reshape(x.shape)
    return counts if counts.ndim else int(counts)


def psi_bruteforce(sieve: PrimeSieve, x, y: int):
    """Psi(x, y) by counting off the sieve's largest-prime-factor table; x is
    an int, or an integer array for an int64 array of counts.

    m = 1 counts (it has no prime factor at all).  Floats are refused.
    """
    return _count_labels(sieve.largest_prime_factor, x, _integer_n(y, "y"))


def psi_dickman(table: DickmanTable, x: float, y: float) -> float:
    """Dickman's approximation x * rho(log x / log y) of Psi(x, y)."""
    if not (x >= y >= 2):
        raise ParameterError("need x >= y >= 2")
    u = math.log(x) / math.log(y)
    if u > table.u_max:
        raise DomainError(
            f"log x / log y = {u:.3f} beyond table u_max {table.u_max}; "
            "build a larger table")
    return x * rho(table, u)
