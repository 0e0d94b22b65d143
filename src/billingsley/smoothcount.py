"""Counting y-smooth integers: Psi(x, y) by two independent exact routes plus
the Dickman approximation x * rho(log x / log y).

psi_bruteforce scans largest prime factors off a PrimeSieve.  psi_exact runs
a PsiEngine, which keeps its own Eratosthenes prime list and shares no table
with PrimeSieve, so each route serves as the other's oracle.
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

Feasibility: the identity needs the primes up to min(x, (y+1)^2).  The
engine's prime list grows geometrically to that, capped at PRIME_CAP = 10^8:
y beyond the cap raises ResourceError, and quotients beyond it are divided
down instead.  psi_exact(10^12, 1000) takes about 0.15 s on a 2-vCPU Xeon
VM; work grows with the number of distinct quotients above T, roughly x / T
divisors.  The x of a batch must sum to at most 2^62 so that every weighted
partial sum fits in int64; larger batches raise ResourceError before any
work.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .dickman import DickmanTable, rho
from .errors import DomainError, ParameterError, ResourceError
from .primes import PrimeSieve, _integer_array, _integer_n, _read_only

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

#: a label count compares this many int32 labels at a time into one 64 KiB buffer
_COUNT_CHUNK = 1 << 16

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
    table.  Results never depend on call history; the caches only grow, and
    both are read-only, so a shared engine cannot be corrupted through them.
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


@functools.cache
def default_engine() -> PsiEngine:
    """The engine shared by psi_exact and the prime-tuple identity."""
    return PsiEngine()


def psi_exact(x: int, y: int) -> int:
    """Number of y-smooth integers in [1, x], by the engine; floats are refused."""
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
