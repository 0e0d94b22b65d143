"""The Poisson-Dirichlet (theta = 1) side: finite-dimensional densities,
the stick-breaking sampler, and box probabilities by quadrature.

The k-dimensional density is rho((1 - sum t_i)/t_k) / (t_1 ... t_k) on the
open region U = {t_1 > ... > t_k > 0, sum t_i < 1} and zero elsewhere
(boundary included in "elsewhere").  Sampling breaks a unit stick at
independent uniforms: lengths 1-U_1, U_1-U_1U_2, U_1U_2-U_1U_2U_3, ...,
ranked downward after truncation, with the unbroken remainder prod U_i
carried explicitly as tail mass.  The sampler fills blocks of about
rng.BLOCK_WORDS uniforms column-major, one stick index per contiguous row, so
that generating, multiplying and differencing a block are passes over
memory that stays in cache.  One transpose copy puts the negated
differences into rows that are sorted and have their signs restored; only
that sort works row by row.  A caller that reads only the k largest ranks
asks for k: the rows are then sorted in a spent block buffer and only k
columns reach the output, 8 * (k + 1) bytes a row with the tail mass; at
k = 1 a minimum down the columns replaces the transpose and the sort.
Callers that need many rows draw them _chunk_rows at a time through
`start`, so that their memory does not grow with the count.

Box probabilities integrate the innermost coordinate in closed form: by the
delay equation u rho'(u) = -rho(u - 1), for outer coordinates summing to s,
int_a^b rho((1-s)/t - 1) dt/t = rho((1-s)/b) - rho((1-s)/a) =: F(s).  Inside
U the outer k-1 coordinates enter only through s, so the integral is
int F(s) g(s) ds, g the convolution of their weights dt/t, each spread
cloud-in-cell from its lower side over a lattice of step
min(_LATTICE_UNIT, t_k)/grid, as F varies on the scale t_k; k = 1 is exact.
F reads rho up to (1 - t_1 - ... - t_{k-1})/t_k, one unit past the density's
own largest argument, so the table must reach that far.  A lattice over the
memory budget raises ResourceError before any work.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from . import rng
from .dickman import DickmanTable, rho
from .errors import DomainError, ParameterError, check_memory
from .factor_stats import BoxSpec
from .primes import _integer_n

DEFAULT_TRUNCATION = 60

#: the lattice step at t_k >= _LATTICE_UNIT is _LATTICE_UNIT/grid, 2^-18 at grid 256
_LATTICE_UNIT = 2.0**-10

#: fewest rows in a sampler block while it stays within _MAX_BLOCK_WORDS
#: draws: wide truncations would otherwise make blocks so thin that the
#: per-row steps are mostly call overhead
_MIN_BLOCK_ROWS = 256
_MAX_BLOCK_WORDS = 1 << 20


#: full blocks per call of a caller that streams draws through `start`: at
#: truncation 60, 16 * 1092 rows, 8.5 MB of output a call with all ranks
#: and 0.28 MB with k = 1, against 2.6 MB of block buffers on 2 CPUs.  Each
#: call starts its own pool and buffers; on 2 vCPUs a row cost about 0.8 us
#: in calls of 8 blocks, and 0.7 in calls of 16 as in one call of 10^5 rows
_CHUNK_BLOCKS = 16


def _block_rows(truncation: int) -> int:
    """Rows in a full sampler block at this truncation."""
    return max(1, rng.BLOCK_WORDS // truncation,
               min(_MIN_BLOCK_ROWS, _MAX_BLOCK_WORDS // truncation))


def _chunk_rows(truncation: int) -> int:
    """Rows per pd_sample_batch call when a caller streams many rows: a
    whole number of blocks, enough to run every CPU, and bounded output."""
    return _CHUNK_BLOCKS * _block_rows(truncation)


def pd_density(table: DickmanTable, point) -> float:
    """Density of the first k ranked components at `point`; 0 outside U."""
    t = [float(v) for v in point]
    if not t:
        raise ParameterError("point must have at least one coordinate")
    if any(not math.isfinite(v) for v in t):
        raise ParameterError("point coordinates must be finite")
    if t[-1] <= 0 or sum(t) >= 1:
        return 0.0
    for a, b in zip(t, t[1:]):
        if a <= b:
            return 0.0
    u = (1.0 - sum(t)) / t[-1]
    return rho(table, u) / math.prod(t)


def pd_sample_batch(seed: int, count: int, truncation: int = DEFAULT_TRUNCATION,
                    start: int = 0, k: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """`count` ranked, truncated Poisson-Dirichlet draws: the k largest
    sticks of each row (all `truncation` of them when k is None) as a
    (count, k) array, each row descending, and the tail masses.

    Row i is a pure function of (seed, start + i, truncation): draw j of the
    row consumes counter (start + i) * truncation + j of the seed's stream,
    so large budgets can be processed in chunks without changing the
    stream.  A start below 0, or rows past counter 2^64, are refused.  Each
    row sums to 1 minus its tail mass (telescoping), the product of the
    truncation residuals.  Ranks whose value is below the tail mass could in
    principle be displaced by unseen tail sticks; trust only components
    above that level.

    Rows are filled in blocks of _block_rows(truncation) rows (capped at
    the count), held column-major as (truncation, rows) so that each step
    is a pass over contiguous rows of the block: the unmixed words are one
    add to a precomputed block, rng._uniform_block mixes them into
    uniforms, the prefix products take truncation - 1 row multiplies and the
    negated stick lengths, p_j - p_{j-1} and p_1 - 1, one subtract.  One
    transpose copy puts them into rows, which are sorted ascending in place
    and restored as 0 - x, so that each row ends descending.  With all ranks
    the rows are the block's rows of the output; with k < truncation they
    are the worker's mixing scratch, spent by then, and only their first k
    columns are restored into the output.  At k = 1 nothing is transposed
    or sorted: the largest stick is 0 minus the least negated length of
    each column, one reduction.  Every way column i is bit for bit column
    i of the full rows.  Subtracting from 0 keeps the +0.0 lengths of
    underflowed prefix products at +0.0, where negating would give -0.0,
    so no length is -0.0 and the minimum has the sort's bits.  The blocks
    change no bits.  They are rng.run_tasks tasks, pooled from two whole
    blocks on; a worker has its own two block buffers, the words and the
    mixing scratch, which take the negated lengths and the uniforms once
    each is spent, and writes disjoint rows of the output.  Refuses a k
    outside [1, truncation], and, before allocating, output and buffers
    over the memory budget: 8 * (k + 1) bytes per row, the shared block of
    words and two block buffers per CPU, 1 + 2 * CPUs blocks in all.
    """
    # Python ints, so that neither the guard nor a counter wraps in int64
    count, truncation, start = (_integer_n(v, name) for v, name in (
        (count, "count"), (truncation, "truncation"), (start, "start")))
    if truncation < 1:
        raise ParameterError("truncation must be >= 1")
    if count < 1:
        raise ParameterError("count must be >= 1")
    if start < 0 or (start + count) * truncation > 1 << 64:
        raise ParameterError("rows must lie at counters [0, 2^64) of the stream: "
                             "start >= 0 and (start + count) * truncation <= 2^64")
    t = truncation
    k = t if k is None else _integer_n(k, "k")
    if not 1 <= k <= t:
        raise ParameterError(f"k must be in [1, truncation = {t}], got {k}")
    rows = min(count, _block_rows(t))
    check_memory(8 * ((k + 1) * count + (1 + 2 * rng.cpu_count()) * t * rows),
                 f"{count} PD draws at truncation {t}")
    key = rng.stream_key(seed)
    # base[j, i] is the unmixed word of counter i * t + j; moving it on by
    # (start + lo) * t counters gives draw j of row start + lo + i
    offsets = np.add.outer(np.arange(t, dtype=np.uint64),
                           np.arange(rows, dtype=np.uint64) * np.uint64(t))
    base = rng._counter_words(offsets, key)
    sticks = np.empty((count, k))
    tails = np.empty(count)

    def fill(lo, hi, buffers):
        words, scratch = buffers
        n = hi - lo
        x = rng._advance(base[:, :n], (start + lo) * t, words[:, :n])
        # the mixing scratch is spent once the uniforms are made: it takes them
        p = rng._uniform_block(x, scratch[:, :n], scratch.view(np.float64)[:, :n])
        p_rows = list(p)
        for prev, row in zip(p_rows, p_rows[1:]):
            np.multiply(row, prev, out=row)
        tails[lo:hi] = p[-1]
        # the words are spent too: their buffer takes the negated lengths,
        # contiguous rows whose transposed copy is cheaper than writing
        # through the transpose
        lengths = words.view(np.float64)[:, :n]
        np.subtract(p[1:], p[:-1], out=lengths[1:])
        np.subtract(p[0], 1.0, out=lengths[0])
        out = sticks[lo:hi]
        if k == 1:
            # the largest stick is the least negated length of its column
            np.min(lengths, axis=0, out=out[:, 0])
            np.subtract(0.0, out, out=out)
            return
        # all ranks sort in place in the output; fewer sort in the mixing
        # scratch, spent once the lengths exist, and only k columns are kept
        # (np.partition before the sort measured slower, at k = 2 to 30)
        ranked = out if k == t else scratch.view(np.float64).ravel()[:n * t].reshape(n, t)
        np.copyto(ranked, lengths.T)
        ranked.sort(axis=1)
        np.subtract(0.0, ranked[:, :k], out=out)

    rng.run_tasks(fill, range(0, count, rows),
                  lambda: (np.empty_like(base), np.empty_like(base)))
    return sticks, tails


def _axis_weights(lo: float, width: float, step: float) -> np.ndarray:
    """dt/t on [lo, lo + width] as cloud-in-cell weights on the nodes
    lo + j*step, each cell keeping its mass and first moment.  Widths from
    `width` and masses by log1p keep sides far thinner than a step exact."""
    j = np.arange(math.ceil(width / step))
    left = lo + j * step
    w = np.clip(width - j * step, 0.0, step)
    mass = np.log1p(w / left)
    upper = (w - left * mass) / step  # the part of each cell's mass at its right node
    out = np.append(mass - upper, 0.0)
    out[1:] += upper
    return out


def _convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y as a product of real FFTs."""
    n = x.size + y.size - 1
    size = 1 << (n - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(y, size), size)[:n]


def _lattice_integral(table: DickmanTable, box: BoxSpec, step: float) -> float:
    """F against the convolved outer weights, at s = sum_{i<k} t_i + m*step.
    With no outer axis (k = 1) g is one unit node at s = 0, so the sum is F(0)
    exactly, whatever the step."""
    a, b = box.t[-1], box.upper()[-1]
    g = functools.reduce(_convolve, [_axis_weights(t, d, step) for t, d in
                                     zip(box.t[:-1], box.dt[:-1])] or [np.ones(1)])
    # last nodes pass their sides by < a step, so past s = 1 only if grid < k - 1; F = 0 there
    rest = np.maximum(1.0 - (sum(box.t[:-1]) + np.arange(g.size) * step), 0.0)
    # numpy's pairwise sum, not np.dot: BLAS splits a long dot product by its
    # thread count, so the bits would depend on the CPUs the process may use
    f = rho(table, rest / b) - rho(table, rest / a)
    f *= g
    return float(np.sum(f))


def _validate(table: DickmanTable, box: BoxSpec, grid: int) -> float:
    """Checks every precondition before any work; returns the lattice step."""
    if _integer_n(grid, "grid") < 1:
        raise ParameterError(f"grid must be an int >= 1, got {grid!r}")
    box.require_inside_u()
    need = (1.0 - sum(box.t[:-1])) / box.t[-1]
    if need > table.u_max:
        raise DomainError(f"the box needs rho up to u = {need:.6g}, but the "
                          f"table stops at u_max = {table.u_max:g}")
    step = min(_LATTICE_UNIT, box.t[-1]) / int(grid)
    points = sum(box.dt[:-1]) / step + box.k  # <= grid/_LATTICE_UNIT + k at t_k >= _LATTICE_UNIT
    check_memory(128.0 * points,  # measured peak about 100 bytes a point
                 f"a quadrature lattice of {points:.3g} points")
    return step


def pd_box_probability_refined(table: DickmanTable, box: BoxSpec,
                               grid: int = 256) -> tuple[float, float]:
    """Integral of the density over the box, on the lattice of step
    min(_LATTICE_UNIT, t_k) / grid, plus a Richardson error estimate
    |I(step) - I(2 step)| / 3 (halving the step quarters the error).  At
    k = 1 both passes are exact and the estimate is 0."""
    step = _validate(table, box, grid)
    fine = _lattice_integral(table, box, step)
    return fine, abs(fine - _lattice_integral(table, box, 2 * step)) / 3.0
