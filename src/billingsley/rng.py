"""Counter-based random streams for reproducible (and parallelizable) Monte Carlo.

Every output is a pure function of (seed, shard, index), so a sampling run
partitioned into shards yields bitwise-identical results no matter how the
shards are scheduled.  The generator is the splitmix64 finalizer applied to
a distinct 64-bit counter per draw.

Bounded integers use the multiply-high reduction with the usual rejection of
the short leading band, which removes modulo bias exactly.  A rejected draw
retries at the same (shard, index) with an incremented attempt counter, so a
retry never disturbs neighbouring draws; the retry probability is n / 2^64.
"""
from __future__ import annotations

import numpy as np

#: fixed documented default seed; never time-based
DEFAULT_SEED = 42

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

# Up to 2^ATTEMPT_BITS retries per draw share one counter block.
ATTEMPT_BITS = 8


def mix64(x: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    x &= MASK64
    x = (x ^ (x >> 30)) * _M1 & MASK64
    x = (x ^ (x >> 27)) * _M2 & MASK64
    return x ^ (x >> 31)


def stream_key(seed: int, shard: int) -> int:
    """Derive the 64-bit key of one shard's stream."""
    return mix64(mix64(seed & MASK64) ^ mix64((shard + 0x5851F42D4C957F2D) & MASK64))


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer applied in place to a uint64 array; returns x."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(_M1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_M2)
    x ^= x >> np.uint64(31)
    return x


def _keyed_counters(counters: np.ndarray, key: int) -> np.ndarray:
    """Mix a fresh uint64 counter array, in place, into the stream's words."""
    with np.errstate(over="ignore"):
        counters *= np.uint64(GOLDEN)
        counters += np.uint64(key)
        return _mix64_array(counters)


def raw64(seed: int, shard: int, start: int, count: int) -> np.ndarray:
    """64-bit words at counters start..start+count-1 of the (seed, shard) stream."""
    counters = np.arange(start, start + count, dtype=np.uint64)
    return _keyed_counters(counters, stream_key(seed, shard))


def uniforms(seed: int, shard: int, start: int, count: int) -> np.ndarray:
    """Doubles in the open interval (0, 1), one per counter."""
    z = raw64(seed, shard, start, count)
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return u


def _mulhi64(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) 64-bit halves of x * n for uint64 array x, scalar n < 2^64.

    The low half is the wrapping product.  The high half sums 32x32-bit
    partial products; for n < 2^32 only the two with n's low word remain,
    and x1*n0 + (x0*n0 >> 32) < 2^64 needs no carry.
    """
    m32, s32 = np.uint64(0xFFFFFFFF), np.uint64(32)
    n0, n1 = np.uint64(n & 0xFFFFFFFF), np.uint64(n >> 32)
    with np.errstate(over="ignore"):
        low = x * np.uint64(n)
        ll = x & m32
        ll *= n0
        ll >>= s32
        hl = x >> s32
        hl *= n0
        if not n1:
            hl += ll
            hl >>= s32
            return hl, low
        lh = (x & m32) * n1
        hh = (x >> s32) * n1
        carry = ll + (lh & m32) + (hl & m32)
        high = hh + (lh >> s32) + (hl >> s32) + (carry >> s32)
    return high, low


def uniform_ints(seed: int, shard: int, count: int, n: int) -> np.ndarray:
    """`count` independent uniform integers in [1, n] from the (seed, shard) stream.

    Draw i uses counters i*2^ATTEMPT_BITS + attempt, attempt increasing only on
    the (astronomically rare) Lemire rejection, so each draw is independent of
    the others' retry history.
    """
    if n < 1 or n > (1 << 63) - 1:
        raise ValueError("n must be in [1, 2^63 - 1] so results fit an int64 array")
    base = np.arange(count, dtype=np.uint64)
    base <<= np.uint64(ATTEMPT_BITS)
    key = stream_key(seed, shard)
    z = _keyed_counters(base, key)
    high, low = _mulhi64(z, n)
    threshold = ((1 << 64) - n) % n
    out = high.astype(np.int64) + 1
    bad = np.flatnonzero(low < np.uint64(threshold))
    for idx in bad:
        attempt = 1
        while True:
            c = (int(idx) << ATTEMPT_BITS) + attempt
            w = mix64((c * GOLDEN + key) & MASK64)
            prod = w * n
            if (prod & MASK64) >= threshold:
                out[idx] = (prod >> 64) + 1
                break
            attempt += 1
    return out


def partition(total: int, shards: int) -> list[int]:
    """Split a sample budget into fixed per-shard counts (first shards get the remainder)."""
    q, r = divmod(total, shards)
    return [q + (1 if i < r else 0) for i in range(shards)]
