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

from .errors import check_memory

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


#: words per block of the stream fills (raw64's mixing, the PD stick
#: sampler): a block's four 8-byte buffers (2 MiB) stay in a core's L2
#: cache; a sweep of 2^13..2^19 on a Xeon with 2 MiB of L2 per core found
#: 2^16 fastest for the sampler
BLOCK_WORDS = 1 << 16

#: bytes per draw of uniform_ints at its peak, where at most five 8-byte
#: arrays of one entry per draw are alive (the words, the multiply-high's
#: halves and partial products, the result)
_INT_DRAW_BYTES = 40

_S10, _S27, _S30, _S31 = (np.uint64(s) for s in (10, 27, 30, 31))


def _counter_words(counters: np.ndarray, key: int) -> np.ndarray:
    """counters * GOLDEN + key (mod 2^64) in place: the stream's words before
    mixing."""
    with np.errstate(over="ignore"):
        counters *= np.uint64(GOLDEN)
        counters += np.uint64(key)
    return counters


def _advance(words: np.ndarray, by: int, out: np.ndarray) -> np.ndarray:
    """Unmixed words moved on by `by` counters, written into out."""
    return np.add(words, np.uint64(by * GOLDEN & MASK64), out=out)


def _mix64_array(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer applied in place to a uint64 array; returns x.

    scratch is a uint64 array of x's shape that takes each shifted copy, so
    no step allocates a temporary.
    """
    for shift, mult in ((_S30, _M1), (_S27, _M2)):
        np.right_shift(x, shift, out=scratch)
        x ^= scratch
        x *= np.uint64(mult)
    np.right_shift(x, _S31, out=scratch)
    x ^= scratch
    return x


def _unit_doubles(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(k + 0.5) * 2^-53 into out, for k the top 53 bits of each word.

    The value is computed as (2k + 1) * 2^-54: converting the integer 2k + 1
    rounds it to 53 bits exactly as k + 0.5 rounds, so the bits are the same.
    Round-half-even sends k = 2^53 - 1, the words >= 2^64 - 2048, to exactly
    1.0; the range is [2^-54, 1].  words is overwritten.
    """
    words >>= _S10
    words |= np.uint64(1)
    return np.multiply(words.view(np.int64), 2.0 ** -54, out=out)


def _uniform_block(x: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Mix the unmixed words x in place, with a uint64 scratch array of x's
    shape, and write their doubles into out: the one path from counters to
    uniforms."""
    return _unit_doubles(_mix64_array(x, scratch), out)


def _mixed(counters: np.ndarray, key: int) -> np.ndarray:
    """The stream's words at a 1-d uint64 counter array, computed in place
    and mixed in blocks of BLOCK_WORDS."""
    words = _counter_words(counters, key)
    scratch = np.empty(min(words.size, BLOCK_WORDS), dtype=np.uint64)
    for lo in range(0, words.size, BLOCK_WORDS):
        x = words[lo:lo + BLOCK_WORDS]
        _mix64_array(x, scratch[:x.size])
    return words


def raw64(seed: int, shard: int, start: int, count: int) -> np.ndarray:
    """64-bit words at counters start..start+count-1 of the (seed, shard) stream."""
    return _mixed(np.arange(start, start + count, dtype=np.uint64),
                  stream_key(seed, shard))


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
    check_memory(_INT_DRAW_BYTES * count, f"{count} uniform integers")
    base = np.arange(count, dtype=np.uint64)
    base <<= np.uint64(ATTEMPT_BITS)
    key = stream_key(seed, shard)
    z = _mixed(base, key)
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
