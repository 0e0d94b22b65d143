"""Counter-based random streams for reproducible (and parallelizable) Monte Carlo.

Each seed has one stream, and every output is a pure function of (seed,
index): any block of draws can be made on its own, so a sampling run split
into blocks yields bitwise-identical results no matter how the blocks are
scheduled.  The generator is the splitmix64 finalizer applied to a distinct
64-bit counter per draw.

Bounded integers use the multiply-high reduction with the usual rejection of
the short leading band, which removes modulo bias exactly.  A rejected draw
retries at the same index with an incremented attempt counter, so a retry
never disturbs neighbouring draws; the retry probability is n / 2^64.

run_tasks hands each task of a range its bounds and runs the tasks (Monte
Carlo and factor-row blocks, scan chunks, sampler blocks, sieve segments)
over the CPUs the process may use, pooled only from two whole steps on,
each worker held to one CPU of the caller's affinity for the length of the
call; the results come back in task order, so the scheduling never shows in
a result.
"""
from __future__ import annotations

import os
from threading import Lock, Thread

import numpy as np

from .errors import _integer_n

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


def stream_key(seed: int) -> int:
    """Derive the 64-bit key of the seed's stream.  A numpy integer seed
    keys the stream of its int; a float is a ParameterError."""
    return mix64(mix64(_integer_n(seed, "seed") & MASK64) ^ mix64(0x5851F42D4C957F2D))


#: words per block of the stream fills (raw64's mixing, the PD stick
#: sampler, the Monte Carlo's and the factor rows' integers): a block's
#: four 8-byte buffers (2 MiB) stay in a core's L2 cache; a sweep of
#: 2^13..2^19 on a Xeon with 2 MiB of L2 per core found 2^16 fastest for the sampler
BLOCK_WORDS = 1 << 16

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


def raw64(seed: int, start: int, count: int) -> np.ndarray:
    """64-bit words at counters start..start+count-1 of the seed's stream."""
    words = _counter_words(np.arange(start, start + count, dtype=np.uint64),
                           stream_key(seed))
    scratch = np.empty(min(words.size, BLOCK_WORDS), dtype=np.uint64)
    for lo in range(0, words.size, BLOCK_WORDS):
        x = words[lo:lo + BLOCK_WORDS]
        _mix64_array(x, scratch[:x.size])
    return words


def _mulhi64(x: np.ndarray, n: int, low: np.ndarray,
             scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) 64-bit halves of x * n for uint64 array x, scalar n < 2^64:
    the high half is written over x and the low half, the wrapping product,
    into low; scratch is a third uint64 array of x's shape.

    The high half sums 32x32-bit partial products; for n < 2^32 only the two
    with n's low word remain, and x1*n0 + (x0*n0 >> 32) < 2^64 needs no
    carry.  Otherwise three more arrays of x's shape are allocated.
    """
    m32, s32 = np.uint64(0xFFFFFFFF), np.uint64(32)
    n0, n1 = np.uint64(n & 0xFFFFFFFF), np.uint64(n >> 32)
    np.multiply(x, np.uint64(n), out=low)
    ll = np.bitwise_and(x, m32, out=scratch)
    if not n1:
        ll *= n0
        ll >>= s32
        x >>= s32
        x *= n0
        x += ll
        x >>= s32
        return x, low
    lh = ll * n1
    ll *= n0
    x >>= s32
    hl = x * n0
    x *= n1
    # ll becomes the carry (ll >> 32) + (lh & m32) + (hl & m32)
    ll >>= s32
    ll += lh & m32
    ll += hl & m32
    for part in (lh, hl, ll):
        part >>= s32
        x += part
    return x, low


def _int_buffers(size: int) -> tuple[np.ndarray, ...]:
    """Buffers for _int_block of up to `size` draws: the key-free unmixed
    words of draws 0..size-1, read only, and three uint64 work arrays."""
    base = np.arange(size, dtype=np.uint64)
    base <<= np.uint64(ATTEMPT_BITS)
    return (_counter_words(base, 0), np.empty(size, dtype=np.uint64),
            np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64))


def _int_block(key: int, start: int, n: int, buffers, out: np.ndarray) -> np.ndarray:
    """Draws start..start+out.size-1 of the stream with this key, uniform
    integers in [1, n], written into the int64 array out (which may be a
    view of the second buffer): the one path from counters to integers.

    Draw i uses counters i*2^ATTEMPT_BITS + attempt, attempt increasing only
    on the (astronomically rare) Lemire rejection, so each draw is
    independent of the others' retry history.
    """
    base, words, scratch, low = (b[:out.size] for b in buffers)
    np.add(base, np.uint64(((start << ATTEMPT_BITS) * GOLDEN + key) & MASK64), out=words)
    high, low = _mulhi64(_mix64_array(words, scratch), n, low, scratch)
    np.add(high.view(np.int64), 1, out=out)
    threshold = ((1 << 64) - n) % n
    if threshold and low.min() < np.uint64(threshold):
        for idx in np.flatnonzero(low < np.uint64(threshold)):
            attempt = 1
            while True:
                c = ((start + int(idx)) << ATTEMPT_BITS) + attempt
                prod = mix64((c * GOLDEN + key) & MASK64) * n
                if (prod & MASK64) >= threshold:
                    out[idx] = (prod >> 64) + 1
                    break
                attempt += 1
    return out


def _affinity() -> set:
    """The CPUs the calling thread may run on; empty where the platform has
    no affinity call."""
    try:
        return os.sched_getaffinity(0)
    except AttributeError:
        return set()


def _hold(cpus) -> None:
    """Restrict the calling thread to cpus; where the platform has no
    affinity call, or refuses it, the thread's affinity stays as it was."""
    try:
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):
        pass


def cpu_count() -> int:
    """The number of CPUs this process may run on: its affinity set where
    the platform has one, else every CPU."""
    return len(_affinity()) or os.cpu_count() or 1


def run_tasks(fn, tasks: range, new_buffers) -> list:
    """[fn(lo, min(lo + step, stop), buffers) for lo in tasks], tasks being
    the range of task starts: the results in task order.

    The tasks must be independent.  They run on up to cpu_count() workers,
    the calling thread and threads started for the call, each taking the
    next task in turn and handing every task it takes the same buffers,
    which new_buffers() makes for each worker in the calling thread (so that
    no pool thread allocates them in a heap of its own).  numpy releases the
    interpreter lock inside its loops, so the workers overlap.  With one
    CPU, or fewer than two whole steps in the range, the tasks run inline
    with one set of buffers, where a pool would cost more than it saves.
    To use fewer CPUs, restrict the process's affinity (taskset).

    Worker i, the calling thread being worker 0, is held to the i-th of the
    caller's CPUs (round the set when there are more workers) for the call,
    and the caller gets its own affinity back when the call ends, raising
    or not.  Left to the scheduler, both workers on a 2-vCPU host often sat
    on one CPU for a whole call (per-thread counters: no migration, wall
    time equal to CPU time), which made a Monte Carlo call of 10^7 draws
    take 0.15 s, not 0.08; holding only the pool threads did not help, as
    the caller was moved next to them.  Where the platform has no affinity
    call, or refuses it, the workers run unpinned.  A task's exception is
    raised in the caller once every worker has stopped and the caller's
    affinity is back.
    """
    workers = min(cpu_count(), (tasks.stop - tasks.start) // tasks.step)
    spans = [(lo, min(lo + tasks.step, tasks.stop)) for lo in tasks]
    if workers < 2:
        buffers = new_buffers()
        return [fn(lo, hi, buffers) for lo, hi in spans]
    sets = [new_buffers() for _ in range(workers)]
    results = [None] * len(spans)
    todo = iter(enumerate(spans))
    lock = Lock()
    failures = []
    mask = _affinity()
    cpus = sorted(mask)

    def work(worker, buffers):
        try:
            if cpus:
                _hold({cpus[worker % len(cpus)]})
            while True:
                with lock:
                    item = next(todo, None)
                if item is None:
                    return
                results[item[0]] = fn(*item[1], buffers)
        except BaseException as exc:  # raised in the caller once all have stopped
            failures.append(exc)

    threads = [Thread(target=work, args=(worker, buffers))
               for worker, buffers in enumerate(sets[1:], 1)]
    try:
        for thread in threads:
            thread.start()
        work(0, sets[0])
    finally:
        for thread in threads:
            if thread.is_alive():
                thread.join()
        if cpus:
            _hold(mask)
    if failures:
        raise failures[0]
    return results
