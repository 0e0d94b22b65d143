import hashlib
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from billingsley import (ParameterError, build_sieve, pd_sample_batch, rng,
                         sample_box_probability, sample_factor_vectors)
from billingsley.factor_stats import BoxSpec


def test_raw64_deterministic_and_stream_separated():
    a = rng.raw64(42, 0, 100)
    b = rng.raw64(42, 0, 100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, rng.raw64(43, 0, 100))
    # counter windows are consistent slices of one stream
    assert np.array_equal(rng.raw64(42, 10, 20), a[10:30])


def test_mix64_matches_vector_path():
    # raw64 mixes in blocks of BLOCK_WORDS; check the words on both sides of
    # the first boundary too
    b = rng.BLOCK_WORDS
    z = rng.raw64(7, 0, b + 2)
    key = rng.stream_key(7)
    for i in [*range(16), b - 2, b - 1, b, b + 1]:
        assert int(z[i]) == rng.mix64((i * rng.GOLDEN + key) & rng.MASK64)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint64],
                         ids=lambda kind: kind.__name__)
def test_numpy_integer_seeds_key_the_int_stream(kind):
    # seed & MASK64 overflowed on a numpy seed, and raised a bare TypeError on a float
    assert rng.stream_key(kind(42)) == rng.stream_key(42)
    assert (pd_sample_batch(kind(42), 3)[0].tobytes()
            == pd_sample_batch(42, 3)[0].tobytes())
    sieve, box = build_sieve(1000), BoxSpec((0.5,), (0.1,))
    for draw in (lambda seed: pd_sample_batch(seed, 3),
                 lambda seed: sample_factor_vectors(sieve, 1000, 3, 1, seed=seed),
                 lambda seed: sample_box_probability(sieve, 1000, box, 10, seed=seed)):
        with pytest.raises(ParameterError, match="seed must be an integer"):
            draw(42.0)


def test_unit_doubles_at_the_ends_of_the_word_range():
    # k + 0.5 rounds half to even, so the top 2048 words give exactly 1.0
    words = np.array([0, 2**64 - 2049, 2**64 - 2048, 2**64 - 1], dtype=np.uint64)
    out = rng._unit_doubles(words, np.empty(4))
    assert out.tolist() == [2.0**-54, 1.0 - 2.0**-52, 1.0, 1.0]


def _uniforms(seed, start, count):
    # at truncation 1 the stick sampler's tail masses are the uniforms of
    # the seed's stream, one per counter, filled in blocks of BLOCK_WORDS rows
    return pd_sample_batch(seed, count, truncation=1, start=start)[1]


def test_uniforms_are_the_doubles_of_raw64_across_blocks():
    b = rng.BLOCK_WORDS
    u = _uniforms(3, 77, b + 9)
    want = (rng.raw64(3, 77, b + 9) >> np.uint64(11)).astype(np.float64)
    want = (want + 0.5) * 2.0**-53
    assert u.tobytes() == want.tobytes()


def test_uniforms_open_interval():
    u = _uniforms(5, 0, 10**5)
    assert float(u.min()) > 0.0
    assert float(u.max()) < 1.0
    assert abs(float(u.mean()) - 0.5) < 4 * (1 / 12) ** 0.5 / 10**2.5


def _ints(seed, count, n):
    """Draws 0..count-1 of the seed's stream, uniform integers in [1, n],
    made by rng._int_block a block of rng._int_buffers at a time."""
    key, out = rng.stream_key(seed), np.empty(count, dtype=np.int64)
    buffers = rng._int_buffers(min(count, rng.BLOCK_WORDS))
    for lo in range(0, count, rng.BLOCK_WORDS):
        rng._int_block(key, lo, n, buffers, out[lo:lo + rng.BLOCK_WORDS])
    return out


def test_uniform_ints_bounds_and_mean():
    for n in (1, 2, 10, 997, 10**6, 2**40):
        v = _ints(9, 20000, n)
        assert int(v.min()) >= 1 and int(v.max()) <= n
        mean = float(v.mean())
        sd = n / 12**0.5 / 20000**0.5
        assert abs(mean - (n + 1) / 2) < 5 * sd + 1


def test_uniform_ints_deterministic():
    a = _ints(11, 1000, 12345)
    b = _ints(11, 1000, 12345)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, _ints(12, 1000, 12345))


def test_mulhi_against_python_ints():
    x = rng.raw64(3, 0, 200)
    for n in (3, 10**6, 2**63 - 1, 0xFFFFFFFFFFFFFFF):
        hi, lo = rng._mulhi64(x.copy(), n, np.empty_like(x), np.empty_like(x))
        for i in range(0, 200, 17):
            prod = int(x[i]) * n
            assert int(hi[i]) == prod >> 64
            assert int(lo[i]) == prod & rng.MASK64


def _mulhi64_four_products(x, n):
    """The multiply-high as first written: four 32x32-bit partial products
    and a carry chain for every n."""
    x0 = x & np.uint64(0xFFFFFFFF)
    x1 = x >> np.uint64(32)
    n0 = np.uint64(n & 0xFFFFFFFF)
    n1 = np.uint64(n >> 32)
    with np.errstate(over="ignore"):
        ll = x0 * n0
        lh = x0 * n1
        hl = x1 * n0
        hh = x1 * n1
        carry = (ll >> np.uint64(32)) + (lh & np.uint64(0xFFFFFFFF)) + (hl & np.uint64(0xFFFFFFFF))
        high = hh + (lh >> np.uint64(32)) + (hl >> np.uint64(32)) + (carry >> np.uint64(32))
        low = (carry << np.uint64(32)) | (ll & np.uint64(0xFFFFFFFF))
    return high, low


@pytest.mark.parametrize("n", [1, 2, 3, 10**7, 2**32 - 1, 2**32, 2**32 + 1, 10**12,
                               3 * 10**17, 2**62 + 12345, 2**63 - 1])
def test_mulhi_matches_four_product_oracle(n):
    words = np.concatenate((rng.raw64(17, 0, 50_000),
                            np.array([0, 1, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64)))
    hi, lo = rng._mulhi64(words.copy(), n, np.empty_like(words), np.empty_like(words))
    want_hi, want_lo = _mulhi64_four_products(words, n)
    assert np.array_equal(hi, want_hi) and np.array_equal(lo, want_lo)


def test_small_n_uniformity():
    # n = 3: all residues reachable, roughly equal
    v = _ints(1, 30000, 3)
    counts = np.bincount(v, minlength=4)[1:]
    assert counts.sum() == 30000
    assert np.all(np.abs(counts - 10000) < 500)


def _reference_uniform_int(seed, idx, n):
    # scalar transcription of the documented algorithm, retries included
    key = rng.stream_key(seed)
    threshold = ((1 << 64) - n) % n
    attempt = 0
    while True:
        c = (idx << rng.ATTEMPT_BITS) + attempt
        z = rng.mix64((c * rng.GOLDEN + key) & rng.MASK64)
        prod = z * n
        if (prod & rng.MASK64) >= threshold:
            return (prod >> 64) + 1
        attempt += 1


def test_retry_path_engages_for_large_n():
    # n = 2^62 + 3 rejects ~25% of first attempts, so the retry branch is
    # genuinely exercised; results must match the scalar reference exactly
    n = (1 << 62) + 3
    v = _ints(21, 300, n)
    retried = sum(int(v[i]) != int((int(rng.raw64(21, i << rng.ATTEMPT_BITS, 1)[0]) * n >> 64) + 1)
                  for i in range(300))
    assert retried > 20  # the first-attempt value was rejected somewhere
    for i in range(300):
        assert int(v[i]) == _reference_uniform_int(21, i, n)
    assert int(v.min()) >= 1


def test_n_beyond_int64_rejected():
    # no sieve reaches 2^63, so neither sampler hands _int_block an n past int64
    sieve, box = build_sieve(1000), BoxSpec((0.5,), (0.1,))
    with pytest.raises(ValueError):
        sample_factor_vectors(sieve, 1 << 63, 10, 1)
    with pytest.raises(ValueError):
        sample_box_probability(sieve, 1 << 63, box, 10)


def test_vector_path_matches_reference_small_n():
    v = _ints(8, 100, 10**7)
    for i in range(0, 100, 7):
        assert int(v[i]) == _reference_uniform_int(8, i, 10**7)


@pytest.mark.parametrize("n, count", [
    *((n, count) for n in (10**7, 3 << 40) for count in (10**4, 10**5, 10**6)),
    ((1 << 62) + 3, 10**4)])
def test_uniform_ints_peak_is_within_the_memory_estimate(n, count):
    # the block path holds its int64 output and, per word of a block, at
    # most 64 bytes: _int_buffers' four 8-byte buffers, three more
    # temporaries of the multiply-high for n >= 2^32 (n = 3 * 2^40), and
    # room for the arrays' own overhead; at n = 2^62 + 3 about a quarter of
    # the draws retry
    tracemalloc.start()
    try:
        _ints(3, count, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * count + 64 * min(count, rng.BLOCK_WORDS)


def test_run_tasks_keeps_task_order_and_one_buffer_set_per_worker(monkeypatch):
    monkeypatch.setattr(rng, "cpu_count", lambda: 3)
    made = []

    def new_buffers():
        made.append(threading.get_ident())
        return object()

    def fn(lo, hi, buffers):
        return lo, hi, id(buffers), threading.get_ident()

    out = rng.run_tasks(fn, range(0, 200, 5), new_buffers)
    assert [(lo, hi) for lo, hi, _, _ in out] == [(lo, lo + 5) for lo in range(0, 200, 5)]
    assert made == [threading.get_ident()] * 3
    # a worker, the calling thread among them, hands every task it takes
    # the same buffers
    by_thread = {}
    for _, _, buffers, thread in out:
        by_thread.setdefault(thread, set()).add(buffers)
    assert len(by_thread) <= 3
    assert all(len(sets) == 1 for sets in by_thread.values())


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("tasks, bounds", [
    (range(0, 10, 4), [(0, 4), (4, 8), (8, 10)]),
    (range(1, 11, 4), [(1, 5), (5, 9), (9, 11)]),
    (range(1, 13, 4), [(1, 5), (5, 9), (9, 13)]),
    (range(0, 3, 4), [(0, 3)]),
], ids=["partial-last", "from-1", "whole-steps", "one-partial"])
def test_run_tasks_hands_each_task_its_bounds(monkeypatch, cpus, tasks, bounds):
    # hi = min(lo + step, stop): only the last task may be short, and a
    # range starting at 1 (the scan's) keeps its offset
    monkeypatch.setattr(rng, "cpu_count", lambda: cpus)
    assert rng.run_tasks(lambda lo, hi, buffers: (lo, hi), tasks, lambda: None) == bounds


@pytest.mark.parametrize("workers, stop", [(1, 40), (4, 0), (4, 1), (4, 7)])
def test_run_tasks_runs_inline_without_two_cpus_and_two_full_tasks(cpus, workers, stop):
    # steps of 4: 1 CPU with ten whole steps, no task, one partial task, and
    # range(0, 7, 4), one whole step and a partial one
    pools = cpus(workers)
    out = rng.run_tasks(lambda lo, hi, buffers: (lo, hi, threading.get_ident()),
                        range(0, stop, 4), lambda: None)
    assert out == [(lo, min(lo + 4, stop), threading.get_ident()) for lo in range(0, stop, 4)]
    assert pools == []


def test_run_tasks_pools_from_two_whole_steps(cpus):
    pools = cpus(4)
    rng.run_tasks(lambda lo, hi, buffers: lo, range(0, 8, 4), lambda: None)
    rng.run_tasks(lambda lo, hi, buffers: lo, range(1, 14, 4), lambda: None)
    assert pools == [1, 2]


def test_run_tasks_raises_a_task_error(monkeypatch):
    monkeypatch.setattr(rng, "cpu_count", lambda: 2)

    def fn(lo, hi, buffers):
        if lo == 7:
            raise ValueError("task 7")
        return lo

    before = rng._affinity()
    with pytest.raises(ValueError, match="task 7"):
        rng.run_tasks(fn, range(10), lambda: None)
    assert rng._affinity() == before


needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                    reason="the platform has no affinity call")


@needs_affinity
def test_run_tasks_holds_each_worker_to_one_cpu(cpus):
    # each worker's first task waits for the other worker's, so both take tasks
    mask = os.sched_getaffinity(0)
    pools = cpus(2)
    start = threading.Barrier(2, timeout=30)
    seen = {}

    def fn(lo, hi, buffers):
        thread = threading.get_ident()
        if thread not in seen:
            seen[thread] = os.sched_getaffinity(0)
            start.wait()
        assert os.sched_getaffinity(0) == seen[thread]
        return lo

    assert rng.run_tasks(fn, range(40), lambda: None) == list(range(40))
    assert pools == [1]
    assert len(seen) == 2
    assert all(len(held) == 1 and held <= mask for held in seen.values())
    if len(mask) >= 2:
        assert len(set.union(*seen.values())) == 2
    assert os.sched_getaffinity(0) == mask


@needs_affinity
def test_run_tasks_wraps_workers_round_the_cpus(cpus, monkeypatch):
    # more workers than CPUs: worker i is held to the i % len-th CPU, and the
    # caller gets its own set back last
    mask = os.sched_getaffinity(0)
    real = sorted(mask)
    workers = len(real) + 2
    pools = cpus(workers)
    held, hold = [], rng._hold
    monkeypatch.setattr(rng, "_hold", lambda cpus: (held.append(set(cpus)), hold(cpus)))
    runs = [0] * 300
    lock = threading.Lock()

    def fn(lo, hi, buffers):
        with lock:
            runs[lo] += 1
        return lo

    assert rng.run_tasks(fn, range(300), lambda: None) == list(range(300))
    assert runs == [1] * 300
    assert pools == [workers - 1]
    assert sorted(map(sorted, held[:-1])) == sorted([real[i % len(real)]]
                                                    for i in range(workers))
    assert held[-1] == mask
    assert os.sched_getaffinity(0) == mask


@needs_affinity
def test_run_tasks_runs_unpinned_where_affinity_is_refused(cpus, monkeypatch):
    mask = os.sched_getaffinity(0)
    cpus(2)

    def refuse(pid, cpus):
        raise OSError("affinity refused")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)

    def fn(lo, hi, buffers):
        return lo, hi, os.sched_getaffinity(0) == mask

    out = rng.run_tasks(fn, range(0, 100, 3), lambda: None)
    assert out == [(lo, min(lo + 3, 100), True) for lo in range(0, 100, 3)]
    assert os.sched_getaffinity(0) == mask


def test_run_tasks_runs_unpinned_where_the_platform_has_no_affinity_call(
        cpus, monkeypatch):
    get = getattr(os, "sched_getaffinity", None)
    mask = get(0) if get else None
    pools = cpus(2)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    assert rng._affinity() == set()
    assert rng._hold({0}) is None

    def fn(lo, hi, buffers):
        return lo, hi, get is None or get(0) == mask

    out = rng.run_tasks(fn, range(0, 100, 3), lambda: None)
    assert out == [(lo, min(lo + 3, 100), True) for lo in range(0, 100, 3)]
    assert pools == [1]
    if get:
        assert get(0) == mask


def test_run_tasks_under_contention_runs_every_task_once(monkeypatch):
    # more workers than cores and a short switch interval: a task lost or run
    # twice by a race on the shared task iterator would show in the counts
    monkeypatch.setattr(rng, "cpu_count", lambda: 8)
    runs = [0] * 3000
    lock = threading.Lock()

    def fn(lo, hi, buffers):
        assert hi == lo + 1
        with lock:
            runs[lo] += 1
        return lo * lo

    out = []
    runner = threading.Thread(
        target=lambda: out.extend(rng.run_tasks(fn, range(3000), lambda: None)),
        daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert out == [task * task for task in range(3000)]
    assert runs == [1] * 3000


def _digest(a):
    return hashlib.sha256(a.astype(a.dtype.newbyteorder("<")).tobytes()).hexdigest()


def test_streams_match_pinned_digests():
    # sha256 of the little-endian bytes, frozen so that no rewrite of the
    # mixing code can move a stream; the two uniform pins were taken from a
    # standalone counter-to-doubles loop, not from the sampler
    assert _digest(rng.raw64(42, 12345, 10**5)) == (
        "17387a07d66cd8688c05756359d56a9e26f5000946e78fb84efc38204ab990fd")
    assert _digest(_uniforms(42, 12345, 10**5)) == (
        "fd4ea459dc6033f66e029504d34e4c341c11d475782a8d25ac952576d7c25420")
    assert _digest(_uniforms(7, 0, 4097)) == (
        "389d24fd1af84eed657c992f98e23006ed4fa005043541e24c5b7ff27d01bba2")
    assert _digest(_ints(42, 10**5, 10**7)) == (
        "66ee6579afe897265d4c48dd5543ee698bd28015cd4c0f5475e62376086d572e")
    # about a quarter of these draws take the retry path
    assert _digest(_ints(21, 3000, (1 << 62) + 3)) == (
        "41fac1b7e5c558bd9212b7a64aa10690725ead66a0d87a6ac4e22666c6dc625f")
