import math
import random
import tracemalloc

import numpy as np
import pytest

from billingsley import smoothcount
from billingsley import (DomainError, ParameterError, ResourceError,
                         build_rho_table, psi_bruteforce, psi_dickman, psi_exact,
                         rho)
from billingsley.smoothcount import LEAF_LIMIT, X_SUM_LIMIT, PsiEngine, default_engine
from conftest import RHO_ORACLE

import rho_pins


def test_bruteforce_examples(sieve5):
    assert psi_bruteforce(sieve5, 10, 2) == 4      # {1, 2, 4, 8}
    assert psi_bruteforce(sieve5, 100, 1) == 1     # only m = 1
    assert psi_bruteforce(sieve5, 37, 37) == 37    # everything is 37-smooth


def test_bruteforce_domain(sieve5):
    with pytest.raises(DomainError):
        psi_bruteforce(sieve5, 10**5 + 1, 2)
    with pytest.raises(DomainError):
        psi_bruteforce(sieve5, 10**20, 2)      # beyond int64 too
    with pytest.raises(ParameterError):
        psi_bruteforce(sieve5, 0, 2)


def test_exact_examples():
    assert psi_exact(1, 7) == 1
    assert psi_exact(10, 3) == 7                   # {1,2,3,4,6,8,9}
    assert psi_exact(10, 2) == 4
    assert psi_exact(37, 37) == 37
    assert psi_exact(100, 1) == 1


def test_exact_parameter_errors():
    with pytest.raises(ParameterError):
        psi_exact(-1, 2)
    with pytest.raises(ParameterError):
        psi_exact(10, 0)


@pytest.mark.parametrize("x, y", [(10.7, 3), (10.0, 3), (10, 3.0), (1e12, 1000)])
def test_exact_refuses_float_arguments(x, y):
    # int(x) used to truncate psi_exact(10.7, 3) to Psi(10, 3) = 7
    with pytest.raises(ParameterError, match="must be an integer"):
        psi_exact(x, y)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint64],
                         ids=lambda kind: kind.__name__)
def test_exact_takes_numpy_integers(kind):
    for x, y in [(10, 3), (10**6, 997), (2 * 10**6, 13)]:
        got = psi_exact(kind(x), kind(y))
        assert type(got) is int and got == psi_exact(x, y)


def test_exact_equals_bruteforce_dense(sieve5):
    for x in range(1, 2000):
        for y in (1, 2, 3, 5, 7, 11, 13, x):
            assert psi_exact(x, y) == psi_bruteforce(sieve5, x, y), (x, y)


def test_exact_equals_bruteforce_large_spot(sieve7):
    for x, y in [(10**4, 10), (10**5, 50), (10**6, 997), (10**7, 3162), (10**6, 2)]:
        assert psi_exact(x, y) == psi_bruteforce(sieve7, x, y)


def test_array_x_equals_scalar_calls(sieve5):
    rnd = random.Random(21)
    engine = PsiEngine()
    xs = np.array([1, 2, 1, 10**5, 7, 7] + [rnd.randint(1, 10**5) for _ in range(200)],
                  dtype=np.int64)
    for y in (1, 2, 3, 13, 97, 316, 10**5, 10**9):
        brute = psi_bruteforce(sieve5, xs, y)
        small = engine.psi_small(xs, y)
        assert brute.dtype == small.dtype == np.int64
        assert brute.tolist() == [psi_bruteforce(sieve5, int(x), y) for x in xs]
        assert small.tolist() == [engine.psi_small(int(x), y) for x in xs]
        assert brute.tolist() == small.tolist()
    grid = xs[:200].reshape(10, 20)
    assert psi_bruteforce(sieve5, grid, 5).shape == (10, 20)
    assert psi_bruteforce(sieve5, np.zeros(0, dtype=np.int64), 5).size == 0


def test_array_x_domain(sieve5):
    with pytest.raises(ParameterError):
        psi_bruteforce(sieve5, np.array([3, 0, 5]), 2)
    with pytest.raises(DomainError):
        psi_bruteforce(sieve5, np.array([3, 10**5 + 1]), 2)
    with pytest.raises(DomainError):
        PsiEngine().psi_small(np.array([LEAF_LIMIT + 1]), 2)


def test_monotone_in_x_and_y():
    rnd = random.Random(6)
    for _ in range(100):
        x = rnd.randint(2, 5000)
        y = rnd.randint(1, 120)
        base = psi_exact(x, y)
        assert psi_exact(x + rnd.randint(1, 50), y) >= base
        assert psi_exact(x, y + rnd.randint(1, 50)) >= base


def test_sandwich():
    rnd = random.Random(7)
    for _ in range(50):
        x = rnd.randint(1, 10**4)
        y = rnd.randint(1, x)
        v = psi_exact(x, y)
        assert 1 <= v <= x
        assert psi_exact(x, 1) == 1
        assert psi_exact(x, x) == x


def test_pinned_large_values():
    assert psi_exact(10**11, 1000) == 1412243472
    assert psi_exact(3 * 10**11, 1000) == 2933641996
    assert psi_exact(10**12, 1000) == 6471274933
    assert psi_exact(10**11, 10**4) == 9091106074


def smooth_by_powers(primes, limit):
    """The m <= limit with no prime factor outside primes, in pure Python."""
    out = [1]
    for q in primes:
        grown = []
        for m in out:
            while m <= limit:
                grown.append(m)
                m *= q
        out = grown
    return sorted(out)


#: the primes the sweep's close multiplies out
CLOSE_PRIMES = [q for q in range(2, smoothcount.SMOOTH_CLOSE + 1)
                if all(q % d for d in range(2, q))]


def test_smooth_numbers_match_a_pure_python_enumeration():
    for i in range(1, len(CLOSE_PRIMES) + 1):
        primes = CLOSE_PRIMES[:i]
        got = smoothcount._smooth_numbers(np.array(primes, dtype=np.int64), 10**6)
        assert got.dtype == np.int64
        assert got.tolist() == smooth_by_powers(primes, 10**6), primes[-1]


def test_smooth_numbers_at_the_batch_limit_stay_bounded():
    # the close's largest list: no quotient exceeds X_SUM_LIMIT
    got = smoothcount._smooth_numbers(np.array(CLOSE_PRIMES, dtype=np.int64), X_SUM_LIMIT)
    assert got.size <= 327090  # 2.6 MB
    assert int(got[0]) == 1 and int(got[-1]) <= X_SUM_LIMIT and np.all(np.diff(got) > 0)


def test_exact_at_small_y_far_out():
    want = len(smooth_by_powers([2, 3, 5, 7], 10**15))
    assert want == 33406
    assert psi_exact(10**15, 7) == want


def test_batch_straddling_the_close_equals_single_queries(sieve7):
    # queries whose label is below the close prime close again at their own
    # stage, after a first close has emptied the quotients and their weights
    rnd = random.Random(24)
    ys = [2, 3, 4, 5, 7, 10, 11, 12, 13, 100, 1000]
    xs = [rnd.randint(LEAF_LIMIT + 1, 10**7) for _ in ys] + [rnd.randint(1, 10**5) for _ in ys]
    ys = ys + ys
    singles = [psi_exact(x, y) for x, y in zip(xs, ys)]
    assert singles == [psi_bruteforce(sieve7, x, y) for x, y in zip(xs, ys)]
    assert default_engine().psi_sum(xs, ys) == sum(singles)
    assert default_engine().psi_sum(xs[:11], ys[:11]) == sum(singles[:11])


def test_sweep_memory_at_3e11_stays_below_12_mib():
    default_engine()  # the leaf table and the primes psi_exact(3e11, 1000) reads
    tracemalloc.start()
    try:
        assert psi_exact(3 * 10**11, 1000) == 2933641996
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 27 MiB when the sweep carried every quotient down to p = 2
    assert peak <= 12 << 20


def test_random_against_bruteforce(sieve7):
    rnd = random.Random(11)
    T = LEAF_LIMIT
    cases = [(x, rnd.randint(2, 3000)) for x in (T - 1, T, T + 1) for _ in range(3)]
    for _ in range(40):
        y = rnd.randint(2, 3000)
        cases.append((rnd.randint(1, 10**7), y))
        sq = (y + 1) ** 2
        cases.append((min(10**7, sq + rnd.randint(-2, 2)), y))
    for x, y in cases:
        assert psi_exact(x, y) == psi_bruteforce(sieve7, x, y), (x, y)


def test_sweep_paths_against_bruteforce(sieve5, monkeypatch):
    # a tiny leaf table sends small x through every stage of the sweep; at
    # 4096 the few leaf-range quotients of a stage are passed on across
    # many stages before they pay for a refilter of the leaf set
    rnd = random.Random(12)
    for leaf_limit in (64, 4096):
        monkeypatch.setattr(smoothcount, "LEAF_LIMIT", leaf_limit)
        engine = PsiEngine()
        for _ in range(300):
            x = rnd.randint(1, 10**5)
            near_root = max(2, int(x**0.5) + rnd.randint(-2, 2))
            y = rnd.choice([2, 3, 5, rnd.randint(2, 400), near_root])
            assert engine.psi_sum([x], [y]) == psi_bruteforce(sieve5, x, y), (x, y)


def test_batch_sum_equals_single_queries():
    rnd = random.Random(13)
    xs = [0, 1, 7, 10**6] + [rnd.randint(1, 10**7) for _ in range(30)]
    ys = [3, 1, 100, 10**6] + [rnd.randint(1, 3000) for _ in range(30)]
    assert default_engine().psi_sum(xs, ys) == sum(psi_exact(x, y) for x, y in zip(xs, ys))


def test_results_do_not_depend_on_call_order():
    cases = [(10**5, 50), (10**9, 100), (12345, 11), (10**7, 3000), (10**6, 100)]
    fresh = [PsiEngine().psi_sum([x], [y]) for x, y in cases]
    shared = PsiEngine()
    backwards = [shared.psi_sum([x], [y]) for x, y in reversed(cases)][::-1]
    assert fresh == backwards == [psi_exact(x, y) for x, y in cases]


def test_int64_weight_limit_is_checked_up_front():
    with pytest.raises(ResourceError):
        psi_exact(X_SUM_LIMIT + 1, 1000)
    with pytest.raises(ResourceError):
        default_engine().psi_sum([X_SUM_LIMIT // 2] * 3, [5] * 3)


def test_dickman_estimate(table):
    assert psi_dickman(table, 1000.0, 1000.0) == pytest.approx(1000.0)
    want = 10**6 * RHO_ORACLE[2.0]
    assert psi_dickman(table, 10**6, 10**3) == pytest.approx(want, rel=1e-9)
    want3 = 10**7 * RHO_ORACLE[3.0]
    assert psi_dickman(table, 10**7, 10 ** (7 / 3)) == pytest.approx(want3, rel=1e-8)


def test_dickman_estimate_past_u_13(table):
    # u = log x / log y = 14 up to rounding, where rho is about 4.8e-18
    x, y = 1e28, 100.0
    u = math.log(x) / math.log(y)
    want = x * float(rho_pins.rho_reference(u, rho_pins.midpoint_series(u_top=15)))
    assert psi_dickman(table, x, y) == pytest.approx(want, rel=1e-13, abs=0)


def test_dickman_domain_errors(table):
    with pytest.raises(ParameterError):
        psi_dickman(table, 10.0, 100.0)  # x < y
    small = build_rho_table(u_max=2.0)
    with pytest.raises(DomainError):
        psi_dickman(small, 10**9, 10)  # u = 9 beyond u_max


def test_convergence_toward_rho2(table, sieve6):
    # |Psi(n, sqrt n)/n - rho(2)| shrinks with n (full ladder in acceptance)
    rho2 = rho(table, 2.0)
    errs = [abs(psi_bruteforce(sieve6, n, int(n**0.5)) / n - rho2)
            for n in (10**4, 10**5, 10**6)]
    assert errs[0] > errs[1] > errs[2]


def test_scalar_prefix_count_equals_the_array_path(sieve7):
    c = smoothcount._COUNT_CHUNK
    xs = [c - 1, c, c + 1, 3 * c, 10**7]
    for y in (1, 2, 97, 3162, 10**7):
        want = psi_bruteforce(sieve7, np.array(xs), y).tolist()
        assert [psi_bruteforce(sieve7, x, y) for x in xs] == want
    engine = smoothcount.default_engine()
    small = xs[:4]  # within the leaf table
    for y in (2, 97, 3162):
        assert [engine.psi_small(x, y) for x in small] == engine.psi_small(
            np.array(small), y).tolist()


def naive_label_count(labels, x, y):
    """#{1 <= m <= x : labels[m] <= y}, one slice per x."""
    return int(np.count_nonzero(labels[1: x + 1] <= y))


def test_label_count_matches_a_naive_count_per_x(sieve7):
    c = smoothcount._COUNT_CHUNK
    lab = sieve7.largest_prime_factor
    rnd = np.random.default_rng(5)
    edges = [c - 1, c, c + 1, 3 * c]
    unsorted = np.array(edges[::-1] + [1, 2, 3 * c - 1]
                        + rnd.integers(1, 3 * c + 2, 40).tolist())
    cases = [unsorted, np.array([c + 1, 5, c + 1, 5, 5, c - 1]), unsorted[:40].reshape(5, 8),
             np.zeros(0, dtype=np.int64), np.zeros((0, 3), dtype=np.int64), np.array(edges)]
    for y in [1, 2, 13, 97, 997, 3162, 10**7]:
        for x in cases:
            got = smoothcount._count_labels(lab, x, y)
            assert got.dtype == np.int64 and got.shape == x.shape
            want = [naive_label_count(lab, int(v), y) for v in x.ravel().tolist()]
            assert got.ravel().tolist() == want, (y, x)
        for v in edges + [np.array(c)]:  # an int or a 0-d array counts as an int
            got = smoothcount._count_labels(lab, v, y)
            assert type(got) is int and got == naive_label_count(lab, int(v), y)


@pytest.mark.parametrize("size", [2, 3, 100, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 7])
def test_label_count_reaches_the_last_index_of_any_table(sieve7, size):
    # the table's own length bounds x: its last index counts, one past it is
    # refused whether x is an int or an array
    lab = sieve7.largest_prime_factor[:size]
    top = size - 1
    assert smoothcount._count_labels(lab, top, 97) == naive_label_count(lab, top, 97)
    for x in (size, np.array([1, size])):
        with pytest.raises(DomainError, match=f"beyond table limit {top}"):
            smoothcount._count_labels(lab, x, 97)


def test_scalar_prefix_count_memory_does_not_grow_with_x(sieve7):
    tracemalloc.start()
    try:
        assert psi_bruteforce(sieve7, 10**7, 3162) == 3362157
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20  # the whole comparison at 10^7 would be 10 MB


def test_array_prefix_count_memory_grows_with_the_x_not_their_size(sieve7):
    x = np.array([10**7, 3, 10**7])
    tracemalloc.start()
    try:
        got = psi_bruteforce(sieve7, x, 3162)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == [3362157, 3, 3362157]
    assert peak < 2 << 20  # a cumulative sum to 10^7 would be 40 MB


def test_eratosthenes_is_the_old_list_without_a_table_sized_copy():
    limit = 10**6
    comp = np.zeros(limit + 1, dtype=bool)
    comp[:2] = True
    for p in range(2, math.isqrt(limit) + 1):
        if not comp[p]:
            comp[p * p:: p] = True
    want = np.flatnonzero(~comp).astype(np.int64)
    tracemalloc.start()
    try:
        got = smoothcount._eratosthenes(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.dtype == np.int64 and np.array_equal(got, want)
    # the flags and the primes: a complement or a cast copy would add a
    # second table or a second list
    assert peak <= (limit + 1) + 8 * got.size + (1 << 16)


@pytest.mark.parametrize("count", [
    lambda sieve: default_engine().psi_sum([10.7], [3.9]),
    lambda sieve: default_engine().psi_sum([10], [3.9]),
    lambda sieve: default_engine().psi_sum(np.array([10.0, 20.0]), np.array([3, 3])),
    lambda sieve: default_engine().psi_sum(np.array([10, 2.5], dtype=object), [3, 3]),
    lambda sieve: default_engine().psi_small(10.7, 3.9),
    lambda sieve: default_engine().psi_small(10, 3.0),
    lambda sieve: psi_bruteforce(sieve, 10.7, 3.9),
    lambda sieve: psi_bruteforce(sieve, np.array([10.0]), 3),
], ids=["psi_sum", "psi_sum-y", "psi_sum-array", "psi_sum-objects", "psi_small",
        "psi_small-y", "bruteforce", "bruteforce-array"])
def test_every_count_refuses_float_arguments(sieve5, count):
    # each of these truncated to Psi(10, 3) = 7
    with pytest.raises(ParameterError, match="must be (an )?integer"):
        count(sieve5)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint64],
                         ids=lambda kind: kind.__name__)
def test_every_count_takes_numpy_integers(sieve5, kind):
    engine = default_engine()
    for got in (engine.psi_sum(kind(10), kind(3)), engine.psi_small(kind(10), kind(3)),
                psi_bruteforce(sieve5, kind(10), kind(3)),
                engine.psi_sum(np.array([10], dtype=kind), np.array([3], dtype=kind))):
        assert type(got) is int and got == 7


def test_batch_past_int64_is_a_domain_error():
    # np.asarray raised a bare OverflowError
    for x, y in [(2**70, 3), ([2**70], [3]), ([10], [2**64])]:
        with pytest.raises(DomainError, match="below 2\\^63"):
            default_engine().psi_sum(x, y)


def test_engine_tables_are_read_only():
    # a write into a shared table would change every later count in the
    # process: leaf_labels[10] = 3 made psi_exact(10, 3) read 8, not 7
    # (each write stores the value already there, so that a writeable table
    # is left as it was)
    engine = default_engine()
    for table in (engine.leaf_labels, engine.primes, engine.primes.base):
        with pytest.raises(ValueError, match="read-only"):
            table[10] = table[10]
    assert psi_exact(10, 3) == 7
    grown = PsiEngine()
    grown._ensure_primes(2 * grown.prime_limit + 1)
    assert grown.prime_limit > LEAF_LIMIT
    for table in (grown.primes, grown.primes.base):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[0]
