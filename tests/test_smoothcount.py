import math
import random
import tracemalloc

import numpy as np
import pytest

from billingsley import errors, smoothcount
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


@pytest.mark.parametrize("x", [2, 2**20, 2**20 + 1, 10**12])
def test_exact_at_y_1_counts_only_1(x):
    # below, at and past the leaf limit: the leaf table and the sweep agree
    assert psi_exact(x, 1) == 1


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
    near = []
    for _ in range(40):
        y = rnd.randint(2, 3000)
        cases.append((rnd.randint(1, 10**7), y))
        sq = (y + 1) ** 2
        near.append((min(10**7, sq + rnd.randint(-2, 2)), y))
    for x, y in cases + near:
        assert psi_exact(x, y) == psi_bruteforce(sieve7, x, y), (x, y)
    # psi_exact answers these off the prime-count table; psi_sum keeps them
    # on the sweep, whose one-large-factor band they open or just miss
    for x, y in near:
        assert default_engine().psi_sum([x], [y]) == psi_bruteforce(sieve7, x, y), (x, y)


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


def test_batch_parameter_and_resource_errors():
    engine = PsiEngine()
    with pytest.raises(ParameterError, match="same shape"):
        engine.psi_sum([10, 20], [3])
    with pytest.raises(ParameterError, match="y must be >= 1"):
        engine.psi_sum([10], [0])
    # a y past the cap is refused before the prime list grows
    grown = engine.prime_limit
    with pytest.raises(ResourceError, match="exceeds cap"):
        engine.psi_sum([10**9], [smoothcount.PRIME_CAP + 1])
    assert engine.prime_limit == grown


def test_one_large_factor_splits_a_batch_past_its_row_bound(sieve7, monkeypatch):
    # each batch holds quotients at a prime y just below (y + 1)^2, so they
    # all reach the identity at y's stage; with the bound at 64 rows they are
    # halved down to one quotient a call, and the count must not move
    rnd = random.Random(14)
    batches = []
    for y in (1103, 2003, 3001):
        top = min(10**7, (y + 1) ** 2 - 1)
        xs = [top - d for d in range(3)] + [rnd.randint(LEAF_LIMIT + 1, top)
                                            for _ in range(5)]
        batches.append((xs, [y] * len(xs)))
    sizes, real = [], PsiEngine._one_large_factor

    def counted(self, z, w, j):
        sizes.append(z.size)
        return real(self, z, w, j)

    monkeypatch.setattr(PsiEngine, "_one_large_factor", counted)
    unsplit = [default_engine().psi_sum(xs, ys) for xs, ys in batches]
    assert max(sizes) >= 8
    whole = len(sizes)
    monkeypatch.setattr(smoothcount, "IDENTITY_ROWS", 64)
    split = [default_engine().psi_sum(xs, ys) for xs, ys in batches]
    assert len(sizes) - whole > 3 * whole and 1 in sizes[whole:]
    assert split == unsplit == [sum(psi_bruteforce(sieve7, x, y) for x, y in zip(xs, ys))
                                for xs, ys in batches]


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


def pi_off_sieve(sieve, v):
    """pi(v) for each v of an integer array, by searching the sieve's primes."""
    return np.searchsorted(sieve.prime_array, v, side="right")


def test_prime_counts_match_the_sieve_at_every_floor_quotient(sieve7):
    rnd = random.Random(33)
    xs = [r * r + d for r in (1025, 2000, 3162) for d in (-1, 0, 1)]
    xs += [rnd.randint(2, 10**7) for _ in range(12)] + list(range(1, 40))
    engine = default_engine()
    for x in xs:
        small, large = engine._prime_counts(x)
        r = math.isqrt(x)
        m = np.arange(1, r + 1)
        assert small.size == large.size == r + 1, x
        assert np.array_equal(small, pi_off_sieve(sieve7, np.arange(r + 1))), x
        assert np.array_equal(large[1:], pi_off_sieve(sieve7, x // m)), x


def cube_root_ceil(x):
    """The least c with c^3 >= x."""
    c = round(x ** (1 / 3))
    while c**3 < x:
        c += 1
    while (c - 1) ** 3 >= x:
        c -= 1
    return c


def test_exact_off_the_table_against_bruteforce(sieve7):
    # both sides of every routing edge: (y + 1)^2 > x opens the identity on
    # x itself, (y + 1)^3 >= x allows one Buchstab step down to it, and the
    # cost rule decides where between them the table is taken.  The kernel
    # is also called directly on every y it can take, since the cost rule
    # leaves the y just above x^(1/3) to the sweep
    rnd = random.Random(34)
    xs = [LEAF_LIMIT + 1, 3 * 10**6, 3162**2, 3162**2 + 1, 10**7 - 1, 10**7]
    xs += [rnd.randint(LEAF_LIMIT + 1, 10**7) for _ in range(8)]
    engine = default_engine()
    for x in xs:
        root, cube = math.isqrt(x), cube_root_ceil(x)
        rule = cube_root_ceil(smoothcount.TABLE_CUBE_RATIO**3 * x)
        ys = {root - 1, root, root + 1, cube - 2, cube - 1, cube, rule - 1, rule, x - 1, x // 2,
              rnd.randint(cube, root), rnd.randint(cube, root), rnd.randint(root, x - 1)}
        for y in sorted(ys):
            want = psi_bruteforce(sieve7, x, y)
            assert psi_exact(x, y) == want, (x, y)
            if (y + 1) ** 3 >= x:
                assert engine._psi_off_table(x, y) == want, (x, y)


def test_each_call_builds_its_own_table_and_leaves_the_engine_as_it_was(sieve7, monkeypatch):
    # a y-ladder at one x builds x's table on every call.  pi(y) for a y
    # that is no floor quotient of x is a search of the engine's primes up
    # to T = 2^20, and past T the top of a table for y, built first and let
    # go before x's; neither grows the engine's prime list
    engine = PsiEngine()
    monkeypatch.setattr(smoothcount, "default_engine", lambda: engine)
    primes, limit = engine.primes, engine.prime_limit
    built = []
    prime_counts = engine._prime_counts
    monkeypatch.setattr(engine, "_prime_counts",
                        lambda x: built.append(x) or prime_counts(x))
    x = 3 * 10**6
    ys = [1732, 1740, 2 * 1732 + 1, 1_200_000, x // 2, x - 2, 200, 1500]
    for y in ys:
        built.clear()
        assert psi_exact(x, y) == psi_bruteforce(sieve7, x, y), y
        assert built == ([y, x] if y in (1_200_000, x - 2) else [x]), y
    assert engine.primes is primes and engine.prime_limit == limit == LEAF_LIMIT


def test_table_for_y_is_let_go_before_the_table_for_x(monkeypatch):
    # 10^7 - 2 is no floor quotient of 10^7, and both tables run to r =
    # 3162: a budget for one table answers, since the two never coexist
    x, y = 10**7, 10**7 - 2
    budget = smoothcount._table_bytes(math.isqrt(x)) + 1
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", budget)
    assert PsiEngine()._psi_off_table(x, y) == x  # 9999999 = 9 * 1111111


def test_table_past_the_leaf_limit_reads_its_primes_off_its_own_counts(sieve6, monkeypatch):
    # with T = 64, every x here has sqrt(x) > T: the stages of the p with
    # p^3 <= x read the primes up to 64, the batch and Buchstab primes past
    # them are the steps of the table's small counts, and the prime list
    # stays as it was.  From 61^3 on (61 is the largest prime <= 64) a
    # stage prime could lie past the list, so the table is refused
    monkeypatch.setattr(smoothcount, "LEAF_LIMIT", 64)
    engine = PsiEngine()
    primes = engine.primes
    rnd = random.Random(35)
    xs = [65**2, 65**2 + 1, 10**5, 200**2, 61**3 - 1] + [rnd.randint(65**2, 61**3 - 1)
                                                         for _ in range(4)]
    for x in xs:
        small, large = engine._prime_counts(x)
        r = math.isqrt(x)
        assert np.array_equal(small, pi_off_sieve(sieve6, np.arange(r + 1))), x
        assert np.array_equal(large[1:], pi_off_sieve(sieve6, x // np.arange(1, r + 1))), x
        cube = cube_root_ceil(x)
        for y in sorted({cube - 1, cube, cube + 5, rnd.randint(cube, r), r - 1, r, r + 1,
                         rnd.randint(r, x - 1), x // 3, x - 2}):
            if (y + 1) ** 3 >= x:
                assert engine._psi_off_table(x, y) == psi_bruteforce(sieve6, x, y), (x, y)
    assert engine.primes is primes and engine.prime_limit == 64
    for x in (61**3, 61**3 + 1, 10**7):
        with pytest.raises(ResourceError, match="needs primes past 64"):
            engine._prime_counts(x)
    with pytest.raises(ResourceError, match="needs primes past 64"):
        engine._psi_off_table(61**3, 61**2)


def test_pinned_values_off_the_table():
    # the sweep (psi_sum) gives the same values, in about 8 s and 2 s
    assert psi_exact(10**10, 4641588) == 6139365493
    assert psi_exact(10**11, 316227) == 32447457161


def test_y_past_the_prime_cap_is_answered_off_the_table():
    # the sweep refuses y > PRIME_CAP; here every p in (y, x] has x // p = 1,
    # so Psi(x, y) = x - (pi(x) - pi(y)), pi(2e8) = 11078937 and 100000007 is
    # the first prime past 10^8, pi(10^8) = 5761455
    assert psi_exact(2 * 10**8, 10**8 + 7) == 2 * 10**8 - (11078937 - 5761456)


@pytest.mark.parametrize("x", [LEAF_LIMIT + 1, 10**7, 10**9, 10**11])
def test_table_bytes_bound_the_traced_peak(x):
    # the memory check refuses a table by this estimate, so it must not
    # undercount what the table, or a count read off it, allocates; at 10^11
    # (a second under tracemalloc) only the table, whose peak the counts share.
    # At y = x - 2 the table for y is let go before the one for x is built
    engine = PsiEngine()
    r = math.isqrt(x)
    for y in [None] + ([cube_root_ceil(2 * x), r + 7, x - 2] if x < 10**10 else []):
        tracemalloc.start()
        try:
            engine._prime_counts(x) if y is None else engine._psi_off_table(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= smoothcount._table_bytes(r), (x, y)


def test_oversized_prime_count_table_is_refused_before_any_work(monkeypatch):
    engine = default_engine()
    grown = engine.prime_limit
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", 1 << 20)
    # the table to 10^15 would hold about 1 GiB (its stages read the
    # primes up to T, and the list does not grow)
    with pytest.raises(ResourceError, match="prime-count table"):
        psi_exact(10**15, 4 * 10**7)
    with pytest.raises(ResourceError, match="prime-count table"):
        engine._prime_counts(10**15)
    assert engine.prime_limit == grown
