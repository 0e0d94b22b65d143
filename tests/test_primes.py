import functools
import math
import random
import tracemalloc

import numpy as np
import pytest

from billingsley import errors, primes, smoothcount
from billingsley import (DomainError, ParameterError, ResourceError, build_sieve,
                         mertens_constant_estimate, mertens_sum, power_ceil,
                         power_floor)
from billingsley.primes import _build_bytes
from billingsley.smoothcount import PsiEngine


def trial_division_primes(limit):
    out = []
    for m in range(2, limit + 1):
        if all(m % p for p in out if p * p <= m):
            out.append(m)
    return out


def test_small_primes_identified():
    sieve = build_sieve(10)
    assert sieve.prime_array.tolist() == [2, 3, 5, 7]


def test_sieve_against_trial_division(sieve5):
    oracle = trial_division_primes(10**5)
    got = sieve5.prime_array
    assert len(got) == len(oracle)
    assert got.tolist() == oracle


#: limits around the wheel period 30030 and the sieve segment 2^18, and the
#: tiny limits where the wheel is cut to the primes up to sqrt(limit)
SIEVE_LIMITS = (list(range(2, 400)) + [30029, 30030, 30031, 60060, 2**17 - 1,
                                        2**17 + 1, 2**18 - 1, 2**18 + 1, 10**5])


@functools.cache
def trial_division_lpf(limit):
    """Largest prime factor of every m <= limit (1 at 0 and 1) by trial division."""
    want = [1, 1]
    for m in range(2, limit + 1):
        big, d, rest = 1, 2, m
        while d * d <= rest:
            while rest % d == 0:
                big, rest = d, rest // d
            d += 1
        want.append(max(big, rest))
    return want


def test_lpf_against_trial_division(sieve5):
    want = trial_division_lpf(max(SIEVE_LIMITS))
    assert sieve5.largest_prime_factor.tolist() == want[: 10**5 + 1]
    for limit in SIEVE_LIMITS:
        sieve = build_sieve(limit)
        assert sieve.largest_prime_factor.tolist() == want[: limit + 1], limit
        assert sieve.prime_array.tolist() == [m for m in range(2, limit + 1)
                                              if want[m] == m], limit


#: limits where a finalize block [s, 2s) meets a segment edge, and on either
#: side of the square of a prime, where sqrt(limit) becomes a slice prime;
#: too large for the trial-division oracle
EDGE_LIMITS = [2**19 - 1, 2**19 + 1, 3 * 2**18 + 1, 1009**2 - 1, 1009**2, 2**20]


def test_lpf_against_psi_engine_leaf_table(sieve7, monkeypatch):
    # two separately written builders of the same table
    sieve = build_sieve(1 << 20)
    assert np.array_equal(sieve.largest_prime_factor[1:], PsiEngine().leaf_labels[1:])
    monkeypatch.setattr(smoothcount, "LEAF_LIMIT", 10**7)
    engine = PsiEngine()
    for sieve in [build_sieve(limit) for limit in SIEVE_LIMITS + EDGE_LIMITS] + [sieve7]:
        assert np.array_equal(sieve.largest_prime_factor[1:],
                              engine.leaf_labels[1: sieve.limit + 1]), sieve.limit
        assert np.array_equal(sieve.prime_array,
                              engine.primes[engine.primes <= sieve.limit]), sieve.limit


@pytest.mark.parametrize("limit", [2, 3, 4, 5, 24, 25, 26, 97, 121])
def test_tiny_sieves_are_prefixes(sieve5, limit):
    sieve = build_sieve(limit)
    assert np.array_equal(sieve.largest_prime_factor,
                          sieve5.largest_prime_factor[: limit + 1])
    assert sieve.prime_array.tolist() == trial_division_primes(limit)


def test_sieve_tables_are_read_only(sieve5, table):
    arrays = [sieve5.largest_prime_factor, sieve5.prime_array, table.cells]
    # the table and the primes are heads of larger buffers: a write through
    # a buffer would change the sieve as surely as one through its view
    # (each write stores the value already there, so that a writeable
    # buffer leaves the shared sieve as it was)
    arrays += [arr.base for arr in arrays if arr.base is not None]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[1] = arr[1]


@pytest.mark.parametrize("limit", [10**4, 10**5, 10**6])
def test_build_bytes_bounds_the_traced_peak(limit):
    # the memory check refuses a build by this estimate, so it must not
    # undercount what the build allocates
    tracemalloc.start()
    try:
        build_sieve(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _build_bytes(limit)


def test_sieve_parameter_and_resource_errors(monkeypatch):
    with pytest.raises(ParameterError):
        build_sieve(1)
    with pytest.raises(ResourceError):
        build_sieve(2**31 - 1)  # past the default budget, before any allocation
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", 1 << 20)
    with pytest.raises(ResourceError, match="budget is 0.000977 GiB"):
        build_sieve(10**6)


def test_largest_prime_factor_table(sieve5):
    lpf = sieve5.largest_prime_factor
    assert lpf[1] == 1
    assert lpf[12] == 3
    assert lpf[97] == 97
    assert lpf[2 * 3 * 5 * 7] == 7


def test_mertens_examples(sieve5):
    assert mertens_sum(sieve5, 2, 10) == pytest.approx(1 / 2 + 1 / 3 + 1 / 5 + 1 / 7)
    assert mertens_sum(sieve5, 2, 2) == 0.5
    assert mertens_sum(sieve5, 24, 28) == 0.0


def test_mertens_constant_small_values(sieve5):
    want3 = 1 / 2 + 1 / 3 - math.log(math.log(3))
    assert mertens_constant_estimate(sieve5, 3) == pytest.approx(want3, abs=1e-12)
    want10 = (1 / 2 + 1 / 3 + 1 / 5 + 1 / 7) - math.log(math.log(10))
    assert mertens_constant_estimate(sieve5, 10) == pytest.approx(want10, abs=1e-12)


def test_mertens_domain_errors(sieve5):
    with pytest.raises(DomainError):
        mertens_sum(sieve5, 10, 5)
    with pytest.raises(DomainError):
        mertens_sum(sieve5, 2, 10**6)
    with pytest.raises(DomainError):
        mertens_constant_estimate(sieve5, 2)


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
def test_mertens_refuses_non_finite_bounds(sieve5, v):
    with pytest.raises(DomainError):
        mertens_sum(sieve5, 2, v)
    with pytest.raises(DomainError):
        mertens_sum(sieve5, v, 100)
    with pytest.raises(DomainError):
        mertens_constant_estimate(sieve5, v)


def test_mertens_sum_is_the_ascending_fold(sieve7):
    # the same bits as adding 1/p one prime at a time, smallest first
    n, (t, dt) = 10**7, (0.3, 0.05)
    for a, b in [(2, 1000), (11, 40000), (2, 10**6), (2, n),
                 (power_ceil(n, t), power_floor(n, t + dt))]:
        total = 0.0
        for p in sieve7.primes_in_range(a, b).tolist():
            total += 1.0 / p
        assert mertens_sum(sieve7, a, b) == total


def test_mertens_sum_chunks_are_one_cumulative_sum(sieve7):
    # ranges of chunk - 1, chunk and chunk + 1 primes end at chunk boundaries
    ps = sieve7.prime_array
    c = primes._SUM_CHUNK
    for first in (0, 5):
        for count in (1, c - 1, c, c + 1, 2 * c, 3 * c + 7):
            part = ps[first:first + count]
            want = float(np.cumsum(1.0 / part)[-1])
            assert mertens_sum(sieve7, int(part[0]), int(part[-1])) == want


def test_mertens_sum_memory_does_not_grow_with_the_range(sieve7):
    tracemalloc.start()
    try:
        mertens_sum(sieve7, 2, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20  # the 664579 reciprocals and their sums would be 10.6 MB


def test_power_bounds_exact_integer_hits():
    assert power_floor(10**6, 0.5) == 1000
    assert power_ceil(10**6, 0.5) == 1000
    assert power_floor(100, 0.5) == 10
    assert power_ceil(100, 0.5) == 10
    assert power_floor(10**4, 0.25) == 10
    assert power_ceil(10**4, 0.25) == 10
    assert power_floor(7, 1.0) == 7
    assert power_ceil(7, 1.0) == 7
    assert power_floor(12345, 0.0) == 1
    assert power_ceil(12345, 0.0) == 1


def test_power_bounds_generic():
    assert power_floor(1000, 0.5) == 31
    assert power_ceil(1000, 0.5) == 32
    assert power_floor(10**7, 0.5) == 3162
    assert power_ceil(10**7, 0.5) == 3163
    assert power_floor(10**7, 0.3) == 125   # 10^2.1 = 125.89...
    assert power_ceil(10**7, 0.3) == 126


def test_power_bounds_against_exact_roots():
    # for dyadic t = a/2^s the comparison m <=> n^t is decidable in integers
    rnd = random.Random(5)
    for _ in range(200):
        n = rnd.randint(2, 10**7)
        s = rnd.randint(1, 6)
        a = rnd.randint(1, 2**s)
        t = a / 2**s
        fl, ce = power_floor(n, t), power_ceil(n, t)
        assert fl ** (2**s) <= n**a < (fl + 1) ** (2**s)
        assert (ce - 1) ** (2**s) < n**a <= ce ** (2**s)


def test_power_bounds_parameter_errors():
    with pytest.raises(ParameterError):
        power_floor(0, 0.5)
    with pytest.raises(ParameterError):
        power_ceil(10, -0.1)
    # n^t past the float range, or not a number, is a parameter error, not
    # an OverflowError or ValueError
    for t in (1e30, math.inf, math.nan):
        with pytest.raises(ParameterError, match="not a finite float"):
            power_ceil(10**4, t)
        with pytest.raises(ParameterError, match="not a finite float"):
            power_floor(2, t)


@pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf])
def test_power_bounds_refuse_non_finite_n(n):
    with pytest.raises(ParameterError):
        power_floor(n, 0.5)
    with pytest.raises(ParameterError):
        power_ceil(n, 0.5)


#: (n, t) with n^t at or next to an integer, where the exact comparison
#: decides: 2^40 at t = 3/4 compares 2^120 with 2^120, which numpy int64 and
#: uint64 powers wrap to 0
NEAR_INTEGER_POWERS = [(10**6, 0.5), (10**4, 0.25), (10**4, 0.75), (2**40, 0.75),
                       (10**10, 0.5), (10**10, 0.8)]


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint64],
                         ids=lambda kind: kind.__name__)
def test_power_bounds_take_numpy_integers(kind):
    for n, t in NEAR_INTEGER_POWERS:
        if n > np.iinfo(kind).max:
            continue
        for f in (power_floor, power_ceil):
            got = f(kind(n), t)
            assert got == f(n, t) and type(got) is int, (kind, n, t)
    assert power_floor(kind(10**6), 0.5) == power_ceil(kind(10**6), 0.5) == 1000


@pytest.mark.parametrize("n", [1e6, 1000.0, 10.5])
def test_power_bounds_refuse_float_n(n):
    with pytest.raises(ParameterError, match="must be an integer"):
        power_floor(n, 0.5)
    with pytest.raises(ParameterError, match="must be an integer"):
        power_ceil(n, 0.5)


def test_mertens_range_approximates_log_ratio(sieve7):
    # finite-n form: the reciprocal sum over [n^t, n^{t+dt}] is close to
    # log((t+dt)/t) already at n = 10^7
    n, t, dt = 10**7, 0.3, 0.05
    s = mertens_sum(sieve7, power_ceil(n, t), power_floor(n, t + dt))
    assert abs(s - math.log((t + dt) / t)) < 0.05


def test_primes_in_range(sieve5):
    assert sieve5.primes_in_range(10, 20).tolist() == [11, 13, 17, 19]
    assert sieve5.primes_in_range(24, 28).size == 0
