"""Criterion 3 (psi oracle equivalence) against the scalar loop it replaced,
on a correct LPF table and on copies with a few entries corrupted; criterion
8's chunked draws against one whole batch; criterion 2 under the u bound."""
import functools
import tracemalloc

import numpy as np
import pytest

from billingsley import PrimeSieve, build_sieve, pd_sample_batch, psi_exact, suite
from billingsley.dickman import H_U_MAX
from billingsley.pd_process import DEFAULT_TRUNCATION, _chunk_rows
from billingsley.suite import (ALTERNATING_SUM_POINTS, PD_MARGINAL_SAMPLES,
                               PSI_EQUIV_X_MAX, PSI_EQUIV_Y, SuiteContext,
                               check_alternating_sum, check_pd_marginal,
                               check_psi_oracle_equivalence)


@functools.cache
def engine_side():
    """psi_exact(x, y) per pair, in the loop's order; no sieve involved."""
    return [[psi_exact(x, y) for y in PSI_EQUIV_Y + (x,)]
            for x in range(1, PSI_EQUIV_X_MAX + 1)]


def scalar_loop(sieve):
    """The criterion as a scalar loop: one psi_exact and one table count
    (psi_bruteforce as a scalar count_nonzero) per (x, y) pair."""
    lpf = sieve.largest_prime_factor
    mismatches, first_bad = 0, None
    for x, exact in zip(range(1, PSI_EQUIV_X_MAX + 1), engine_side()):
        for y, want in zip(PSI_EQUIV_Y + (x,), exact):
            if want != int(np.count_nonzero(lpf[1: x + 1] <= y)):
                mismatches += 1
                if first_bad is None:
                    first_bad = [x, y]
    return {"criterion": 3, "name": "psi_oracle_equivalence",
            "x_max": PSI_EQUIV_X_MAX, "y_values": list(PSI_EQUIV_Y) + ["x"],
            "mismatches": mismatches, "first_mismatch": first_bad,
            "passed": mismatches == 0}


def test_criterion_3_equals_scalar_loop(sieve7, table):
    want = scalar_loop(sieve7)
    assert want["passed"]
    assert check_psi_oracle_equivalence(SuiteContext(sieve7, table)) == want


@pytest.fixture(scope="module")
def sieve4():
    return build_sieve(2 * 10**4)


@pytest.mark.parametrize("corrupt", [
    {4096: 3},                        # a wrong smaller-prime label
    {97: 101, 5000: 1},               # an entry above its own m, and a 1
    {1: 2, 6: 13, 9999: 10**6},       # y = 1 breaks; one label beyond x_max
    {10: 7, 12: 11, 8000: 9000},      # the diagonal spoiled over a long run
])
def test_criterion_3_on_corrupted_tables(sieve4, table, corrupt):
    lpf = sieve4.largest_prime_factor.copy()
    for m, label in corrupt.items():
        lpf[m] = label
    bad = PrimeSieve(limit=sieve4.limit, largest_prime_factor=lpf,
                     prime_array=sieve4.prime_array)
    want = scalar_loop(bad)
    assert want["mismatches"] > 0
    assert check_psi_oracle_equivalence(SuiteContext(bad, table)) == want


def test_criterion_8_counts_one_whole_batch_chunk_by_chunk(sieve5, table, monkeypatch):
    sizes = []

    def recording(seed, count, *args, **kwargs):
        sizes.append(count)
        return pd_sample_batch(seed, count, *args, **kwargs)

    monkeypatch.setattr(suite, "pd_sample_batch", recording)
    got = check_pd_marginal(SuiteContext(sieve5, table, 42))
    sticks, _ = pd_sample_batch(42, 10**5)
    assert got["frequency"] == float(np.mean(sticks[:, 0] <= 0.5))
    chunk = _chunk_rows(DEFAULT_TRUNCATION)
    assert sum(sizes) == 10**5 and len(sizes) > 1 and max(sizes) == chunk


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_criterion_8_peak_does_not_grow_with_the_samples(sieve5, table, monkeypatch, cpus):
    cpus(2)
    ctx = SuiteContext(sieve5, table)
    peak = _traced_peak(lambda: check_pd_marginal(ctx))
    monkeypatch.setattr(suite, "PD_MARGINAL_SAMPLES", 2 * PD_MARGINAL_SAMPLES)
    doubled = _traced_peak(lambda: check_pd_marginal(ctx))
    assert doubled <= 1.02 * peak
    # one chunk and its buffers, against 8 * 61 bytes a row for one whole batch
    assert peak < 8 * 61 * PD_MARGINAL_SAMPLES / 2


def test_criterion_2_is_unchanged_under_the_u_bound(sieve5, table):
    assert max(ALTERNATING_SUM_POINTS) <= H_U_MAX
    got = check_alternating_sum(SuiteContext(sieve5, table))
    assert got["passed"]
    assert [row["alternating_sum"] for row in got["points"]] == [
        0.5945348918918356, 0.13031956183223736, 0.016229593243203375]
