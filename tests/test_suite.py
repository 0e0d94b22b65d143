"""Criterion 3 (psi oracle equivalence) against the scalar loop it replaced,
on a correct LPF table and on copies with a few entries corrupted."""
import functools

import numpy as np
import pytest

from billingsley import PrimeSieve, build_sieve, psi_exact
from billingsley.suite import (PSI_EQUIV_X_MAX, PSI_EQUIV_Y, SuiteContext,
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


def context(sieve):
    ctx = SuiteContext()
    ctx._sieve = sieve
    return ctx


def test_criterion_3_equals_scalar_loop(sieve7):
    want = scalar_loop(sieve7)
    assert want["passed"]
    assert check_psi_oracle_equivalence(context(sieve7)) == want


@pytest.fixture(scope="module")
def sieve4():
    return build_sieve(2 * 10**4)


@pytest.mark.parametrize("corrupt", [
    {4096: 3},                        # a wrong smaller-prime label
    {97: 101, 5000: 1},               # an entry above its own m, and a 1
    {1: 2, 6: 13, 9999: 10**6},       # y = 1 breaks; one label beyond x_max
    {10: 7, 12: 11, 8000: 9000},      # the diagonal spoiled over a long run
])
def test_criterion_3_on_corrupted_tables(sieve4, corrupt):
    lpf = sieve4.largest_prime_factor.copy()
    for m, label in corrupt.items():
        lpf[m] = label
    bad = PrimeSieve(limit=sieve4.limit, largest_prime_factor=lpf,
                     prime_array=sieve4.prime_array)
    want = scalar_loop(bad)
    assert want["mismatches"] > 0
    assert check_psi_oracle_equivalence(context(bad)) == want
