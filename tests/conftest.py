import threading

import pytest

from billingsley import DomainError, build_rho_table, build_sieve, rng

# Oracle values computed independently of the library, before it was built,
# and frozen here.
#
# rho: the integral recursion rho(u) = rho(v) - int_v^u rho(t-1)/t dt marched
# on a 1e-6 grid with the composite trapezoid rule (the delayed argument lands
# exactly on grid nodes, so there is no interpolation error; total error is
# O(step^2) ~ 1e-12).  Cross-checked on [2, 3] against the closed form
# rho(u) = 1 - log u + int_2^u log(t-1)/t dt via adaptive quadrature; the two
# routes agree to 1e-13.
RHO_ORACLE = {
    1.5: 0.5945348918918356,     # analytic 1 - log 1.5
    2.0: 0.3068528194400547,     # analytic 1 - log 2
    2.5: 0.13031956183225069,
    3.0: 0.048608388291131455,
    3.5: 0.01622959324323589,
    4.0: 0.0049109256476703375,
}

# rho(k + 1/2), from tests/rho_pins.py: power series about the midpoint of
# each unit piece in 140-digit decimal arithmetic, rounded to float.
RHO_PINS = {
    1.5: 0.5945348918918356,
    2.5: 0.13031956183225074,
    3.5: 0.01622959324323599,
    4.5: 0.0013701177411281074,
    5.5: 8.601861112051155e-05,
    6.5: 4.250355517171388e-06,
    7.5: 1.7178674920339857e-07,
    8.5: 5.840569562936228e-09,
    9.5: 1.7063527386353393e-10,
    10.5: 4.355952609051919e-12,
    11.5: 9.847642104485198e-14,
    12.5: 1.993463333032118e-15,
    13.5: 3.6468386517366024e-17,
    14.5: 6.076509609510111e-19,
    15.5: 9.284061405897605e-21,
    16.5: 1.3082753695556928e-22,
    17.5: 1.709048929686716e-24,
    18.5: 2.0790325730634907e-26,
    19.5: 2.3646133398126924e-28,
    39.5: 1.0058969943472898e-71,
}

# H_i: one-dimensional analytic reductions of the nested integrals, evaluated
# by adaptive quadrature --- H_2(u) = int_2^u log(t-1)/t dt, and H_3 by
# integrating the budget-constrained two-variable region over the outer
# coordinate.  1 - H_1 + H_2 - H_3 reproduced the rho oracle to 1e-13.
H_ORACLE = {
    (2, 2.5): 0.046610293706405806,
    (2, 3.0): 0.14722067695924124,
    (2, 3.5): 0.2714662886965588,
    (3, 3.5): 0.0024737269579548637,
}


@pytest.fixture(scope="session")
def table():
    return build_rho_table()  # default u_max 20


@pytest.fixture(scope="session")
def sieve5():
    return build_sieve(10**5)


@pytest.fixture(scope="session")
def sieve6():
    return build_sieve(10**6)


@pytest.fixture(scope="session")
def sieve7():
    return build_sieve(10**7)


def inside_u(box):
    """True iff box.require_inside_u() passes."""
    try:
        box.require_inside_u()
    except DomainError:
        return False
    return True


#: worker counts the determinism tests run every route on
WORKER_COUNTS = (1, 2, 4)


@pytest.fixture
def cpus(monkeypatch):
    """cpus(w) makes rng.run_tasks see w CPUs from then on, so that its pool
    runs even on a one-CPU machine, and returns the list that records the
    thread count of every pool it starts (w - 1 at most: the calling thread
    is a worker too).  A pool's threads are made in worker order, worker 1
    first, so worker 1 opens a new entry."""
    def set_cpus(workers):
        pools = []

        class Recorded(threading.Thread):
            def __init__(self, target, args):
                if args[0] == 1:
                    pools.append(0)
                pools[-1] += 1
                super().__init__(target=target, args=args)

        monkeypatch.setattr(rng, "cpu_count", lambda: workers)
        monkeypatch.setattr(rng, "Thread", Recorded)
        return pools

    return set_cpus
