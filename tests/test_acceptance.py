"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criteria with a stated runtime budget are timed against it (fixtures provide
the shared sieve, matching the budgets' assumption that the sieve exists).
"""
import time

import numpy as np
import pytest

from billingsley import build_rho_table, rho
from billingsley.cli import dispatch
from billingsley.suite import (SuiteContext, check_alternating_sum,
                               check_dickman_ladder, check_mertens_range,
                               check_mertens_stabilization, check_pd_box_ladder,
                               check_pd_marginal, check_prime_tuple_identity,
                               check_proposition1_harness,
                               check_psi_oracle_equivalence)


@pytest.fixture(scope="module")
def ctx(sieve7, table):
    c = SuiteContext()
    c._sieve = sieve7
    c._table = table
    return c


def _run(ctx, number, fn, budget=None):
    t0 = time.perf_counter()
    result = fn(ctx)
    elapsed = time.perf_counter() - t0
    status = "PASS" if result["passed"] else "FAIL"
    print(f"criterion {number:>2}: {status}  [{elapsed:6.2f}s]  {result['name']}")
    assert result["passed"], result
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
    return result


def test_criterion_01_dickman_analytic():
    # timed including a fresh table build
    t0 = time.perf_counter()
    table = build_rho_table(u_max=20.0)
    us = 1.0 + np.arange(1001) * 1e-3
    err = float(np.max(np.abs(rho(table, us) - (1.0 - np.log(us)))))
    elapsed = time.perf_counter() - t0
    ok = err < 1e-9 and elapsed < 2.0
    print(f"criterion  1: {'PASS' if ok else 'FAIL'}  [{elapsed:6.2f}s]  "
          f"dickman_analytic_identity (max err {err:.2e})")
    assert err < 1e-9
    assert elapsed < 2.0


def test_criterion_02_alternating_sum(ctx):
    result = _run(ctx, 2, check_alternating_sum, budget=30.0)
    assert result["max_abs_diff"] < 1e-6


def test_criterion_03_psi_oracle_equivalence(ctx):
    _run(ctx, 3, check_psi_oracle_equivalence, budget=10.0)


def test_criterion_04_prime_tuple_identity(ctx):
    result = _run(ctx, 4, check_prime_tuple_identity, budget=60.0)
    assert len(result["cases"]) == 27  # 3 boxes x 3 k x 3 n


def test_criterion_05_dickman_ladder(ctx):
    _run(ctx, 5, check_dickman_ladder, budget=60.0)


def test_criterion_06_mertens_stabilization(ctx):
    _run(ctx, 6, check_mertens_stabilization, budget=30.0)


def test_criterion_07_mertens_range(ctx):
    _run(ctx, 7, check_mertens_range)


def test_criterion_08_pd_marginal(ctx):
    result = _run(ctx, 8, check_pd_marginal, budget=10.0)
    # two-sided 3-sigma band: documented flake rate 0.27% over random seeds;
    # the shipped default seed is fixed and passes
    assert result["tolerance"] == pytest.approx(0.00437, abs=2e-4)


def test_criterion_09_pd_box_ladder(ctx):
    _run(ctx, 9, check_pd_box_ladder)


def test_criterion_10_proposition1_harness(ctx):
    _run(ctx, 10, check_proposition1_harness)


def test_criterion_11_determinism(tmp_path):
    payloads = []
    for run in (1, 2):
        path = tmp_path / f"suite_{run}.json"
        code = dispatch(["suite", "--name", "all", "--seed", "42", "--report", str(path)])
        assert code == 0
        payloads.append(path.read_bytes())
    identical = payloads[0] == payloads[1]
    print(f"criterion 11: {'PASS' if identical else 'FAIL'}  "
          "suite --name all --seed 42 byte-identical across runs")
    assert identical
