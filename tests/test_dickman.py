import math
import random
import time

import numpy as np
import pytest

from billingsley import (DomainError, NumericalError, ParameterError, ResourceError,
                         build_rho_table, dickman, h_function, rho, rho_via_alternating_sum)
from billingsley.dickman import H_U_MAX, NODES_PER_UNIT
from conftest import H_ORACLE, RHO_ORACLE, RHO_PINS

import rho_pins

#: relative error allowed against the independent series of rho_pins.py
PIN_REL_TOL = 1e-13


def test_rho_is_one_on_initial_interval(table):
    assert rho(table, 0.0) == 1.0
    assert rho(table, 0.5) == 1.0
    assert rho(table, 1.0) == 1.0


def test_rho_analytic_on_1_2(table):
    us = 1.0 + np.arange(1001) * 1e-3
    err = np.max(np.abs(rho(table, us) - (1.0 - np.log(us))))
    assert err < 1e-9


@pytest.mark.parametrize("u", sorted(RHO_ORACLE))
def test_rho_against_oracle(table, u):
    assert rho(table, u) == pytest.approx(RHO_ORACLE[u], abs=1e-9)


@pytest.fixture(scope="module")
def table40():
    return build_rho_table(u_max=40.0)


@pytest.fixture(scope="module")
def midpoint_series():
    return rho_pins.midpoint_series()


@pytest.mark.parametrize("u", sorted(RHO_PINS))
def test_rho_against_pins(table, table40, u):
    tab = table if u <= table.u_max else table40
    assert rho(tab, u) == pytest.approx(RHO_PINS[u], rel=PIN_REL_TOL, abs=0)


def test_rho_pins_regenerate():
    assert rho_pins.pins() == RHO_PINS


def test_rho_known_values(table):
    assert rho(table, 3.0) == pytest.approx(0.048608388291131567, rel=PIN_REL_TOL, abs=0)
    assert rho(table, 10.0) == pytest.approx(2.7701718377259590e-11, rel=PIN_REL_TOL, abs=0)


@pytest.mark.parametrize("u_max", [20.0, 40.0])
def test_rho_relative_error_everywhere(table, table40, midpoint_series, u_max):
    # random points, every node at a quarter unit, both ends, and the cells
    # on either side of the integers
    tab = table if u_max == table.u_max else table40
    rnd = np.random.default_rng(int(u_max))
    ints = np.arange(1.0, u_max)
    us = np.concatenate([rnd.uniform(0.0, u_max, 400), np.arange(0.0, u_max, 0.25),
                         ints - 1e-5, ints + 1e-5, [u_max * (1 - 1e-16)]])
    got = rho(tab, us)
    want = np.array([float(rho_pins.rho_reference(u, midpoint_series)) for u in us.tolist()])
    rel = np.abs(got - want) / want
    assert rel.max() <= PIN_REL_TOL, (us[np.argmax(rel)], rel.max())


def test_rho_vectorized_matches_scalar(table):
    us = np.array([0.3, 1.0, 1.7, 2.4, 3.9, 11.2])
    vec = rho(table, us)
    assert vec == pytest.approx([rho(table, float(u)) for u in us], abs=0)


def test_rho_domain_errors(table):
    with pytest.raises(DomainError):
        rho(table, -0.01)
    with pytest.raises(DomainError):
        rho(table, table.u_max + 0.5)
    for bad in (float("nan"), float("inf"), float("-inf"), np.array([1.0, np.nan])):
        with pytest.raises(DomainError):
            rho(table, bad)
    # a few ulps past the end is rounding noise, not an error
    assert rho(table, table.u_max * (1 + 1e-16)) == rho(table, table.u_max)


def test_build_parameter_errors():
    for bad in (0.5, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            build_rho_table(u_max=bad)


def test_huge_u_max_stores_only_the_float_range():
    # no node past the first zero one is stored, so u_max sets the domain alone
    ref = build_rho_table(u_max=130.0)
    huge = build_rho_table(u_max=1e16)
    us = np.linspace(0.0, 130.0, 100001)
    assert np.array_equal(rho(huge, us), rho(ref, us))
    assert rho(huge, 1e15) == 0.0
    assert huge.cells.nbytes < 17 * 2**20
    # u_max * NODES_PER_UNIT would overflow a float here
    assert np.array_equal(build_rho_table(u_max=1.7e308).cells, ref.cells)


def test_table_invariants(table):
    vals = table.cells[0]
    assert vals.size == 20 * NODES_PER_UNIT + 1
    assert np.all(vals > 0)
    assert np.all(vals <= 1.0)
    assert np.all(vals[: NODES_PER_UNIT + 1] == 1.0)
    assert np.all(table.cells[1:, :NODES_PER_UNIT] == 0.0)  # constant on [0, 1]
    assert np.all(np.diff(vals[NODES_PER_UNIT:]) < 0)
    # each cell's cubic meets the next node's value
    assert np.allclose(table.cells[:, :-1].sum(axis=0), vals[1:], rtol=1e-15, atol=0)


def test_table_reads_zero_past_the_float_range(table):
    wide = build_rho_table(u_max=150.0)
    us = np.linspace(0.0, table.u_max, 2001)
    assert rho(wide, us) == pytest.approx(rho(table, us), rel=1e-14, abs=0)
    assert 0.0 < rho(wide, 120.0) < 1e-280
    assert rho(wide, 129.0) == rho(wide, 150.0) == 0.0
    vals = wide.cells[0]
    assert np.all(np.diff(vals) <= 0) and np.all(vals >= 0)


def test_rho_monotone_nonincreasing(table):
    rnd = random.Random(1)
    for _ in range(300):
        u1 = rnd.uniform(0, table.u_max)
        u2 = rnd.uniform(u1, table.u_max)
        assert rho(table, u1) >= rho(table, u2) - 1e-12


def test_h0_is_one():
    assert h_function(0, 5.0) == 1.0
    assert h_function(0, 0.3) == 1.0


def test_h_vanishes_at_or_below_index():
    assert h_function(2, 1.9) == 0.0
    assert h_function(2, 2.0) == 0.0
    assert h_function(3, 3.0) == 0.0


def test_h1_is_log():
    assert h_function(1, 2.0) == pytest.approx(math.log(2.0), abs=1e-12)
    assert h_function(1, 3.7) == pytest.approx(math.log(3.7), abs=1e-12)


@pytest.mark.parametrize("key", sorted(H_ORACLE))
def test_h_against_oracle(key):
    i, u = key
    assert h_function(i, u) == pytest.approx(H_ORACLE[key], abs=1e-8)


@pytest.mark.parametrize("i", [1.5, 2.0, True, False, None, "1"])
def test_h_index_must_be_an_int(i):
    with pytest.raises(ParameterError, match="index"):
        h_function(i, 3.0)


def test_h_parameter_errors():
    with pytest.raises(ParameterError):
        h_function(-1, 2.0)
    with pytest.raises(ParameterError):
        h_function(1, 0.0)


def test_h_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(dickman, "QUAD_MAX_DEPTH", 1)
    with pytest.raises(NumericalError, match="within depth 1"):
        h_function(2, 3.5)


@pytest.mark.parametrize("u", [float("nan"), float("inf"), float("-inf")])
def test_h_refuses_non_finite_u(u):
    for i in (0, 1, 2):
        with pytest.raises(ParameterError):
            h_function(i, u)


@pytest.mark.parametrize("u", [float("nan"), float("inf"), float("-inf")])
def test_alternating_sum_refuses_non_finite_u(u):
    with pytest.raises(ParameterError):
        rho_via_alternating_sum(u)


@pytest.mark.parametrize("call", [
    lambda: rho_via_alternating_sum(7.5),  # 133 s without the bound
    lambda: rho_via_alternating_sum(math.nextafter(H_U_MAX, math.inf)),
    lambda: h_function(6, 7.5),
    lambda: h_function(2, 1e6),
], ids=["rho-7.5", "rho-past-bound", "h6-7.5", "h2-1e6"])
def test_quadrature_past_the_u_bound_is_refused_at_once(call):
    t0 = time.perf_counter()
    with pytest.raises(ResourceError, match="H_U_MAX"):
        call()
    assert time.perf_counter() - t0 < 0.1


def test_h_answers_at_the_u_bound():
    assert h_function(2, H_U_MAX) > 0
    assert h_function(1, H_U_MAX) == pytest.approx(math.log(H_U_MAX), abs=1e-12)


def test_alternating_sum_trivial_below_one():
    assert rho_via_alternating_sum(0.5) == 1.0


def test_alternating_sum_single_term():
    assert rho_via_alternating_sum(1.5) == pytest.approx(1 - math.log(1.5), abs=1e-10)


@pytest.mark.parametrize("u", [0.5, 1.5, 2.5, 3.5])
def test_alternating_sum_matches_rho(table, u):
    assert abs(rho(table, u) - rho_via_alternating_sum(u)) < 1e-6


def test_small_table_matches_default(table):
    small = build_rho_table(u_max=3.0)
    for u in (1.3, 2.2, 2.9, 3.0):
        assert rho(small, u) == pytest.approx(rho(table, u), rel=1e-15, abs=0)
    # a u_max between nodes ends on the first node past it
    odd = build_rho_table(u_max=2.3)
    assert odd.cells.shape[1] == math.ceil(2.3 * NODES_PER_UNIT) + 1
    assert rho(odd, 2.3) == pytest.approx(rho(table, 2.3), rel=1e-15, abs=0)
