import json
import math
import random

import numpy as np
import pytest

from billingsley import (BoxCriterion, BoxSpec, DomainError, ParameterError,
                         box_admissible, box_probability_exact, convergence,
                         distance_to_complement, inf_density_on_box, pd_density,
                         rho, run_criterion)

SQ2 = math.sqrt(2.0)


def test_distance_hand_values():
    assert distance_to_complement(BoxSpec((0.4,), (0.1,))) == pytest.approx(0.4, abs=1e-12)
    got = distance_to_complement(BoxSpec((0.5, 0.2), (0.05, 0.05)))
    assert got == pytest.approx(0.2 / SQ2, abs=1e-12)
    # k=2 where the ordering facet is the nearest one
    got = distance_to_complement(BoxSpec((0.35, 0.3), (0.02, 0.02)))
    assert got == pytest.approx((0.35 - 0.32) / SQ2, abs=1e-12)


def test_distance_requires_interior_box():
    with pytest.raises(DomainError):
        distance_to_complement(BoxSpec((0.5, 0.2), (0.05, 0.3)))  # touches ordering facet
    with pytest.raises(DomainError):
        distance_to_complement(BoxSpec((1.2,), (0.1,)))


def test_distance_against_sampled_complement():
    # facet projections of sampled interior points (plus the box corners,
    # where the affine minimum is attained) bracket the exact distance
    rnd = random.Random(11)
    for _ in range(20):
        t2 = rnd.uniform(0.02, 0.2)
        t1 = rnd.uniform(t2 + 0.1, 0.6)
        d1 = rnd.uniform(0.01, min(0.08, (1 - t1 - t2) / 4))
        d2 = rnd.uniform(0.01, min(t1 - t2 - 1e-3, 0.08, (1 - t1 - t2) / 4))
        box = BoxSpec((t1, t2), (d1, d2))
        if not box.inside_u():
            continue
        exact = distance_to_complement(box)
        pts = [np.array([rnd.uniform(t1, t1 + d1), rnd.uniform(t2, t2 + d2)])
               for _ in range(10**4)]
        pts += [np.array([a, b]) for a in (t1, t1 + d1) for b in (t2, t2 + d2)]
        best = math.inf
        for x in pts:
            best = min(best,
                       x[1],                      # distance to facet t_2 = 0
                       (x[0] - x[1]) / SQ2,       # to facet t_1 = t_2
                       (1.0 - x.sum()) / SQ2)     # to facet t_1 + t_2 = 1
        assert exact <= best + 1e-12
        assert best - exact < 1e-3


def test_admissibility_examples():
    box = BoxSpec((0.4,), (0.1,))
    assert box_admissible(box, BoxCriterion(epsilon=0.25, k=1))       # 0.2 < 0.4
    assert not box_admissible(box, BoxCriterion(epsilon=0.01, k=1))   # 5.0 >= 0.4
    assert box_admissible(box, BoxCriterion(epsilon=0.9, k=1, R=0.0))  # R=0: always
    with pytest.raises(ParameterError):
        box_admissible(box, BoxCriterion(epsilon=0.25, k=2))


def test_criterion_validation():
    with pytest.raises(ParameterError):
        BoxCriterion(epsilon=0.0, k=1)
    with pytest.raises(ParameterError):
        BoxCriterion(epsilon=1.0, k=1)
    with pytest.raises(ParameterError):
        BoxCriterion(epsilon=0.5, k=0)
    assert BoxCriterion(epsilon=0.25, k=3).R == pytest.approx(6.0)


def test_admissibility_monotone_under_shrink():
    rnd = random.Random(12)
    crit = BoxCriterion(epsilon=0.25, k=2)
    found = 0
    while found < 25:
        t2 = rnd.uniform(0.05, 0.25)
        t1 = rnd.uniform(t2 + 0.15, 0.6)
        d = rnd.uniform(0.005, 0.03)
        box = BoxSpec((t1, t2), (d, d))
        if not box.inside_u() or not box_admissible(box, crit):
            continue
        found += 1
        for lam in (0.75, 0.5, 0.25, 0.0625):
            shrunk = BoxSpec(
                tuple(t + (1 - lam) * w / 2 for t, w in zip(box.t, box.dt)),
                tuple(lam * w for w in box.dt))
            assert box_admissible(shrunk, crit)


def test_inf_density_bounds(table, monkeypatch):
    got = inf_density_on_box(table, BoxSpec((0.5,), (0.1,)))
    assert got == pytest.approx(1 / 0.6, rel=1e-12)  # rho term is 1 there
    # plain factorized bound without subdivision on [0.3, 0.4]
    monkeypatch.setattr(convergence, "INF_REFINE", 1)
    crude = inf_density_on_box(table, BoxSpec((0.3,), (0.1,)))
    assert crude == pytest.approx(2.5 * rho(table, 0.7 / 0.3), rel=1e-12)
    # refinement only tightens
    monkeypatch.setattr(convergence, "INF_REFINE", 8)
    assert inf_density_on_box(table, BoxSpec((0.3,), (0.1,))) >= crude


def test_inf_density_is_certified_lower_bound(table):
    rnd = random.Random(13)
    boxes = [BoxSpec((0.5,), (0.1,)), BoxSpec((0.3,), (0.15,)),
             BoxSpec((0.45, 0.15), (0.1, 0.1)), BoxSpec((0.5, 0.2), (0.02, 0.02)),
             BoxSpec((0.4, 0.25, 0.1), (0.05, 0.05, 0.05))]
    for box in boxes:
        bound = inf_density_on_box(table, box)
        for _ in range(1000):
            x = [rnd.uniform(t, t + d) for t, d in zip(box.t, box.dt)]
            fx = pd_density(table, x)
            assert fx >= bound - 1e-12, (box, x, fx, bound)


def test_inf_density_table_domain_error_propagates():
    from billingsley import build_rho_table
    small = build_rho_table(u_max=2.0)
    box = BoxSpec((0.3,), (0.05,))  # largest rho argument 0.7/0.3 = 2.33
    with pytest.raises(DomainError):
        inf_density_on_box(small, box)


def test_inf_density_degenerate_width(table):
    point = [0.42, 0.17]
    box = BoxSpec(tuple(point), (1e-13, 1e-13))
    assert inf_density_on_box(table, box) == pytest.approx(
        pd_density(table, point), rel=1e-9)


def test_run_criterion_preconditions(table, sieve5):
    crit = BoxCriterion(epsilon=0.25, k=1)
    with pytest.raises(DomainError):
        run_criterion(sieve5, table, (1000,), BoxSpec((1.2,), (0.1,)), crit)
    with pytest.raises(DomainError) as err:
        run_criterion(sieve5, table, (1000,),
                      BoxSpec((0.4,), (0.1,)), BoxCriterion(epsilon=0.01, k=1))
    assert "not admissible" in str(err.value)


def test_run_criterion_exact_ladder(table, sieve5):
    crit = BoxCriterion(epsilon=0.25, k=1)
    report = run_criterion(sieve5, table, (10**3, 10**4, 10**5),
                           BoxSpec((0.5,), (0.1,)), crit)
    assert report.admissible
    assert [e.n for e in report.entries] == [10**3, 10**4, 10**5]
    assert all(e.method == "exact" for e in report.entries)
    assert report.all_pass()
    for e in report.entries:
        exact = box_probability_exact(sieve5, e.n, report.box).value
        assert e.estimate == exact
        assert e.verdict == (exact >= report.lower_bound)


def test_run_criterion_mc_path(table, sieve5):
    crit = BoxCriterion(epsilon=0.25, k=1)
    rep1 = run_criterion(sieve5, table, (10**4,), BoxSpec((0.5,), (0.1,)), crit,
                         budget=20000, seed=3, exact_threshold=10**3)
    entry = rep1.entries[0]
    assert entry.method == "mc" and entry.std_err is not None
    assert entry.verdict


def test_report_serializes(table, sieve5):
    crit = BoxCriterion(epsilon=0.25, k=1)
    report = run_criterion(sieve5, table, (10**3,), BoxSpec((0.5,), (0.1,)), crit)
    payload = json.dumps(report.to_dict(), sort_keys=True)
    assert '"admissible": true' in payload
    assert '"trend"' in payload
