"""Named verification bundles: exact identities, oracle equivalences, and
finite-n convergence ladders, with every tolerance pinned as a constant.

Each check returns a JSON-ready dict with a boolean "passed"; the dicts are
deterministic for a fixed seed (no timestamps, and the scans and samplers
that run on several CPUs return the same bits on one), so a bundle report
can be compared byte-for-byte across runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .convergence import (BoxCriterion, box_admissible, distance_to_complement,
                          run_criterion)
from .dickman import DickmanTable, build_rho_table, rho, rho_via_alternating_sum
from .errors import ParameterError
from .factor_stats import BoxSpec, box_probability_exact, box_probability_via_psi
from .pd_process import (DEFAULT_TRUNCATION, _chunk_rows, pd_box_probability_refined,
                         pd_sample_batch)
from .primes import (PrimeSieve, build_sieve, mertens_constant_estimate,
                     mertens_sum, power_ceil, power_floor)
from .rng import DEFAULT_SEED
from .smoothcount import default_engine, psi_bruteforce, psi_exact

SIEVE_LIMIT = 10**7

# pinned tolerances and sizes
DICKMAN_ANALYTIC_TOL = 1e-9
ALTERNATING_SUM_TOL = 1e-6
ALTERNATING_SUM_POINTS = (1.5, 2.5, 3.5)
PSI_EQUIV_X_MAX = 10**4
PSI_EQUIV_Y = (1, 2, 3, 5, 7, 11, 13)
IDENTITY_NS = (10**3, 10**4, 10**5)
LADDER_NS = (10**4, 10**5, 10**6, 10**7)
LADDER_FINAL_TOL = 0.05
MERTENS_GAP_TOL = 0.005
MERTENS_RANGE_T = (0.3, 0.05)
MERTENS_RANGE_TOL = 0.05
PD_MARGINAL_SAMPLES = 10**5
PD_MARGINAL_SIGMAS = 3.0
PD_BOX = BoxSpec(t=(0.45, 0.15), dt=(0.10, 0.10))
PD_BOX_NS = (10**4, 10**5, 10**6)
PD_BOX_FINAL_REL = 0.05
HARNESS_EPSILON = 0.25
GEOMETRY_TOL = 1e-12

#: fixed regression boxes for the exact prime-tuple identity, three per k
IDENTITY_BOXES = {
    1: (BoxSpec((0.5,), (0.1,)), BoxSpec((0.3,), (0.2,)), BoxSpec((0.6,), (0.25,))),
    2: (BoxSpec((0.5, 0.2), (0.05, 0.05)), BoxSpec((0.45, 0.15), (0.1, 0.1)),
        BoxSpec((0.55, 0.25), (0.08, 0.04))),
    3: (BoxSpec((0.4, 0.25, 0.1), (0.05, 0.05, 0.05)),
        BoxSpec((0.45, 0.22, 0.08), (0.03, 0.03, 0.03)),
        BoxSpec((0.5, 0.28, 0.12), (0.04, 0.02, 0.02))),
}

#: admissible regression boxes for the harness (eps = 0.25, R = k/(2 eps)),
#: each with the n-ladder it is checked on.  The k = 3 box only meets
#: non-empty prime ranges from n = 10^7 up: its smallest coordinate interval
#: [n^0.096, n^0.104] contains no prime for smaller powers of ten.
HARNESS_BOXES = (
    (BoxSpec((0.5,), (0.1,)), (10**4, 10**5, 10**6)),
    (BoxSpec((0.3,), (0.05,)), (10**4, 10**5, 10**6)),
    (BoxSpec((0.5, 0.2), (0.02, 0.02)), (10**4, 10**5, 10**6)),
    (BoxSpec((0.35, 0.222, 0.096), (0.008, 0.008, 0.008)), (10**7,)),
)


@dataclass(frozen=True)
class SuiteContext:
    """The state every bundle shares: the sieve, the rho table and the seed."""

    sieve: PrimeSieve
    table: DickmanTable
    seed: int = DEFAULT_SEED


def check_dickman_analytic(ctx: SuiteContext) -> dict:
    """rho = 1 - log u on [1, 2], sampled on a 1e-3 grid."""
    us = 1.0 + np.arange(1001) * 1e-3
    err = float(np.max(np.abs(rho(ctx.table, us) - (1.0 - np.log(us)))))
    return {"criterion": 1, "name": "dickman_analytic_identity",
            "max_abs_err": err, "tolerance": DICKMAN_ANALYTIC_TOL,
            "passed": err < DICKMAN_ANALYTIC_TOL}


def check_alternating_sum(ctx: SuiteContext) -> dict:
    """rho(u) equals 1 + sum (-1)^i H_i(u) at the pinned evaluation points."""
    rows = []
    worst = 0.0
    for u in ALTERNATING_SUM_POINTS:
        direct = rho(ctx.table, u)
        alt = rho_via_alternating_sum(u)
        diff = abs(direct - alt)
        worst = max(worst, diff)
        rows.append({"u": u, "rho": direct, "alternating_sum": alt, "abs_diff": diff})
    return {"criterion": 2, "name": "billingsley_alternating_sum",
            "points": rows, "max_abs_diff": worst, "tolerance": ALTERNATING_SUM_TOL,
            "passed": worst < ALTERNATING_SUM_TOL}


def check_psi_oracle_equivalence(ctx: SuiteContext) -> dict:
    """psi_exact == psi_bruteforce for every x <= 10^4 over the pinned y set.

    x <= 10^4 lies below the engine's 2^20 leaf limit, so this checks the
    engine's leaf-table route against the sieve's LPF table, not the sweep
    (the tier-1 tests cover that).  Each fixed-y column is one prefix count
    per side; psi_exact answers y = 1 and y = x before it reaches the table,
    so those columns call it per x.  mismatches and first_mismatch count the
    (x, y) pairs x-major, then y in PSI_EQUIV_Y + (x,) order.
    """
    sieve = ctx.sieve
    engine = default_engine()
    xs = np.arange(1, PSI_EQUIV_X_MAX + 1, dtype=np.int64)
    exact = [[psi_exact(x, y) for x in xs.tolist()] if y < 2 else
             engine.psi_small(xs, y) for y in PSI_EQUIV_Y]
    exact.append([psi_exact(x, x) for x in xs.tolist()])
    brute = [psi_bruteforce(sieve, xs, y) for y in PSI_EQUIV_Y]
    brute.append(_bruteforce_diagonal(sieve, PSI_EQUIV_X_MAX))
    bad = np.asarray(exact, dtype=np.int64).T != np.asarray(brute).T
    mismatches = int(np.count_nonzero(bad))
    first_bad = None
    if mismatches:
        i, j = divmod(int(np.argmax(bad)), bad.shape[1])
        first_bad = [i + 1, (PSI_EQUIV_Y + (i + 1,))[j]]
    return {"criterion": 3, "name": "psi_oracle_equivalence",
            "x_max": PSI_EQUIV_X_MAX, "y_values": list(PSI_EQUIV_Y) + ["x"],
            "mismatches": mismatches, "first_mismatch": first_bad,
            "passed": mismatches == 0}


def _bruteforce_diagonal(sieve: PrimeSieve, x_max: int) -> np.ndarray:
    """psi_bruteforce(sieve, x, x) for x = 1..x_max as an int64 array: x less
    the m <= x whose table entry exceeds x.  An entry lpf[m] > m (none in a
    correct table) spoils x = m..lpf[m]-1, which a difference array counts."""
    m = np.arange(1, x_max + 1, dtype=np.int64)
    lab = sieve.largest_prime_factor[1: x_max + 1].astype(np.int64)
    over = lab > m
    spoiled = np.zeros(x_max + 2, dtype=np.int64)
    np.add.at(spoiled, m[over], 1)
    np.add.at(spoiled, np.minimum(lab[over], x_max + 1), -1)
    return m - np.cumsum(spoiled)[1:-1]


def check_prime_tuple_identity(ctx: SuiteContext) -> dict:
    """Exact-count equality of enumeration and the Psi tuple sum, zero tolerance."""
    sieve = ctx.sieve
    rows = []
    ok = True
    for k, boxes in sorted(IDENTITY_BOXES.items()):
        for box in boxes:
            for n in IDENTITY_NS:
                ce = box_probability_exact(sieve, n, box).count
                cp = box_probability_via_psi(sieve, n, box).count
                ok &= ce == cp
                rows.append({"k": k, "n": n,
                             "box": [list(p) for p in zip(box.t, box.dt)],
                             "count_exact": ce, "count_psi": cp,
                             "equal": ce == cp})
    return {"criterion": 4, "name": "prime_tuple_psi_identity",
            "cases": rows, "passed": ok}


def check_dickman_ladder(ctx: SuiteContext) -> dict:
    """e(n) = |Psi(n, sqrt n)/n - rho(2)| strictly decreasing, final <= 0.05."""
    rho2 = rho(ctx.table, 2.0)
    rows = []
    errs = []
    agree = True
    for n in LADDER_NS:
        y = power_floor(n, 0.5)
        psi = psi_exact(n, y)
        agree &= psi == psi_bruteforce(ctx.sieve, n, y)
        e = abs(psi / n - rho2)
        errs.append(e)
        rows.append({"n": n, "y": y, "psi": psi, "ratio": psi / n, "abs_err": e})
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    return {"criterion": 5, "name": "dickman_convergence_ladder", "rho2": rho2,
            "entries": rows, "strictly_decreasing": decreasing,
            "exact_routes_agree": agree,
            "final_err": errs[-1], "final_tolerance": LADDER_FINAL_TOL,
            "passed": decreasing and agree and errs[-1] <= LADDER_FINAL_TOL}


def check_mertens_stabilization(ctx: SuiteContext) -> dict:
    """The constant estimate moves by < 0.005 between x = 10^6 and 10^7."""
    e6 = mertens_constant_estimate(ctx.sieve, 10**6)
    e7 = mertens_constant_estimate(ctx.sieve, 10**7)
    gap = abs(e7 - e6)
    return {"criterion": 6, "name": "mertens_stabilization",
            "estimate_1e6": e6, "estimate_1e7": e7, "gap": gap,
            "tolerance": MERTENS_GAP_TOL, "passed": gap < MERTENS_GAP_TOL}


def check_mertens_range(ctx: SuiteContext) -> dict:
    """Prime-reciprocal sum over [n^t, n^{t+dt}] approximates log(1 + dt/t)."""
    n = 10**7
    t, dt = MERTENS_RANGE_T
    lo, hi = power_ceil(n, t), power_floor(n, t + dt)
    s = mertens_sum(ctx.sieve, lo, hi)
    target = math.log(1.0 + dt / t)
    diff = abs(s - target)
    return {"criterion": 7, "name": "mertens_range_form", "n": n, "t": t, "dt": dt,
            "prime_range": [lo, hi], "sum": s, "log_target": target, "abs_diff": diff,
            "tolerance": MERTENS_RANGE_TOL, "passed": diff < MERTENS_RANGE_TOL}


def check_pd_marginal(ctx: SuiteContext) -> dict:
    """Stick-breaking frequency of L_1 <= 1/2 against rho(2), 3-sigma band.

    The rows are drawn _chunk_rows at a time through pd_sample_batch's
    `start`, each chunk released once its hits are counted, so the check's
    memory does not grow with PD_MARGINAL_SAMPLES; hits / samples is
    bit for bit the mean of one whole batch's indicator.

    Two-sided 3-sigma: ~0.27% of seeds are expected to land outside; the
    shipped seed is fixed, so the check itself is deterministic.
    """
    rho2 = rho(ctx.table, 2.0)
    samples = PD_MARGINAL_SAMPLES
    chunk = _chunk_rows(DEFAULT_TRUNCATION)
    hits = 0
    for lo in range(0, samples, chunk):  # no name holds a chunk into the next call
        hits += int(np.count_nonzero(
            pd_sample_batch(ctx.seed, min(chunk, samples - lo), start=lo)[0][:, 0] <= 0.5))
    freq = hits / samples
    tol = PD_MARGINAL_SIGMAS * math.sqrt(rho2 * (1.0 - rho2) / samples)
    diff = abs(freq - rho2)
    return {"criterion": 8, "name": "pd_sampler_marginal", "samples": samples,
            "frequency": freq, "rho2": rho2, "abs_diff": diff, "tolerance": tol,
            "passed": diff <= tol}


def check_pd_box_ladder(ctx: SuiteContext) -> dict:
    """Exact box probabilities approach the PD integral monotonically; the final
    gap stays under 5% of the PD value."""
    pd_val, quad_err = pd_box_probability_refined(ctx.table, PD_BOX, grid=256)
    rows = []
    gaps = []
    for n in PD_BOX_NS:
        est = box_probability_exact(ctx.sieve, n, PD_BOX)
        gap = abs(est.value - pd_val)
        gaps.append(gap)
        rows.append({"n": n, "count": est.count, "p": est.value, "abs_gap": gap})
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    final_ok = gaps[-1] < PD_BOX_FINAL_REL * pd_val
    return {"criterion": 9, "name": "billingsley_box_ladder",
            "box": [list(p) for p in zip(PD_BOX.t, PD_BOX.dt)],
            "pd_probability": pd_val, "quadrature_error_estimate": quad_err,
            "entries": rows, "monotone_decreasing_gap": decreasing,
            "final_gap": gaps[-1], "final_gap_limit": PD_BOX_FINAL_REL * pd_val,
            "passed": decreasing and final_ok}


def check_proposition1_harness(ctx: SuiteContext) -> dict:
    """Geometry spot checks to 1e-12 plus the liminf lower-bound verdicts on
    the fixed admissible regression boxes."""
    geo_ok = True
    geometry = []

    def geo(name, got, want):
        nonlocal geo_ok
        ok = abs(got - want) <= GEOMETRY_TOL
        geo_ok &= ok
        geometry.append({"case": name, "got": got, "want": want, "ok": ok})

    geo("distance_k1", distance_to_complement(BoxSpec((0.4,), (0.1,))), 0.4)
    geo("distance_k2", distance_to_complement(BoxSpec((0.5, 0.2), (0.05, 0.05))),
        0.2 / math.sqrt(2.0))
    adm_ok = (box_admissible(BoxSpec((0.4,), (0.1,)), BoxCriterion(epsilon=0.25, k=1))
              and not box_admissible(BoxSpec((0.4,), (0.1,)),
                                     BoxCriterion(epsilon=0.01, k=1))
              and box_admissible(BoxSpec((0.4,), (0.1,)),
                                 BoxCriterion(epsilon=0.5, k=1, R=0.0)))
    boxes = []
    verdicts_ok = True
    for box, ladder in HARNESS_BOXES:
        crit = BoxCriterion(epsilon=HARNESS_EPSILON, k=box.k)
        report = run_criterion(ctx.sieve, ctx.table, ladder, box, crit)
        verdicts_ok &= report.all_pass()
        boxes.append(report.to_dict())
    return {"criterion": 10, "name": "proposition1_harness",
            "geometry": geometry, "geometry_passed": geo_ok,
            "admissibility_examples_passed": adm_ok,
            "epsilon": HARNESS_EPSILON, "reports": boxes,
            "all_verdicts": verdicts_ok,
            "passed": geo_ok and adm_ok and verdicts_ok}


CHECKS = (
    ("identities", check_dickman_analytic),
    ("identities", check_alternating_sum),
    ("identities", check_psi_oracle_equivalence),
    ("identities", check_prime_tuple_identity),
    ("convergence", check_dickman_ladder),
    ("convergence", check_mertens_stabilization),
    ("convergence", check_mertens_range),
    ("convergence", check_pd_marginal),
    ("convergence", check_pd_box_ladder),
    ("convergence", check_proposition1_harness),
)

BUNDLES = ("identities", "convergence", "all")


def run_suite(name: str, seed: int = DEFAULT_SEED) -> tuple[dict, bool]:
    """Run a bundle and return (report dict, all passed).

    The report depends only on (name, seed).
    """
    if name not in BUNDLES:
        raise ParameterError(f"unknown bundle {name!r}; choose from {BUNDLES}")
    ctx = SuiteContext(build_sieve(SIEVE_LIMIT), build_rho_table(), seed)
    results = [fn(ctx) for bundle, fn in CHECKS if name in ("all", bundle)]
    passed = all(r["passed"] for r in results)
    report = {
        "version": __version__,
        "command": f"suite --name {name}",
        "config": {"bundle": name, "seed": seed, "sieve_limit": SIEVE_LIMIT},
        "results": results,
        "passed": passed,
    }
    return report, passed
