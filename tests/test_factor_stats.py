import hashlib
import math
import random
import tracemalloc

import pytest

import numpy as np

from billingsley import (BoxSpec, DomainError, ParameterError, PrimeSieve,
                         ResourceError, box_probability_exact, box_probability_via_psi,
                         build_sieve, power_floor, prime_bounds, psi_bruteforce,
                         psi_exact, sample_box_probability,
                         sample_factor_vectors)
from billingsley import factor_stats, rng
from billingsley.factor_stats import (MAX_MC_SAMPLES, SCAN_CHUNK, _count_survivors,
                                      _factor_rows, _masks, _peel, _scan_bounds)
from billingsley.smoothcount import LEAF_LIMIT, default_engine
from conftest import WORKER_COUNTS, inside_u


def largest_factor_trial_division(m):
    big, d = 1, 2
    while d * d <= m:
        while m % d == 0:
            big, m = d, m // d
        d += 1
    return max(big, m) if m > 1 else big


def test_peel_examples(sieve5):
    assert _peel(sieve5, np.array([12]), 3).tolist() == [[3, 2, 2]]
    assert _peel(sieve5, np.array([1, 97]), 2).tolist() == [[1, 1], [97, 1]]
    assert _peel(sieve5, np.array([360]), 5).tolist() == [[5, 3, 3, 2, 2]]


def test_peel_against_trial_division(sieve7):
    rnd = random.Random(12)
    ms = [1, 2, 3, 4, 2**23, 3**14, 9999991, 10**7] + [rnd.randint(1, 10**7)
                                                       for _ in range(300)]
    k = 24  # above Omega(m) for every m <= 10^7
    got = _peel(sieve7, np.array(ms, dtype=np.int64), k)
    for m, row in zip(ms, got.tolist()):
        factors, d = [], 2
        while d * d <= m:
            while m % d == 0:
                factors.append(d)
                m //= d
            d += 1
        if m > 1:
            factors.append(m)
        assert row == sorted(factors, reverse=True) + [1] * (k - len(factors))


def test_peel_refuses_k_below_one(sieve5):
    with pytest.raises(ParameterError):
        _peel(sieve5, np.array([10]), 0)


def _factor_row(sieve, n, N, k):
    """N's row as (N, p, L), with p and L as tuples."""
    m = np.array([N], dtype=np.int64)
    row = _factor_rows(n, m, _peel(sieve, m, k))[0]
    return int(row.N), tuple(row.p.tolist()), tuple(row.L.tolist())


def test_factor_vector_invariants(sieve5):
    rnd = random.Random(8)
    for _ in range(200):
        n = rnd.randint(10, 10**5)
        N = rnd.randint(1, n)
        row_N, p, L = _factor_row(sieve5, n, N, 4)
        assert row_N == N
        assert p == tuple(_peel(sieve5, np.array([N]), 4)[0].tolist())
        assert all(a >= b for a, b in zip(p, p[1:]))
        prefix = math.prod(q for q in p if q > 1)
        assert N % prefix == 0
        assert all(0.0 <= v <= 1.0 for v in L)
        assert all(a >= b for a, b in zip(L, L[1:]))
        assert p[0] == largest_factor_trial_division(N) or N == 1


def test_factor_rows_dtype_and_fields_are_pinned(sieve5):
    for k in (1, 3):
        rows = sample_factor_vectors(sieve5, 10**5, 7, k, seed=3)
        assert isinstance(rows, np.recarray) and rows.shape == (7,)
        assert rows.dtype == np.dtype([("N", np.int64), ("p", np.int32, (k,)),
                                       ("L", np.float64, (k,))])
    assert _factor_row(sieve5, 10**5, 360, 3)[:2] == (360, (5, 3, 3))


def test_factor_records_match_the_columns(sieve5):
    rows = sample_factor_vectors(sieve5, 10**5, 40, 3, seed=4)
    assert rows.N.shape == (40,) and rows.p.shape == rows.L.shape == (40, 3)
    for i, fv in enumerate(rows):
        for rec in (fv, rows[i]):
            assert rec.N == rows.N[i]
            assert np.array_equal(rec.p, rows.p[i])
            assert np.array_equal(rec.L, rows.L[i])


def test_box_spec_parsing_and_validation():
    box = BoxSpec.from_string("0.5,0.1;0.2,0.05")
    assert box.k == 2 and box.t == (0.5, 0.2)
    assert box.volume() == pytest.approx(0.005)
    assert box.diameter() == pytest.approx(math.hypot(0.1, 0.05))
    for bad in ("0.5;0.2", "0.5,0.1,0.1", "0.5,abc", "x,0.1"):
        with pytest.raises(ParameterError, match="bad box component"):
            BoxSpec.from_string(bad)
    with pytest.raises(ParameterError):
        BoxSpec((0.5,), (0.0,))
    with pytest.raises(ParameterError):
        BoxSpec((0.5, 0.2), (0.1,))


def test_box_spec_u_membership():
    assert inside_u(BoxSpec((0.5, 0.2), (0.05, 0.05)))
    assert not inside_u(BoxSpec((1.2,), (0.1,)))          # sum >= 1
    assert not inside_u(BoxSpec((0.5, 0.45), (0.1, 0.04)))  # ordering broken
    assert not inside_u(BoxSpec((0.5, -0.1), (0.1, 0.05)))  # positivity broken
    # the u0 accessor on a box inside U
    box = BoxSpec((0.5, 0.2), (0.05, 0.05))
    assert box.u0() == pytest.approx((1 - 0.7) / 0.2)


def test_box_exact_k1_against_trial_division(sieve5):
    # n=100, box [0.5, 0.9]: P_1(m) in [10, 63.09...], i.e. primes 11..61
    box = BoxSpec((0.5,), (0.4,))
    got = box_probability_exact(sieve5, 100, box)
    want = sum(1 for m in range(1, 101)
               if 10 <= largest_factor_trial_division(m) <= 63)
    assert got.count == want
    assert got.total == 100


def test_box_above_one_is_empty(sieve5):
    est = box_probability_exact(sieve5, 1000, BoxSpec((1.01,), (0.2,)))
    assert est.count == 0


def test_via_psi_requires_box_inside_u(sieve5):
    with pytest.raises(DomainError):
        box_probability_via_psi(sieve5, 1000, BoxSpec((1.01,), (0.2,)))
    with pytest.raises(DomainError):
        box_probability_via_psi(sieve5, 1000, BoxSpec((0.5, 0.45), (0.1, 0.04)))
    for n in (0, 1 << 63):  # quotients are int64
        with pytest.raises(DomainError):
            box_probability_via_psi(sieve5, n, BoxSpec((0.01,), (0.01,)))


def test_cross_method_identity(sieve5):
    boxes = [BoxSpec((0.5,), (0.3,)),
             BoxSpec((0.4, 0.2), (0.1, 0.1)),
             BoxSpec((0.45, 0.15), (0.1, 0.1)),
             BoxSpec((0.4, 0.25, 0.1), (0.05, 0.05, 0.05))]
    for box in boxes:
        for n in (10**3, 10**4):
            ce = box_probability_exact(sieve5, n, box).count
            cp = box_probability_via_psi(sieve5, n, box).count
            assert ce == cp, (box, n)


def test_cross_method_identity_random_boxes(sieve5):
    # randomized guard on the identity: any box inside U must tie exactly
    rnd = random.Random(14)
    checked = 0
    while checked < 30:
        k = rnd.choice((1, 2, 3))
        cuts = sorted(rnd.uniform(0.02, 0.6) for _ in range(k))
        ts = tuple(reversed(cuts))
        dts = tuple(rnd.uniform(0.01, 0.12) for _ in range(k))
        box = BoxSpec(ts, dts)
        if not inside_u(box):
            continue
        checked += 1
        n = rnd.choice((500, 10**3, 5000, 10**4))
        assert (box_probability_exact(sieve5, n, box).count
                == box_probability_via_psi(sieve5, n, box).count), (box, n)


def test_prime_bounds_pinned_values():
    # n=1000, box [0.5, 0.8]: the tuple sum runs over primes in [32, 251]
    assert prime_bounds(1000, BoxSpec((0.5,), (0.3,)))[0] == (32, 251)
    # exact integer powers resolve to themselves
    assert prime_bounds(10**4, BoxSpec((0.5,), (0.25,)))[0] == (100, 1000)
    # no interval holds the padding 1, even where n^t is 1
    assert prime_bounds(1000, BoxSpec((0.5, 0.0), (0.2, 0.1)))[1] == (2, 1)


def test_empty_prime_range_gives_zero(sieve5):
    # [n^0.35, n^0.36] at n=1000 is [11.2, 12.0]: no prime
    box = BoxSpec((0.35,), (0.01,))
    lo, hi = prime_bounds(1000, box)[0]
    assert sieve5.primes_in_range(lo, hi).size == 0
    assert box_probability_via_psi(sieve5, 1000, box).count == \
        box_probability_exact(sieve5, 1000, box).count == 0


def test_partition_additivity(sieve5):
    # splitting the box along each axis reproduces the whole-box count
    # exactly; the seams (0.49, 0.19) are chosen so n^seam is not an integer
    # and the sub-box prime ranges are genuinely disjoint
    n = 10**4
    whole = BoxSpec((0.45, 0.15), (0.1, 0.1))
    t1_cuts = [(0.45, 0.04), (0.49, 0.06)]
    t2_cuts = [(0.15, 0.04), (0.19, 0.06)]
    parts = [BoxSpec((a, b), (da, db))
             for a, da in t1_cuts for b, db in t2_cuts]
    from billingsley import power_ceil, power_floor
    for seam in (0.49, 0.19):
        assert power_floor(n, seam) < power_ceil(n, seam)  # seam not an integer
    whole_count = box_probability_exact(sieve5, n, whole).count
    parts_count = sum(box_probability_exact(sieve5, n, p).count for p in parts)
    assert parts_count == whole_count


def test_mc_determinism_across_worker_counts(sieve6, cpus):
    box = BoxSpec((0.5,), (0.1,))
    # three full blocks of draws and a partial fourth
    samples = 3 * rng.BLOCK_WORDS + 5
    runs = []
    for workers in WORKER_COUNTS:
        pools = cpus(workers)
        runs.append(sample_box_probability(sieve6, 10**6, box, samples, seed=11))
        assert pools == ([] if workers == 1 else [min(workers, 3) - 1])
    a = runs[0]
    assert all(r == a for r in runs)
    assert a.p_hat == a.hits / a.total
    assert a.std_err == pytest.approx(
        math.sqrt(a.p_hat * (1 - a.p_hat) / a.total))
    assert sample_box_probability(sieve6, 10**6, box, samples, seed=12) != a


def test_exact_counts_across_worker_counts(sieve6, cpus):
    # three full chunks and a partial one; the Psi identity is the
    # independent oracle
    n = 10**6 - 3
    full = n // SCAN_CHUNK
    assert full == 3
    boxes = [BoxSpec((0.5,), (0.1,)), BoxSpec((0.45, 0.15), (0.1, 0.1)),
             BoxSpec((0.4, 0.25, 0.1), (0.05, 0.05, 0.05))]
    want = [box_probability_via_psi(sieve6, n, box).count for box in boxes]
    for workers in WORKER_COUNTS:
        pools = cpus(workers)
        assert [box_probability_exact(sieve6, n, box).count for box in boxes] == want
        assert pools == ([] if workers == 1 else [min(workers, full) - 1] * len(boxes))


def test_mc_against_psi_identity(sieve6):
    box = BoxSpec((0.5,), (0.1,))
    want = box_probability_via_psi(sieve6, 10**6, box).value
    assert want == box_probability_exact(sieve6, 10**6, box).value
    est = sample_box_probability(sieve6, 10**6, box, 10**5, seed=42)
    assert abs(est.p_hat - want) < 4 * est.std_err


def test_mc_coverage_over_seeds(sieve5):
    # 4-sigma coverage: at least 99 of 100 fixed seeds must land inside
    # (per-seed miss probability ~6e-5; a miss of more than one would flag a
    # generator or counting bug, not chance)
    box = BoxSpec((0.45,), (0.2,))
    n = 10**5
    exact = box_probability_exact(sieve5, n, box).value
    inside = 0
    for seed in range(100):
        est = sample_box_probability(sieve5, n, box, 10**4, seed=seed)
        inside += abs(est.p_hat - exact) < 4 * est.std_err
    assert inside >= 99


def test_k1_box_reduces_to_psi_difference(sieve5):
    # the k=1 chain is a pure smooth-count statement: counting P_1(m) in
    # [lo, hi] is counting hi-smooth numbers that are not (lo-1)-smooth
    for n, box in [(10**4, BoxSpec((0.5,), (0.1,))),
                   (10**5, BoxSpec((0.3,), (0.25,)))]:
        lo, hi = prime_bounds(n, box)[0]
        count = box_probability_exact(sieve5, n, box).count
        assert count == psi_exact(n, hi) - psi_exact(n, lo - 1)


def test_mc_budget_over_the_cap_is_refused_before_any_draw(sieve5, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(rng, "_int_block", no_draw)
    with pytest.raises(ResourceError, match="Monte Carlo draws"):
        sample_box_probability(sieve5, 10**4, BoxSpec((0.5,), (0.1,)), MAX_MC_SAMPLES + 1)


def test_mc_empty_box(sieve5):
    est = sample_box_probability(sieve5, 10**4, BoxSpec((1.2,), (0.1,)), 1000, seed=1)
    assert est.hits == 0 and est.p_hat == 0.0


def test_each_route_refuses_what_its_sieve_cannot_answer(sieve5):
    # the scan reads the table to n; the Psi route reads primes up to
    # n^(t + dt), 10^5.4 at n = 10^9
    box = BoxSpec((0.5,), (0.1,))
    with pytest.raises(DomainError, match="outside sieve range"):
        box_probability_exact(sieve5, 10**5 + 1, box)
    with pytest.raises(DomainError, match="beyond sieve limit"):
        box_probability_via_psi(sieve5, 10**9, box)
    with pytest.raises(ParameterError, match="samples must be >= 1"):
        sample_box_probability(sieve5, 10**4, box, samples=0)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint64],
                         ids=lambda kind: kind.__name__)
def test_numpy_integer_n_gives_the_int_result_in_every_route(sieve6, kind):
    # n^0.5 = 1000 exactly: the interval ends are decided by the exact
    # comparison, which used to fail on numpy powers
    box = BoxSpec((0.5,), (0.1,))
    for route in (box_probability_exact, box_probability_via_psi):
        got = route(sieve6, kind(10**6), box)
        assert got == route(sieve6, 10**6, box) and type(got.total) is int, route
    assert (sample_box_probability(sieve6, kind(10**6), box, 1000, seed=3)
            == sample_box_probability(sieve6, 10**6, box, 1000, seed=3))
    assert np.array_equal(sample_factor_vectors(sieve6, kind(10**6), 50, 2, seed=3),
                          sample_factor_vectors(sieve6, 10**6, 50, 2, seed=3))


@pytest.mark.parametrize("n", [1e6, 1000.0, 10.5, math.nan])
def test_float_n_is_refused_by_every_route_before_any_work(sieve6, monkeypatch, n):
    def no_work(*args):
        raise AssertionError("worked before refusing")

    monkeypatch.setattr(rng, "run_tasks", no_work)
    monkeypatch.setattr(rng, "_int_block", no_work)
    monkeypatch.setattr(factor_stats, "default_engine", no_work)
    box = BoxSpec((0.5,), (0.1,))
    for route in (box_probability_exact, box_probability_via_psi,
                  lambda sieve, n, box: sample_box_probability(sieve, n, box, 100),
                  lambda sieve, n, box: sample_factor_vectors(sieve, n, 100, 2)):
        with pytest.raises(ParameterError, match="must be an integer"):
            route(sieve6, n, box)


@pytest.mark.parametrize("draw", [
    lambda sieve, box: sample_box_probability(sieve, 10**4, box, samples=10.0),
    lambda sieve, box: sample_factor_vectors(sieve, 10**4, 10.0, 2),
    lambda sieve, box: sample_factor_vectors(sieve, 10**4, 10, 2.5),
], ids=["mc-samples", "rows-count", "rows-k"])
def test_float_counts_are_refused_before_any_draw(sieve5, monkeypatch, draw):
    # each raised a bare TypeError from range() or the peel
    def no_work(*args):
        raise AssertionError("worked before refusing")

    monkeypatch.setattr(rng, "run_tasks", no_work)
    monkeypatch.setattr(rng, "_int_block", no_work)
    with pytest.raises(ParameterError, match="must be an integer"):
        draw(sieve5, BoxSpec((0.5,), (0.1,)))


def test_numpy_integer_counts_give_the_int_draws(sieve5):
    box = BoxSpec((0.5,), (0.1,))
    assert (sample_box_probability(sieve5, 10**4, box, np.int64(1000), seed=3)
            == sample_box_probability(sieve5, 10**4, box, 1000, seed=3))
    assert np.array_equal(sample_factor_vectors(sieve5, 10**4, np.int64(50), np.int32(2)),
                          sample_factor_vectors(sieve5, 10**4, 50, 2))


def test_marginal_cdf(sieve5):
    # P(L_1(n) <= 1/t) = Psi(n, n^{1/t}) / n, as psi-ladder computes it
    def cdf(n, t):
        return psi_exact(n, max(power_floor(n, 1.0 / t), 1)) / n

    assert cdf(10**4, 1.0) == 1.0
    # direct scan oracle at t = 4
    y = int((10**4) ** 0.25)
    want = sum(1 for m in range(1, 10**4 + 1)
               if largest_factor_trial_division(m) <= y) / 10**4
    assert cdf(10**4, 4.0) == want
    ts = [1.0, 1.5, 2.0, 3.0, 4.0, 6.0]
    vals = [cdf(10**4, t) for t in ts]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_exact_chunking_invariance(sieve5, monkeypatch):
    box = BoxSpec((0.45, 0.15), (0.1, 0.1))
    n = 10**4 + 7
    want = box_probability_exact(sieve5, n, box).count
    for chunk in (1000, n, 10**7):
        monkeypatch.setattr(factor_stats, "SCAN_CHUNK", chunk)
        assert box_probability_exact(sieve5, n, box).count == want, chunk


def test_sample_factor_vectors_deterministic(sieve5):
    rows1 = sample_factor_vectors(sieve5, 10**5, 50, 3, seed=5)
    rows2 = sample_factor_vectors(sieve5, 10**5, 50, 3, seed=5)
    assert np.array_equal(rows1, rows2)
    assert all(1 <= fv.N <= 10**5 for fv in rows1)
    assert all(len(fv.p) == 3 for fv in rows1)


def test_oversized_factor_rows_are_refused_before_any_draw(sieve5):
    with pytest.raises(ResourceError, match="factor rows"):
        sample_factor_vectors(sieve5, 10**5, 10**16, 3)


@pytest.mark.parametrize("count, k, name", [(0, 3, "count"), (-3, 3, "count"),
                                            (10, 0, "k"), (10, -5, "k")])
def test_non_positive_factor_row_requests_are_refused_before_any_draw(
        sieve5, monkeypatch, count, k, name):
    def no_draw(*args):
        raise AssertionError("drew before refusing")

    # at k < 0 the memory estimate is negative and admits any count
    monkeypatch.setattr(rng, "run_tasks", no_draw)
    with pytest.raises(ParameterError, match=f"{name} must be >= 1"):
        sample_factor_vectors(sieve5, 10**5, count, k)


#: sha256 of the N column then the row-major p columns, as int64 bytes, of
#: sample_factor_vectors(sieve5, 10**5, 5000, 4, seed=7), taken from the row
#: builder that made one named tuple per row
FACTOR_ROWS_NP_SHA256 = "33110c21eb8ef658a9fe2d54482f9e5aed5f03cc5b71359b15b147e17445ec91"


def test_factor_rows_are_pinned(sieve5):
    n, k = 10**5, 4
    rows = sample_factor_vectors(sieve5, n, 5000, k, seed=7)
    assert len(rows) == 5000
    N = rows.N
    p = rows.p.astype(np.int64)
    assert p.shape == (5000, k)
    assert hashlib.sha256(N.tobytes() + p.tobytes()).hexdigest() == FACTOR_ROWS_NP_SHA256
    # L is recomputed here rather than pinned: math.log rounds through the
    # platform's libm
    logn = math.log(n)
    for ps, L in zip(rows.p.tolist(), rows.L.tolist()):
        assert L == [math.log(q) / logn if q > 1 else 0.0 for q in ps]


def test_factor_row_peak_memory_is_within_the_guard(sieve7):
    n, count, k = 10**7, 2 * 10**4, 3
    sample_factor_vectors(sieve7, n, count, k, seed=1)  # first-call set-up, untraced
    tracemalloc.start()
    try:
        rows = sample_factor_vectors(sieve7, n, count, k, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == count
    # the estimate sample_factor_vectors refuses requests by
    assert peak < (32 + 40 * k) * count


# ---------------------------------------------------------------------------
# survivors-only box count against the full peel it replaced

def full_peel_count(sieve, m, bounds):
    """The box count before survivors-only peeling: all k ranks of every m."""
    lo, hi = np.array(bounds, dtype=np.int64).T
    p = _peel(sieve, m, len(bounds))
    return int(np.count_nonzero(np.all((p >= lo) & (p <= hi), axis=1)))


def log_box(n, intervals):
    """The box whose coordinate intervals are [n^t, n^{t+dt}] = [a, b]."""
    t = [math.log(a) / math.log(n) for a, _ in intervals]
    up = [math.log(b) / math.log(n) for _, b in intervals]
    return BoxSpec(tuple(t), tuple(u - v for u, v in zip(up, t)))


def prime_box(n, ranges):
    """A box whose prime intervals are exactly the given integer ranges."""
    return log_box(n, [(a - 0.5, b + 0.5) for a, b in ranges])


def random_box(rnd, k):
    """Descending left ends; widths may overlap the next coordinate."""
    t, dt, top = [], [], rnd.uniform(0.3, 0.8)
    for _ in range(k):
        t.append(rnd.uniform(0.02, top))
        dt.append(rnd.uniform(0.005, 0.25))
        top = t[-1]
    return BoxSpec(tuple(t), tuple(dt))


N_SCAN = 10**5

#: (k, integer ranges) with prime endpoints, and with no prime or no integer
SPECIAL_RANGES = [
    (1, [(11, 97)]),
    (2, [(101, 997), (2, 13)]),
    (3, [(31, 313), (7, 31), (2, 7)]),
    (2, [(211, 211), (3, 3)]),                     # one prime each
    (1, [(24, 28)]),                               # integers, no prime
    (2, [(101, 997), (114, 126)]),                 # second range holds no prime
]

#: a box whose second interval [24.2, 24.8] holds no integer at all
NO_INTEGER_BOX = log_box(N_SCAN, [(30.5, 313.5), (24.2, 24.8), (1.5, 7.5)])


def scan_boxes():
    rnd = random.Random(2024)
    boxes = [random_box(rnd, k) for k in (1, 2, 3, 4) for _ in range(5)]
    return boxes + [prime_box(N_SCAN, r) for _, r in SPECIAL_RANGES] + [NO_INTEGER_BOX]


def test_prime_box_helper_hits_its_ranges(sieve5):
    for k, ranges in SPECIAL_RANGES:
        assert prime_bounds(N_SCAN, prime_box(N_SCAN, ranges)) == ranges
    assert prime_bounds(N_SCAN, NO_INTEGER_BOX)[1] == (25, 24)
    assert _scan_bounds(sieve5, N_SCAN, NO_INTEGER_BOX) is None


def test_exact_scan_matches_full_peel(sieve5, monkeypatch):
    m = np.arange(1, N_SCAN + 1, dtype=np.int64)
    for box in scan_boxes():
        want = full_peel_count(sieve5, m, prime_bounds(N_SCAN, box))
        for chunk in (1000, N_SCAN):
            monkeypatch.setattr(factor_stats, "SCAN_CHUNK", chunk)
            got = box_probability_exact(sieve5, N_SCAN, box).count
            assert got == want, (box, chunk)


def test_exact_scan_chunk_one_matches_full_peel(sieve5, monkeypatch):
    # one chunk per integer: every slice boundary and the survivor loop on
    # single rows (about a second per box, so one box per k); on one CPU,
    # where 10^5 one-integer tasks run inline rather than through a pool
    m = np.arange(1, N_SCAN + 1, dtype=np.int64)
    rnd = random.Random(7)
    boxes = [random_box(rnd, 1), prime_box(N_SCAN, SPECIAL_RANGES[1][1]),
             prime_box(N_SCAN, SPECIAL_RANGES[2][1]), random_box(rnd, 4)]
    monkeypatch.setattr(factor_stats, "SCAN_CHUNK", 1)
    monkeypatch.setattr(rng, "cpu_count", lambda: 1)
    for box in boxes:
        want = full_peel_count(sieve5, m, prime_bounds(N_SCAN, box))
        assert box_probability_exact(sieve5, N_SCAN, box).count == want


def test_exact_scan_special_ranges_are_counted(sieve5):
    counts = {tuple(r): box_probability_exact(sieve5, N_SCAN, prime_box(N_SCAN, r)).count
              for _, r in SPECIAL_RANGES}
    assert counts[((24, 28),)] == 0
    assert counts[((101, 997), (114, 126))] == 0
    assert box_probability_exact(sieve5, N_SCAN, NO_INTEGER_BOX).count == 0
    # ranks (211, 3) means m = 211 * 3 * s with s 3-smooth
    def three_smooth(s):
        for q in (2, 3):
            while s % q == 0:
                s //= q
        return s == 1
    assert counts[((211, 211), (3, 3))] == sum(
        1 for s in range(1, N_SCAN // 633 + 1) if three_smooth(s))


def test_mc_count_matches_full_peel(sieve5):
    rnd = random.Random(99)
    m = np.array([rnd.randint(1, N_SCAN) for _ in range(20000)] + [1, N_SCAN] * 3,
                 dtype=np.int64)
    for box in scan_boxes():
        want = full_peel_count(sieve5, m, prime_bounds(N_SCAN, box))
        lpf = sieve5.largest_prime_factor
        got = _count_survivors(lpf, lpf[m], _scan_bounds(sieve5, N_SCAN, box),
                               lambda rows: m[rows], _masks(m.size))
        assert got == want, box


#: rank-1 ranges whose share of the m <= N_SCAN lies below _PAD_FROM, in
#: the band (_PAD_FROM, 1/10] where _positions pads the mask, and above it;
#: the ranges below them give ranks 2 and 3
BAND_RANGES = {"below": (1000, 1200), "band": (307, 499), "above": (101, 211)}
LOWER_RANGES = [(11, 97), (2, 7)]


def test_band_ranges_have_their_shares(sieve5):
    lpf = sieve5.largest_prime_factor[1:N_SCAN + 1]
    share = {band: np.count_nonzero((lpf >= lo) & (lpf <= hi)) / N_SCAN
             for band, (lo, hi) in BAND_RANGES.items()}
    assert share["below"] < factor_stats._PAD_FROM < share["band"] <= 0.1 < share["above"]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("band", sorted(BAND_RANGES))
def test_survivor_count_matches_full_peel_in_every_band(sieve5, monkeypatch, band, k):
    ranges = [BAND_RANGES[band]] + LOWER_RANGES[:k - 1]
    box = prime_box(N_SCAN, ranges)
    m = np.arange(1, N_SCAN + 1, dtype=np.int64)
    want = full_peel_count(sieve5, m, ranges)
    shares = []
    positions = factor_stats._positions

    def checked_positions(mask, size, count):
        shares.append(count / size)
        rows = positions(mask, size, count)
        assert np.array_equal(rows, np.flatnonzero(mask[:size]))
        return rows

    monkeypatch.setattr(factor_stats, "_positions", checked_positions)
    lpf = sieve5.largest_prime_factor
    got = _count_survivors(lpf, lpf[m], _scan_bounds(sieve5, N_SCAN, box),
                           lambda rows: m[rows], _masks(m.size))
    assert got == want
    # chunks that do not divide N_SCAN, so that a short last chunk ends the
    # scan, each chunk's share near the whole range's
    for chunk in (3001, 7919):
        monkeypatch.setattr(factor_stats, "SCAN_CHUNK", chunk)
        assert box_probability_exact(sieve5, N_SCAN, box).count == want, chunk
    if k > 1 and band == "band":
        assert shares and all(factor_stats._PAD_FROM < v <= 0.1 for v in shares), shares


def test_survivor_count_of_one_integer_and_of_none(sieve5):
    lpf = sieve5.largest_prime_factor
    band = [BAND_RANGES["band"]]
    for ranges in (band + LOWER_RANGES[:1], band + LOWER_RANGES, band + [(114, 126)]):
        bounds = _scan_bounds(sieve5, N_SCAN, prime_box(N_SCAN, ranges))
        for m0 in (1, 2, 307, 307 * 11, 307 * 11 * 7, 499 * 97 * 2, 499 * 101, N_SCAN):
            m = np.array([m0], dtype=np.int64)
            got = _count_survivors(lpf, lpf[m], bounds, lambda rows: m[rows], _masks(1))
            assert got == full_peel_count(sieve5, m, ranges), (ranges, m0)
    # survivors at rank 1 and none at rank 2, which holds no prime
    box = prime_box(N_SCAN, band + [(114, 126)])
    assert box_probability_exact(sieve5, N_SCAN, box).count == 0


@pytest.mark.parametrize("share", [0, 0.03, 0.099, 0.1, 0.101, 0.5, 1])
def test_positions_equal_flatnonzero(share):
    rnd = np.random.default_rng(3)
    for size in (1, 1000, 1 << 16):
        mask = _masks(size)[0]
        assert mask.size == size + size // 9 + 1
        mask[:] = rnd.random(mask.size) < 0.5  # the room past size holds anything
        mask[:size] = False
        count = round(share * size)
        mask[rnd.choice(size, count, replace=False)] = True
        assert np.array_equal(factor_stats._positions(mask, size, count),
                              np.flatnonzero(mask[:size])), size


def test_divide_out_is_exact_up_to_the_largest_sieve_limit():
    # m // p for p a divisor of m, up to m = 2^31 - 1, the largest sieve
    # limit (and a prime)
    rnd = np.random.default_rng(5)
    p = rnd.integers(1, 1 << 16, 10**5)
    q = rnd.integers(1, (2**31 - 1) // p + 1)
    p = np.append(p, [1, 2**31 - 1, 46337])
    q = np.append(q, [2**31 - 1, 1, 46337])
    m = p * q
    assert factor_stats._divide_out(m, p.astype(np.int32)) is m
    assert np.array_equal(m, q)


def test_counts_pinned_in_the_padded_band(sieve7, cpus):
    # rank-1 share 9.5%, inside the band where _positions pads a mask
    box = BoxSpec.from_string("0.5,0.05;0.2,0.05")
    assert box_probability_exact(sieve7, 10**7, box).count == 159662
    for workers in (1, 2):
        pools = cpus(workers)
        assert sample_box_probability(sieve7, 10**7, box, 10**7, seed=42).hits == 159823
        assert pools == ([] if workers == 1 else [1])


#: sample_box_probability hits at n = 10^6 with 2 * 10^5 draws, recorded as
#: the in-box row counts of sample_factor_vectors for the same seed and count;
#: the Monte Carlo route must stay bit-identical
MC_PINNED_HITS = [
    (BoxSpec((0.5,), (0.1,)), {7: 35721, 42: 36099}),
    (BoxSpec((0.45, 0.15), (0.1, 0.1)), {7: 11274, 42: 11270}),
    (BoxSpec((0.4, 0.25, 0.1), (0.05, 0.05, 0.05)), {7: 936, 42: 964}),
]


def test_mc_hits_pinned(sieve6):
    for box, hits in MC_PINNED_HITS:
        for seed, want in hits.items():
            assert in_box_rows(sieve6, 10**6, box, 200_000, seed) == want, (box, seed)
            est = sample_box_probability(sieve6, 10**6, box, 200_000, seed=seed)
            assert est.hits == want, (box, seed)


def test_mc_hits_pinned_across_worker_counts(sieve6, cpus, monkeypatch):
    # blocks of 2^10 draws make 195 full-size tasks, so the pool runs, and
    # the last block is a partial one of 320 draws
    monkeypatch.setattr(rng, "BLOCK_WORDS", 1 << 10)
    for workers in WORKER_COUNTS:
        pools = cpus(workers)
        for box, hits in MC_PINNED_HITS:
            for seed, want in hits.items():
                est = sample_box_probability(sieve6, 10**6, box, 200_000, seed=seed)
                assert est.hits == want, (workers, box, seed)
        assert pools == ([] if workers == 1 else [workers - 1] * 6)


def in_box_rows(sieve, n, box, samples, seed):
    """How many of sample_factor_vectors' rows have every rank inside the
    box's prime_bounds."""
    p = sample_factor_vectors(sieve, n, samples, box.k, seed=seed).p
    lo, hi = np.array(prime_bounds(n, box)).T
    return int(np.count_nonzero(np.all((p >= lo) & (p <= hi), axis=1)))


def test_mc_hits_are_the_in_box_factor_rows(sieve6, cpus):
    # the Monte Carlo draws are the integers the factor rows rank, so the
    # hits are an exact count of those rows, on either side of a block
    # boundary and over several pooled blocks with a partial last one
    b = rng.BLOCK_WORDS
    for samples in (b - 1, b, b + 1, 3 * b + 7):
        for box, _ in MC_PINNED_HITS:
            want = in_box_rows(sieve6, 10**6, box, samples, seed=7)
            for workers in WORKER_COUNTS:
                pools = cpus(workers)
                est = sample_box_probability(sieve6, 10**6, box, samples, seed=7)
                assert est.hits == want, (samples, box, workers)
                full = samples // b
                assert pools == ([] if workers == 1 or full < 2
                                 else [min(workers, full) - 1])


@pytest.mark.parametrize("count", [(1 << 16) - 1, (1 << 16) + 1, (1 << 17) + 5])
def test_factor_rows_are_the_same_pooled_or_inline(sieve6, cpus, count):
    # each block of draws is a task, so from two whole blocks on two
    # workers fill the rows, and N, p and L must not move
    rows = {}
    for workers in (1, 2):
        pools = cpus(workers)
        rows[workers] = sample_factor_vectors(sieve6, 10**6, count, 3, seed=13)
        assert pools == ([] if workers == 1 or count < 2 * rng.BLOCK_WORDS else [1])
    for field in ("N", "p", "L"):
        assert rows[1][field].tobytes() == rows[2][field].tobytes(), field


# ---------------------------------------------------------------------------
# the Psi route with the innermost prime in closed form, against the full
# prime-tuple sum it replaced

def tuple_route_count(sieve, n, box):
    """sum Psi(n // (p_1 ... p_k), p_k) over every prime tuple, all k levels
    expanded and handed to the engine's psi_sum a chunk at a time."""
    box.require_inside_u()
    ranges = [sieve.primes_in_range(lo, hi) for lo, hi in prime_bounds(n, box)]
    count = 0

    def extend(prods, level):
        nonlocal count
        primes = ranges[level]
        step = max(1, (1 << 20) // max(primes.size, 1))
        for start in range(0, prods.size, step):
            head = prods[start:start + step]
            rows, cols = np.nonzero(primes[None, :] <= (n // head)[:, None])
            tails = head[rows] * primes[cols]
            if level == len(ranges) - 1:
                count += default_engine().psi_sum(n // tails, primes[cols])
            else:
                extend(tails, level + 1)

    extend(np.ones(1, dtype=np.int64), 0)
    return count


def random_box_inside_u(rnd, k):
    while True:
        ts = tuple(sorted((rnd.uniform(0.02, 0.6) for _ in range(k)), reverse=True))
        box = BoxSpec(ts, tuple(rnd.uniform(0.005, 0.15) for _ in range(k)))
        if inside_u(box):
            return box


@pytest.mark.parametrize("n,per_k", [(10**5, 6), (10**7, 3)])
def test_via_psi_matches_tuple_route_and_scan(sieve5, sieve7, n, per_k):
    sieve = sieve5 if n <= sieve5.limit else sieve7
    rnd = random.Random(n + 6)
    for k in (1, 2, 3, 4):
        for _ in range(per_k):
            box = random_box_inside_u(rnd, k)
            got = box_probability_via_psi(sieve, n, box).count
            assert got == tuple_route_count(sieve, n, box), (box, n)
            assert got == box_probability_exact(sieve, n, box).count, (box, n)


#: boxes past the sieve whose outer quotients n // (p_1 ... p_{k-1}) fall on
#: both sides of the leaf limit, and a k = 1 box, whose one row N = n is
#: beyond it
STRADDLING_BOXES = [
    (10**9, "0.3,0.1;0.1,0.05"),
    (10**10, "0.2,0.1;0.1,0.05;0.03,0.04"),
    (10**10, "0.18,0.04;0.12,0.04;0.07,0.04;0.02,0.03"),
    (10**9, "0.5,0.1"),
]


@pytest.mark.parametrize("n,text", STRADDLING_BOXES)
def test_via_psi_rows_across_the_leaf_limit(sieve7, n, text):
    box = BoxSpec.from_string(text)
    *outer, _ = prime_bounds(n, box)
    top = n // math.prod(lo for lo, _ in outer)
    bottom = n // math.prod(hi for _, hi in outer)
    if box.k > 1:
        assert bottom <= LEAF_LIMIT < top
    assert (box_probability_via_psi(sieve7, n, box).count
            == tuple_route_count(sieve7, n, box))


def test_via_psi_edge_intervals(sieve5):
    # innermost interval [2, 13]: the band starts at the smallest prime
    box = prime_box(N_SCAN, [(101, 997), (2, 13)])
    assert prime_bounds(N_SCAN, box)[1] == (2, 13)
    # innermost intervals with integers but no prime, and with no integer
    no_prime = prime_box(N_SCAN, [(101, 997), (24, 28)])
    no_integer = log_box(N_SCAN, [(30.5, 313.5), (24.2, 24.8)])
    assert prime_bounds(N_SCAN, no_integer)[1] == (25, 24)
    for b in (box, no_prime, no_integer, prime_box(N_SCAN, [(24, 28)])):
        want = box_probability_exact(sieve5, N_SCAN, b).count
        assert box_probability_via_psi(sieve5, N_SCAN, b).count == want, b
        assert tuple_route_count(sieve5, N_SCAN, b) == want, b
    assert box_probability_via_psi(sieve5, N_SCAN, no_prime).count == 0
    # n = 1: every bound is (2, 1), which holds no integer
    assert prime_bounds(1, BoxSpec((0.5,), (0.1,))) == [(2, 1)]
    assert box_probability_via_psi(sieve5, 1, BoxSpec((0.5,), (0.1,))).count == 0


def band_box(n, outer, band):
    """A box with the prime interval outer (none if None), then band = (a, b);
    b = a - 1 gives an innermost interval with no integer."""
    a, b = band
    inner = (a - 0.5, b + 0.5) if b >= a else (a - 0.8, a - 0.2)
    return log_box(n, ([(outer[0] - 0.5, outer[1] + 0.5)] if outer else []) + [inner])


def check_route_against_psi_rows(sieve, n, outer, band):
    """The route's count on band_box against the sum over its rows N = n // p,
    p prime in outer (the one row N = n with no outer interval), of
    Psi(N, b) - Psi(N, a - 1) off the leaf table; returns the rows."""
    engine = default_engine()
    box = band_box(n, outer, band)
    assert prime_bounds(n, box) == ([outer] if outer else []) + [band]
    N = n // sieve.primes_in_range(*outer) if outer else np.array([n])
    assert N.max(initial=0) <= LEAF_LIMIT
    a, b = band
    want = int(np.sum(engine.psi_small(N, b) - engine.psi_small(N, a - 1)))
    assert box_probability_via_psi(sieve, n, box).count == want, (n, outer, band)
    return N


def test_innermost_identity_row_by_row(sieve5):
    # sum_{a <= q <= b} Psi(N // q, q) = Psi(N, b) - Psi(N, a - 1) for every
    # N, including N < a, and the route counts it on boxes with that band
    engine = default_engine()
    N = np.arange(1, 3001, dtype=np.int64)
    for a, b in [(2, 2), (2, 13), (3, 3), (14, 16), (30, 60), (101, 997), (2500, 2999)]:
        want = np.zeros(N.size, dtype=np.int64)
        for q in sieve5.primes_in_range(a, b).tolist():
            z = N // q
            want[z >= 1] += psi_bruteforce(sieve5, z[z >= 1], q)
        assert np.array_equal(engine.psi_small(N, b) - engine.psi_small(N, a - 1), want)
    for a, b in [(2, 2), (2, 13), (14, 16), (2500, 2999), (25, 24), (2500, 2499)]:
        check_route_against_psi_rows(sieve5, 10**6, None, (a, b))
        outer = (max(a, b) + 10, max(a, b) + 5000)
        check_route_against_psi_rows(sieve5, 4 * (outer[1] + 1) * (b + 1), outer, (a, b))
    # inside U every row has N >= b, so N < a takes an empty band: here the
    # rows are N = 24 and 25 against a = 25
    N = check_route_against_psi_rows(sieve5, 10**6, (39000, 40300), (25, 24))
    assert (N < 25).any() and (N == 25).any()


def test_band_count_is_a_difference_of_psi_at_random_rows(sieve5):
    rnd = np.random.default_rng(8)
    for _ in range(20):
        a = int(rnd.integers(2, 5000))
        b = a + int(rnd.integers(-1, 5000))
        check_route_against_psi_rows(sieve5, int(rnd.integers(b + 1, LEAF_LIMIT + 1)),
                                     None, (a, b))
        lo = max(a, b) + int(rnd.integers(2, 1000))
        outer = (lo, min(lo + int(rnd.integers(0, 20000)), 10**5))
        n = int(rnd.integers((outer[1] + 1) * (b + 1), lo * LEAF_LIMIT))
        check_route_against_psi_rows(sieve5, n, outer, (a, b))


@pytest.fixture(scope="module")
def sieve_top_1e12():
    """Primes up to the top bound of the k = 2 box at n = 10^12."""
    return build_sieve(prime_bounds(10**12, BoxSpec.from_string("0.45,0.15;0.1,0.05"))[0][1])


def test_via_psi_pins_past_the_leaf_limit(sieve_top_1e12):
    k2 = BoxSpec.from_string("0.45,0.15;0.1,0.05")
    k3 = BoxSpec.from_string("0.35,0.05;0.2,0.05;0.1,0.05")
    for n, box, want in [(10**11, k2, 1832352703), (10**11, k3, 360282710)]:
        assert box_probability_via_psi(sieve_top_1e12, n, box).count == want
        assert tuple_route_count(sieve_top_1e12, n, box) == want
    # from the full tuple route, which takes seconds here
    assert box_probability_via_psi(sieve_top_1e12, 10**12, k2).count == 16663915721


def test_via_psi_k1_count_equals_prime_counts_grouped_by_quotient(sieve7):
    # every p in [a, b] exceeds sqrt(n), so the count is sum floor(n / p); the
    # p with floor(n / p) = v fill (n // (v + 1), n // v], and pi at those
    # ends is read off the engine's prime-count table over n's floor
    # quotients, pi(b) off the table for b: a third exact route
    n, box = 10**10, BoxSpec((0.5,), (0.1,))
    (a, b), = prime_bounds(n, box)
    engine = default_engine()
    small, large = engine._prime_counts(n)
    r = small.size - 1
    assert a * a >= n

    def pi(v):  # v <= r, or a floor quotient n // m of n with m <= r
        return np.where(v <= r, small[np.minimum(v, r)], large[n // np.maximum(v, r + 1)])

    v = np.arange(n // b, n // a + 1, dtype=np.int64)
    low = np.maximum(n // (v + 1), a - 1)
    primes = pi(n // v) - pi(low)
    primes[0] = int(engine._prime_counts(b)[1][1]) - int(pi(low[:1])[0])  # capped at b
    want = int(np.dot(v, primes))
    assert want == int((n // sieve7.primes_in_range(a, b)).sum()) == 1820524787
    assert box_probability_via_psi(sieve7, n, box).count == want


#: a k = 3 box whose route at 10^12 and 10^13 forms millions of leaf rows
MANY_ROWS_BOX = BoxSpec.from_string("0.4,0.05;0.2,0.05;0.1,0.05")


@pytest.fixture(scope="module")
def sieve_top_1e13():
    """Primes up to the top bound of MANY_ROWS_BOX at n = 10^13."""
    return build_sieve(prime_bounds(10**13, MANY_ROWS_BOX)[0][1])


def test_via_psi_pins_on_a_box_with_many_leaf_rows(sieve_top_1e13):
    # 10^13 matches P_n = 0.0046176454 from the tree before the streamed label
    # count; both counts are unchanged by how the leaf rows are counted
    for n, want in [(10**12, 4778184690), (10**13, 46176453601)]:
        assert box_probability_via_psi(sieve_top_1e13, n, MANY_ROWS_BOX).count == want


def test_via_psi_memory_on_a_box_with_many_leaf_rows(sieve_top_1e13):
    box_probability_via_psi(sieve_top_1e13, 10**12, MANY_ROWS_BOX)  # the engine's tables
    tracemalloc.start()
    try:
        got = box_probability_via_psi(sieve_top_1e13, 10**13, MANY_ROWS_BOX).count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 46176453601
    # 14 MiB in tuple chunks of 2^18; 52 MiB in chunks of 2^20, and 87 MiB
    # when each chunk's leaf rows were sorted and counted one by one
    assert peak < 24 << 20


def test_via_psi_reads_no_largest_prime_factor_table(sieve7):
    # a sieve whose prime list is intact but whose table is garbage: the
    # scan breaks, the Psi route does not notice
    rnd = np.random.default_rng(5)
    broken = PrimeSieve(limit=sieve7.limit,
                        largest_prime_factor=rnd.integers(1, 1 << 30, sieve7.limit + 1,
                                                          dtype=np.int32),
                        prime_array=sieve7.prime_array.copy())
    box2 = BoxSpec.from_string("0.45,0.15;0.1,0.05")
    assert (box_probability_exact(broken, 10**6, box2).count
            != box_probability_exact(sieve7, 10**6, box2).count)
    for n, text in [(10**6, "0.45,0.15;0.1,0.05"), (10**7, "0.5,0.1"),
                    (10**10, "0.35,0.05;0.2,0.05;0.1,0.05"), *STRADDLING_BOXES]:
        box = BoxSpec.from_string(text)
        assert (box_probability_via_psi(broken, n, box).count
                == box_probability_via_psi(sieve7, n, box).count), (n, text)
