import hashlib
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from billingsley import (BoxSpec, DomainError, ParameterError, ResourceError,
                         build_rho_table, errors, pd_box_probability_refined, pd_density,
                         pd_process, pd_sample_batch, rho, rng)
from billingsley.pd_process import (_axis_weights, _block_rows, _chunk_rows, _convolve,
                                    _validate)

import rho_pins
from conftest import WORKER_COUNTS


def _one_shot_stick_matrix(seed, count, truncation, start=0):
    # reference sampler: every row from one raw64 call, row-major, no
    # blocks; each uniform is (k + 0.5) * 2^-53 for k the top 53 bits of a word
    words = rng.raw64(seed, start * truncation, count * truncation)
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    u = u.reshape(count, truncation)
    prefix = np.cumprod(u, axis=1)
    sticks = np.empty_like(u)
    sticks[:, 0] = 1.0 - u[:, 0]
    sticks[:, 1:] = prefix[:, :-1] - prefix[:, 1:]
    tails = prefix[:, -1].copy()
    sticks.sort(axis=1)
    return sticks[:, ::-1], tails


def _midpoint_oracle(table, box, grid):
    # the full grid^k tensor midpoint rule over the density, streamed along
    # the first axis
    axes = [t + (np.arange(grid) + 0.5) * (d / grid)
            for t, d in zip(box.t, box.dt)]
    if box.k == 1:
        t1 = axes[0]
        f = rho(table, (1.0 - t1) / t1) / t1
        return float(np.mean(f) * box.volume())
    rest = np.meshgrid(*axes[1:], indexing="ij")
    rest_sum = np.zeros_like(rest[0])
    rest_prod = np.ones_like(rest[0])
    for m in rest:
        rest_sum += m
        rest_prod *= m
    rest_sum = rest_sum.ravel()
    rest_prod = rest_prod.ravel()
    t_last = rest[-1].ravel()
    total = 0.0
    for x0 in axes[0]:
        arg = (1.0 - x0 - rest_sum) / t_last
        total += float(np.sum(rho(table, arg) / (x0 * rest_prod)))
    return total / grid ** box.k * box.volume()


def _midpoint_oracle_refined(table, box, grid):
    fine = _midpoint_oracle(table, box, 2 * grid)
    return fine, abs(fine - _midpoint_oracle(table, box, grid)) / 3.0


def test_sample_construction_identity():
    for seed in (0, 1, 7, 123456):
        sticks, tails = pd_sample_batch(seed, 1)
        comps, tail = sticks[0], float(tails[0])
        assert np.all(comps > 0)
        assert np.all(np.diff(comps) <= 0)
        assert tail >= 0
        assert comps.sum() + tail == pytest.approx(1.0, abs=1e-12)


def test_sample_matches_batch_rows():
    sticks, tails = pd_sample_batch(9, 5)
    one, one_tail = pd_sample_batch(9, 1)
    assert np.array_equal(one[0], sticks[0])
    assert one_tail[0] == tails[0]
    # chunked generation reproduces the same rows
    part, ptails = pd_sample_batch(9, 2, start=3)
    assert np.array_equal(part, sticks[3:5])
    assert np.array_equal(ptails, tails[3:5])


@pytest.mark.parametrize("truncation, start", [(60, 12345), (1, 7), (7, 3), (777, 2)])
def test_block_fill_matches_one_shot_sampler(truncation, start):
    count = 2 * _block_rows(truncation) + 17
    sticks, tails = pd_sample_batch(31, count, truncation, start=start)
    want, want_tails = _one_shot_stick_matrix(31, count, truncation, start)
    assert sticks.flags.c_contiguous
    assert sticks.tobytes() == np.ascontiguousarray(want).tobytes()
    assert tails.tobytes() == want_tails.tobytes()


#: sha256 of the little-endian sticks then tails of pd_sample_batch(seed,
#: count, truncation, start), frozen from the row-major sampler before the
#: column-major fill; the counts are 1 and one block (rng.BLOCK_WORDS = 2^16
#: words) of rows minus one, exactly and plus one.  The last five, frozen
#: before the block row floor, are one block of _MIN_BLOCK_ROWS = 256 rows
#: minus one, exactly and plus one at T = 777, and several blocks at T = 2000
#: and at T = 10^4 (104 rows, capped by _MAX_BLOCK_WORDS)
PINNED_SAMPLES = [
    (42, 300000, 60, 0, "abc031149b3054d81081995aebc556828e30b45aca1dc5586df82470a8d21a1f"),
    (3, 1, 1, 5, "49c656730015d7f8e34591dfeefc1403715a105849c55d0a506b7fd8eb0c38af"),
    (3, 65535, 1, 5, "c7433ce2f66006f22950da9771679dc1a18011e653dc384356678639cb21bc0e"),
    (3, 65536, 1, 5, "1e7420aaa24abc355d2d50de4d620d9491b9ad1fbbab0f1ffd9dad430ae7c72c"),
    (3, 65537, 1, 5, "5c89c397e1c9b9c601ec56087f9ead04c14845c52bf30b2f14e729ec0801ac3f"),
    (11, 1, 7, 999, "6b027538e55505a338e32eb8f7747398cebd8a3b25227c4c55855348f5871fd5"),
    (11, 9361, 7, 999, "70834d751d5c037535e1f05602a9d74c5592d2abfa357a4c393cf9fa79727ba4"),
    (11, 9362, 7, 999, "27e9e3d6e1c5a459f2930253c0e78094265e071a57c24af847300a033e95e742"),
    (11, 9363, 7, 999, "9929d82bba2d76bd5a1222c375154c3ce292ed768dddfb91f46a0383e0d03930"),
    (13, 1, 777, 12345, "8bec56edf724c83d9174213c77bcb28bc8c9b50bb11a99a8dfbdd0770bbd8d14"),
    (13, 83, 777, 12345, "e2eaa5a0dfec2c4514895fe349814a05fafd89165fbd9ccf5f496468222009e5"),
    (13, 84, 777, 12345, "24e5b7520416174c2d8ca59b9b9c9f31df1df0dc34212a1d97232db9708e95cc"),
    (13, 85, 777, 12345, "139b7a752ef82ed8e5c461fd906688d6a957a541783c169d4381f254cf872194"),
    (13, 255, 777, 12345, "d78d44890b7714c772089c91520874e9c428211a3eb7b4ee5965587833253302"),
    (13, 256, 777, 12345, "2569232bd4412cfb3789535957275e5ab9408b9a586e9315193633ea69c4b543"),
    (13, 257, 777, 12345, "7c8eaf36c5870b425d5991b82119842c5c3fd0dc3d4b1f95821f839df5ab85b9"),
    (17, 1000, 2000, 3, "af7aad7f0f9bd29ad38f3afdf6329213526ed0fe5e34e4f587619e0bc9786c0d"),
    (19, 250, 10000, 7, "9c42e2bf618ac2e163b2775c14bae5d3aab293e1e9f364cd00816f4abcec3db9"),
]


@pytest.mark.parametrize("seed, count, truncation, start, digest", PINNED_SAMPLES)
def test_samples_match_pinned_digests(seed, count, truncation, start, digest):
    assert _sample_digest(seed, count, truncation, start) == digest


def _sample_digest(seed, count, truncation, start):
    sticks, tails = pd_sample_batch(seed, count, truncation, start=start)
    h = hashlib.sha256(sticks.astype("<f8").tobytes())
    h.update(tails.astype("<f8").tobytes())
    return h.hexdigest()


def test_samples_match_pinned_digests_across_worker_counts(cpus):
    for workers in WORKER_COUNTS:
        pools = cpus(workers)
        for seed, count, truncation, start, digest in PINNED_SAMPLES:
            assert _sample_digest(seed, count, truncation, start) == digest, workers
        # the 300000-row sample and the T = 2000 and T = 10^4 ones span
        # 274, 3 and 2 full blocks; the calling thread is one of the workers
        assert pools == ([] if workers == 1 else [workers - 1, min(workers, 3) - 1, 1])


def test_oversized_draws_are_refused_before_allocation():
    with pytest.raises(ResourceError, match="PD draws"):
        pd_sample_batch(1, 10**16)
    with pytest.raises(ResourceError):
        pd_sample_batch(1, 1, truncation=10**12)


def test_rows_across_a_block_boundary_are_single_draws():
    rows = _block_rows(60)
    sticks, tails = pd_sample_batch(5, rows + 3)
    for i in range(rows - 2, rows + 3):
        row, tail = pd_sample_batch(5, 1, start=i)
        assert row[0].tobytes() == sticks[i].tobytes()
        assert tail[0] == tails[i]


@pytest.mark.parametrize("truncation", [1, 7, 60, 777, 10**4])
def test_chunks_are_whole_blocks(truncation):
    rows = _block_rows(truncation)
    assert _chunk_rows(truncation) % rows == 0 and _chunk_rows(truncation) >= 2 * rows


def test_sample_validation():
    with pytest.raises(ParameterError, match="truncation"):
        pd_sample_batch(1, 1, truncation=0)
    with pytest.raises(ParameterError, match="count"):
        pd_sample_batch(1, 0)


@pytest.mark.parametrize("count, truncation, start", [
    (1, 60, -1), (3, 60, 2**70), (1, 1, 2**64), (2, 60, 2**64 // 60 - 1),
    (2, 4, 2**62 - 1)])
def test_rows_past_the_counter_range_are_refused_before_allocation(
        monkeypatch, count, truncation, start):
    def no_alloc(*args):
        raise AssertionError("sized the allocation before refusing")

    monkeypatch.setattr(pd_process, "check_memory", no_alloc)
    with pytest.raises(ParameterError, match="counters"):
        pd_sample_batch(1, count, truncation, start=start)


def test_numpy_integer_count_and_start_give_the_int_rows():
    # numpy counters reached rng._advance as int64 and raised OverflowError
    sticks, tails = pd_sample_batch(42, np.int64(3), 60, start=np.int64(10))
    want, want_tails = pd_sample_batch(42, 3, 60, start=10)
    assert sticks.tobytes() == want.tobytes() and tails.tobytes() == want_tails.tobytes()


def test_numpy_integer_rows_past_the_counter_range_are_refused(monkeypatch):
    # (start + count) * truncation wrapped in int64, so the guard let it by
    def no_alloc(*args):
        raise AssertionError("sized the allocation before refusing")

    monkeypatch.setattr(pd_process, "check_memory", no_alloc)
    with pytest.raises(ParameterError, match="counters"):
        pd_sample_batch(42, np.int64(3), 60, start=np.int64(2**62))
    for count, truncation, start in [(3.0, 60, 0), (3, 60.0, 0), (3, 60, 1.5)]:
        with pytest.raises(ParameterError, match="must be an integer"):
            pd_sample_batch(42, count, truncation, start=start)


def test_last_rows_of_the_counter_range_are_drawn():
    # counters up to 2^64 - 1 are in range: the last row ends on that counter
    sticks, _ = pd_sample_batch(1, 1, 4, start=2**62 - 1)
    assert sticks.shape == (1, 4)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("truncation", [1, 5, 60, 1100])
def test_k_ranks_are_the_first_columns_of_the_full_rows(cpus, truncation, workers):
    # at truncation 1100 the prefix products underflow to 0 within each
    # row, so the rows end in lengths of +0.0, never -0.0
    pools = cpus(workers)
    rows = _block_rows(truncation)
    ks = sorted({k for k in (1, 2, truncation - 1, truncation) if 1 <= k <= truncation})
    for count in (1, rows - 1, rows + 3, 2 * rows + 5):
        for start in (0, 123):
            full, full_tails = pd_sample_batch(7, count, truncation, start=start)
            assert not np.signbit(full).any()
            assert (full[:, -1] == 0).all() == (truncation == 1100)
            for k in ks:
                sticks, tails = pd_sample_batch(7, count, truncation, start=start, k=k)
                assert sticks.shape == (count, k) and sticks.flags.c_contiguous
                assert sticks.tobytes() == np.ascontiguousarray(full[:, :k]).tobytes()
                assert tails.tobytes() == full_tails.tobytes()
    # only two blocks and more pool, once for the full rows and once per k
    assert pools == ([] if workers == 1 else [1] * (2 * (len(ks) + 1)))


def test_k_outside_the_ranks_is_refused():
    for k in (0, 61, -1):
        with pytest.raises(ParameterError, match="k must be in"):
            pd_sample_batch(1, 3, 60, k=k)
    with pytest.raises(ParameterError, match="k must be an integer"):
        pd_sample_batch(1, 3, 60, k=2.0)
    sticks, tails = pd_sample_batch(42, 3, 60, start=10, k=np.int64(2))
    want, want_tails = pd_sample_batch(42, 3, 60, start=10)
    assert sticks.tobytes() == np.ascontiguousarray(want[:, :2]).tobytes()
    assert tails.tobytes() == want_tails.tobytes()


def test_memory_check_counts_only_the_ranks_drawn_out(monkeypatch, cpus):
    cpus(2)
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", 4 << 20)
    with pytest.raises(ResourceError):
        pd_sample_batch(1, 20000)  # 9.8 MB of sticks at once
    sticks, _ = pd_sample_batch(1, 20000, k=1)
    assert sticks.shape == (20000, 1)


def test_one_rank_peak_is_the_buffers_and_a_column(cpus):
    # 1.6 MB of output and 2.6 MB of block buffers on two CPUs, against
    # 49 MB for the full rows
    cpus(2)
    tracemalloc.start()
    try:
        pd_sample_batch(1, 10**5, k=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20


def test_tail_mass_bound():
    # -log(tail) is a sum of 60 unit exponentials; mass above 2^-20 requires
    # that sum below 13.9, which is far into its lower tail
    _, tails = pd_sample_batch(17, 10**4)
    assert float(tails.max()) < 2.0**-20


def test_marginal_matches_rho2(table):
    rho2 = rho(table, 2.0)
    sticks, _ = pd_sample_batch(42, 10**5)
    freq = float(np.mean(sticks[:, 0] <= 0.5))
    assert abs(freq - rho2) <= 3 * math.sqrt(rho2 * (1 - rho2) / 10**5)


def test_density_examples(table):
    assert pd_density(table, [0.6]) == pytest.approx(1 / 0.6, rel=1e-12)
    want = (1 - math.log(1.5)) / 0.4
    assert pd_density(table, [0.4]) == pytest.approx(want, rel=1e-9)
    assert pd_density(table, [0.2, 0.3]) == 0.0  # ordering violated


def test_density_where_the_rho_argument_passes_13(table):
    point = [0.25, 0.05]
    u = (1.0 - sum(point)) / point[-1]  # 14 up to rounding
    assert u > 13
    want = float(rho_pins.rho_reference(u, rho_pins.midpoint_series(u_top=15))) / (0.25 * 0.05)
    assert pd_density(table, point) == pytest.approx(want, rel=1e-13, abs=0)


def test_density_zero_off_support(table):
    rnd = random.Random(10)
    for _ in range(100):  # ordering constraint broken
        t2 = rnd.uniform(0.05, 0.45)
        assert pd_density(table, [t2 * rnd.uniform(0.2, 0.99), t2]) == 0.0
    for _ in range(100):  # positivity broken
        assert pd_density(table, [rnd.uniform(0.3, 0.6), -rnd.uniform(0, 0.5)]) == 0.0
    for _ in range(100):  # simplex broken
        t1 = rnd.uniform(0.55, 0.9)
        assert pd_density(table, [t1, rnd.uniform(1 - t1, t1)]) == 0.0
    # boundary counts as outside
    assert pd_density(table, [0.5, 0.5]) == 0.0
    assert pd_density(table, [0.6, 0.4]) == 0.0


#: a point inside U at every k <= 4, and the box width of the facet tests;
#: dyadic, so that every sum and difference below is exact
_INSIDE = (2.0**-2, 2.0**-3, 2.0**-4, 2.0**-5)
_WIDTH = 2.0**-8


def _corner_at_facet(k, j, width, by):
    """The lower corner of a box of this width on every side (a point at
    width 0) whose nearest vertex lies `by` inside U's facet j: t_k = 0 at
    j = 0, t_j = t_{j+1} for 0 < j < k, and sum t_i = 1 at j = k."""
    t = list(_INSIDE[:k])
    if j == 0:
        t[-1] = by
    elif j < k:
        t[j] = t[j - 1] - width - by
    else:
        t[0] = 1.0 - sum(t[1:]) - k * width - by
    return t


@pytest.mark.parametrize("k, j", [(k, j) for k in range(1, 5) for j in range(k + 1)])
def test_points_and_boxes_share_u_s_facets(k, j):
    table = build_rho_table(64.0)  # the point 2^-6 above t_1 = 0 reads rho(63)
    on = _corner_at_facet(k, j, 0.0, 0.0)
    assert pd_density(table, on) == 0.0
    with pytest.raises(DomainError, match="not inside U"):
        BoxSpec(_corner_at_facet(k, j, _WIDTH, 0.0), (_WIDTH,) * k).require_inside_u()
    near = _corner_at_facet(k, j, 0.0, 2.0**-6)
    assert pd_density(table, near) > 0.0
    BoxSpec(_corner_at_facet(k, j, _WIDTH, 2.0**-6), (_WIDTH,) * k).require_inside_u()


def test_density_u_argument_out_of_table():
    small = build_rho_table(u_max=2.0)
    with pytest.raises(DomainError):
        pd_density(small, [0.7, 0.05])  # (1 - 0.75)/0.05 = 5 > u_max
    with pytest.raises(DomainError):
        pd_box_probability_refined(small, BoxSpec((0.3,), (0.05,)), grid=8)


def test_density_refuses_a_point_with_no_coordinate(table):
    with pytest.raises(ParameterError, match="at least one coordinate"):
        pd_density(table, [])


def test_box_probability_needs_one_more_unit_of_table():
    # the closed inner integral reads rho at (1 - s)/t_k, one unit past the
    # density's own argument (1 - s - t_k)/t_k
    small = build_rho_table(u_max=2.0)
    assert pd_density(small, [0.55, 0.22]) > 0  # (1 - 0.77)/0.22 < 2
    with pytest.raises(DomainError, match=r"u = 2\.5\b"):
        pd_box_probability_refined(small, BoxSpec((0.5, 0.2), (0.1, 0.05)), grid=8)
    with pytest.raises(DomainError, match=r"u = 2\.5\b"):
        pd_box_probability_refined(small, BoxSpec((0.4,), (0.1,)))
    val, _ = pd_box_probability_refined(small, BoxSpec((0.5,), (0.1,)))  # needs u = 2
    assert val == pytest.approx(math.log(1.2), abs=1e-12)


def test_lattice_over_the_memory_budget_is_refused_before_allocation(table, monkeypatch):
    box = BoxSpec((0.45, 0.15), (0.1, 0.1))
    # the lattice at grid g holds 0.1 * 1024 g + 2 points, 128 bytes each by
    # the estimate: about 210 KB at g = 16 and 3.4 MB at g = 256
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_BUDGET", 1 << 20)
    assert pd_box_probability_refined(table, box, grid=16)[0] > 0
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="quadrature lattice"):
            pd_box_probability_refined(table, box)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 14


@pytest.mark.parametrize("text", ["0.1,0.7;0.05,0.04", "0.2,0.4;0.12,0.07;0.07,0.04;0.04,0.02"])
def test_lattice_estimate_bounds_the_traced_peak(table, text):
    # the memory check refuses a lattice by this estimate, so it must not
    # undercount what the quadrature allocates
    box = BoxSpec.from_string(text)
    step = _validate(table, box, 64)
    tracemalloc.start()
    try:
        pd_box_probability_refined(table, box, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * (sum(box.dt[:-1]) / step + box.k)


def test_density_normalization_k1(table):
    # int_0^1 rho((1-t)/t)/t dt = 1; integrate where the table reaches
    # ((1-t)/t <= 20 for t >= 1/21) --- the remaining tail is bounded by
    # int_20^inf rho(u) du < 1e-27 and is far below the tolerance
    lo = 1.0 / 21.0
    m = 400_000
    t = lo + (np.arange(m) + 0.5) * ((1.0 - lo) / m)
    f = rho(table, (1.0 - t) / t) / t
    integral = float(np.mean(f) * (1.0 - lo))
    assert integral == pytest.approx(1.0, abs=1e-6)


def test_box_probability_k1_analytic(table):
    # rho term is identically 1 on [0.5, 0.6]: integral is log 1.2
    val, err = pd_box_probability_refined(table, BoxSpec((0.5,), (0.1,)), grid=256)
    assert val == pytest.approx(math.log(1.2), abs=1e-7)
    assert err < 1e-7


def test_box_probability_k1_is_exact(table):
    box = BoxSpec((0.3,), (0.15,))
    val, err = pd_box_probability_refined(table, box, grid=4)
    assert val == rho(table, 1 / box.upper()[0]) - rho(table, 1 / 0.3)
    assert err == 0.0
    assert val == pytest.approx(_midpoint_oracle(table, box, 4096), abs=1e-9)
    # k = 1 has no outer axis: the lattice is one unit node at s = 0, so the
    # sum is rho(1/b) - rho(1/a) bit for bit, at both Richardson steps
    rnd = random.Random(21)
    for _ in range(300):
        t = rnd.uniform(0.06, 0.95)
        box = BoxSpec((t,), (rnd.uniform(1e-9, 0.99 * (1.0 - t)),))
        grid = rnd.choice([1, 2, 7, 256])
        want = rho(table, 1.0 / box.upper()[0]) - rho(table, 1.0 / t)
        assert pd_box_probability_refined(table, box, grid) == (want, 0.0), (box, grid)


@pytest.mark.parametrize("grid", [math.nan, 1.5, True])
@pytest.mark.parametrize("box", [BoxSpec((0.5,), (0.1,)), BoxSpec((0.5, 0.2), (0.1, 0.05))],
                         ids=["k1", "k2"])
def test_grid_must_be_an_int(table, box, grid):
    with pytest.raises(ParameterError, match="grid"):
        pd_box_probability_refined(table, box, grid)


@pytest.mark.parametrize("box, grid", [
    (BoxSpec((0.45, 0.15), (0.1, 0.1)), 64),
    (BoxSpec((0.5, 0.2), (0.05, 0.08)), 64),
    (BoxSpec((0.35, 0.2, 0.1), (0.05, 0.05, 0.05)), 32),
    (BoxSpec((0.4, 0.25, 0.1), (0.05, 0.05, 0.05)), 32),
    (BoxSpec((0.3, 0.2, 0.12, 0.07), (0.02,) * 4), 8),
])
def test_closed_inner_integral_matches_midpoint_oracle(table, box, grid):
    want, want_err = _midpoint_oracle_refined(table, box, grid)
    val, err = pd_box_probability_refined(table, box, grid)
    assert abs(val - want) <= 4 * want_err
    assert err < want_err  # one axis fewer carries discretisation error


@pytest.mark.parametrize("text, grid, ref", [
    # split Gauss-Legendre values, computed independently of the library
    ("0.45,0.1;0.15,0.1", 256, 0.05653721671479754),
    ("0.35,0.05;0.2,0.05;0.1,0.05", 128, 0.002709944617963229),
])
def test_refined_quadrature_hits_independent_references(table, text, grid, ref):
    val, err = pd_box_probability_refined(table, BoxSpec.from_string(text), grid)
    miss = abs(val - ref)
    assert miss <= 1e-9
    assert miss <= 4 * err  # the stated estimate bounds the miss


@pytest.mark.parametrize("text, ref", [
    # a 1e-12 outer side, then a 1e-9 one in the middle of three; the
    # references are the midpoint rule on the outer axes, at grid 256 for the
    # first and at grid 2048 less its own error estimate for the second
    ("0.45,1e-12;0.15,0.1", 4.652185283730074e-13),
    ("0.45,0.1;0.2,1e-9;0.15,0.02", 1.2132633743491968e-10),
])
def test_thin_sides_keep_their_relative_precision(table, text, ref):
    val, _ = pd_box_probability_refined(table, BoxSpec.from_string(text))
    assert val == pytest.approx(ref, rel=1e-10, abs=0)


def test_small_t_k_steps_finer(table):
    # F varies on the scale t_k in s: with a 2^-18 step this box missed by
    # 2.5e-7 against an estimate of 4.5e-9; the reference is the midpoint
    # rule on the outer axis at grid 2048 less its own error estimate
    val, err = pd_box_probability_refined(table, BoxSpec((0.999998, 5e-7), (1e-6, 4e-7)))
    miss = abs(val - 4.263519817237036e-07)
    assert miss <= 4 * err
    assert err < 1e-6 * val


def test_lattice_nodes_past_the_simplex_read_f_as_zero(table):
    # at grid 1 the last nodes of both outer axes pass s = 1, where rho
    # would refuse the negative argument
    box = BoxSpec((0.6, 0.39808, 0.0005), (0.00051, 0.00051, 0.00001))
    coarse, _ = pd_box_probability_refined(table, box, grid=1)
    fine, _ = pd_box_probability_refined(table, box)
    assert abs(coarse - fine) < 0.1 * fine


def test_fft_and_direct_convolution_agree():
    # the outer axes of a k = 5 box at grid 32, each over 64 nodes, and a
    # side far thinner than a step, on two nodes
    box = BoxSpec.from_string("0.38,0.1;0.2,0.05;0.1,0.05;0.04,0.03;0.01,0.02")
    step = _validate(build_rho_table(30), box, 32)
    axes = [_axis_weights(t, d, step) for t, d in zip(box.t[:-1], box.dt[:-1])]
    assert min(a.size for a in axes) > 64
    axes.append(_axis_weights(0.2, 1e-9, step))
    assert axes[-1].size == 2
    fft, direct = axes[0], axes[0]
    for a in axes[1:]:
        fft, direct = _convolve(fft, a), np.convolve(direct, a)
    assert np.max(np.abs(fft - direct)) <= 1e-12 * np.max(direct)
    s = sum(box.t[:-1]) + np.arange(direct.size) * step
    f = 1.0 / (1.0 - s)  # any smooth F
    assert float(f @ fft) == pytest.approx(float(f @ direct), rel=1e-12, abs=0)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs CPU affinity and at least two CPUs")
def test_box_probability_bits_do_not_depend_on_the_cpus(table):
    # a child pinned to one CPU before numpy loads runs every library on one
    # thread; a long float dot product through BLAS would sum in other blocks
    code = ("import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            "from billingsley import BoxSpec, build_rho_table, pd_box_probability_refined; "
            "print(repr(pd_box_probability_refined(build_rho_table(), "
            "BoxSpec((0.45, 0.15), (0.1, 0.1)))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    one = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    here = pd_box_probability_refined(table, BoxSpec((0.45, 0.15), (0.1, 0.1)))
    assert one == repr(here) + "\n"


def test_box_probability_narrow_box_is_small(table):
    val, _ = pd_box_probability_refined(table, BoxSpec((0.5,), (1e-12,)), grid=4)
    assert val == pytest.approx(0.0, abs=1e-10)


def test_box_probability_requires_u(table):
    with pytest.raises(DomainError):
        pd_box_probability_refined(table, BoxSpec((0.5, 0.45), (0.1, 0.04)))
    with pytest.raises(ParameterError):
        pd_box_probability_refined(table, BoxSpec((0.5,), (0.1,)), grid=0)


def test_box_probability_k3_sane(table):
    from billingsley import inf_density_on_box
    box = BoxSpec((0.4, 0.25, 0.1), (0.05, 0.05, 0.05))
    val, err = pd_box_probability_refined(table, box, grid=64)
    assert 0 < val < 1
    assert err < 1e-6
    # the certified density bound gives a hard floor; a coarse grid maximum
    # (with slack) gives a ceiling
    floor = box.volume() * inf_density_on_box(table, box)
    pts = [[a, b, c]
           for a in (0.4, 0.425, 0.45) for b in (0.25, 0.275, 0.3)
           for c in (0.1, 0.125, 0.15)]
    ceil = box.volume() * max(pd_density(table, p) for p in pts) * 1.2
    assert floor <= val <= ceil


def test_rho_near_kink_stays_accurate(table):
    # interpolation just above u = 1 must not wobble from stencils that
    # straddle the derivative jump
    for eps in (1e-5, 5e-5, 1.5e-4, 7.7e-4):
        u = 1.0 + eps
        assert rho(table, u) == pytest.approx(1 - math.log(u), abs=1e-11)


def test_sampler_agrees_with_quadrature():
    # six fixed boxes, the same 10^6 samples for each, 4-sigma binomial
    # tolerance; the k = 4 box reads rho up to u = 22
    table = build_rho_table(30)
    boxes = [BoxSpec((0.5,), (0.1,)),
             BoxSpec((0.3,), (0.15,)),
             BoxSpec((0.62,), (0.2,)),
             BoxSpec((0.45, 0.15), (0.1, 0.1)),
             BoxSpec((0.5, 0.2), (0.05, 0.08)),
             BoxSpec((0.35, 0.15, 0.06, 0.02), (0.2, 0.1, 0.05, 0.03))]
    total = 10**6
    chunk = 10**5
    hits = [0] * len(boxes)
    for c in range(total // chunk):
        sticks, _ = pd_sample_batch(4242, chunk, start=c * chunk)
        for j, box in enumerate(boxes):
            ok = np.ones(chunk, dtype=bool)
            for i in range(box.k):
                ok &= (sticks[:, i] >= box.t[i]) & (sticks[:, i] <= box.t[i] + box.dt[i])
            hits[j] += int(np.count_nonzero(ok))
    for box, h in zip(boxes, hits):
        want, _ = pd_box_probability_refined(table, box)
        freq = h / total
        sd = math.sqrt(max(want * (1 - want), 1e-12) / total)
        assert abs(freq - want) < 4 * sd, (box, freq, want)


def test_sampler_agrees_with_quadrature_at_k5():
    # a k = 5 box, P = 2.7449e-5: 4 * 10^6 draws, about 110 hits, at
    # a 4-sigma binomial tolerance.  Truncation 20 leaves tails near e^-20,
    # far below the box's smallest side
    box = BoxSpec.from_string("0.38,0.1;0.2,0.05;0.1,0.05;0.04,0.03;0.01,0.02")
    want, _ = pd_box_probability_refined(build_rho_table(30), box)
    total, chunk, hits = 4 * 10**6, 10**6, 0
    for start in range(0, total, chunk):
        sticks, _ = pd_sample_batch(5, chunk, truncation=20, start=start)
        ok = np.ones(chunk, dtype=bool)
        for i in range(box.k):
            ok &= (sticks[:, i] >= box.t[i]) & (sticks[:, i] <= box.t[i] + box.dt[i])
        hits += int(np.count_nonzero(ok))
    assert abs(hits / total - want) < 4 * math.sqrt(want * (1 - want) / total), hits
