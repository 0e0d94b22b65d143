"""Regenerate bench/pins.json: each workload's input family and its answers.

    python3 bench/pin.py            # both sizes, ~5 minutes
    python3 bench/pin.py --size smoke

Every pinned exact count is cross-checked by a second exact route wherever
one reaches: psi_bruteforce or the exact scan off a sieve, and, for the
counts past any sieve, an independent Psi counter written here (a
largest-prime recursion over a small-x lookup table, sharing no code with
the library).  PD references come from an independent quadrature that
integrates the innermost coordinate in closed form through the delay
equation and the rest by Gauss-Legendre split at the kinks of rho.  Finally
every family member is run through the worker's oracles, so the pinned
family holds only inputs whose Monte Carlo and sampler checks pass.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import math
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import worker  # noqa: E402  (puts src on sys.path)
import billingsley as b  # noqa: E402
from billingsley import cli  # noqa: E402

SUITE_SEEDS = (42, 1, 2, 3, 5, 8, 13, 21)
MC_SEEDS = (42, 7, 11, 101, 2024, 31337, 9, 77)
BOXES2 = ("0.5,0.05;0.2,0.05", "0.45,0.1;0.15,0.1", "0.55,0.08;0.25,0.04",
          "0.4,0.05;0.2,0.05")
BOXES3 = ("0.4,0.05;0.25,0.05;0.1,0.05", "0.45,0.03;0.22,0.03;0.08,0.03",
          "0.5,0.04;0.28,0.02;0.12,0.02", "0.35,0.05;0.2,0.05;0.1,0.05")
CRIT_BOXES = ("0.5,0.02;0.2,0.02", "0.45,0.02;0.2,0.02", "0.55,0.02;0.2,0.02",
              "0.4,0.02;0.2,0.02")
#: quadrature cost depends on how much of a box has rho argument above 1, so
#: the PD family varies only the sampler seed
PD_BOX2, PD_BOX3 = "0.45,0.1;0.15,0.1", "0.35,0.05;0.2,0.05;0.1,0.05"
FAMILY = 8

CONFIG = {
    "suite_all": {
        "full": {"bundle": "all"},
        "smoke": {"bundle": "identities"},
    },
    "psi_large": {
        "full": {"y": 1000, "sieve": 2 * 10**6, "box": "0.45,0.15;0.1,0.05",
                 "x0": 3 * 10**11, "dx": 1_000_003, "n0": 10**10, "dn": 99_991},
        "smoke": {"y": 100, "sieve": 2 * 10**4, "box": "0.45,0.15;0.1,0.05",
                  "x0": 3 * 10**7, "dx": 1_009, "n0": 10**6, "dn": 997},
    },
    "scan_mc": {
        "full": {"n": 10**7, "mc_draws": 10**7, "rows": 10**5, "rows_k": 3,
                 "ladder": [10**4, 10**5, 10**6, 10**7], "exact_threshold": 10**6,
                 "budget": 10**6, "epsilon": 0.25},
        "smoke": {"n": 10**5, "mc_draws": 10**5, "rows": 10**3, "rows_k": 3,
                  "ladder": [10**4, 10**5], "exact_threshold": 10**4,
                  "budget": 10**4, "epsilon": 0.25},
    },
    "pd_quad": {
        "full": {"grid2": 256, "grid3": 128, "draws": 3 * 10**5},
        "smoke": {"grid2": 32, "grid3": 16, "draws": 10**4},
    },
}


# ---------------------------------------------------------------------------
# independent exact routes

def primes_upto(limit: int) -> np.ndarray:
    return np.flatnonzero(worker._primes_bitmap(limit))


class IndependentPsi:
    """Psi(x, y) for y <= ymax by Psi(x, p_j) = sum_k Psi(x // p_j^k, p_{j-1}),
    with x <= small answered from a table of cumulative smooth counts."""

    def __init__(self, ymax: int, small: int = 10**5):
        self.primes = primes_upto(max(ymax, 2)).tolist()
        self.small = small
        lpf = np.ones(small + 1, dtype=np.int64)
        for p in primes_upto(small).tolist():
            lpf[p::p] = p
        self.table = [(np.cumsum(lpf <= p) - 1).tolist() for p in self.primes]
        self.memo: dict[tuple[int, int], int] = {}

    def _rec(self, x: int, j: int) -> int:
        if x <= self.small:
            return self.table[j][x]
        if j == 0:
            return x.bit_length()
        key = (x, j)
        hit = self.memo.get(key)
        if hit is None:
            p, hit, z = self.primes[j], 0, x
            while z >= 1:
                hit += self._rec(z, j - 1)
                z //= p
            self.memo[key] = hit
        return hit

    def __call__(self, x: int, y: int) -> int:
        j = bisect.bisect_right(self.primes, y) - 1
        return 1 if j < 0 else self._rec(x, j)


def prime_interval(n: int, t: float, dt: float) -> tuple[int, int]:
    """[ceil(n^t), floor(n^(t+dt))] at 60 digits; asserts no near-tie."""
    with localcontext() as ctx:
        ctx.prec = 60
        ln = Decimal(n).ln()
        lo = (Decimal(t) * ln).exp()
        hi = (Decimal(t + dt) * ln).exp()
    assert abs(lo - round(lo)) > Decimal("1e-30") and abs(hi - round(hi)) > Decimal("1e-30")
    return math.ceil(lo), math.floor(hi)


def box_count_independent(psi: IndependentPsi, n: int, box) -> int:
    """sum over p_1 > ... > p_k in the box's prime intervals of
    Psi(n // (p_1 ... p_k), p_k)."""
    bounds = [prime_interval(n, t, d) for t, d in zip(box.t, box.dt)]
    assert bounds == [tuple(v) for v in b.prime_bounds(n, box)]
    ranges = [[p for p in primes_upto(hi).tolist() if p >= lo] for lo, hi in bounds]

    def descend(level, prod):
        total = 0
        for p in ranges[level]:
            if prod * p > n:
                break
            if level == len(ranges) - 1:
                total += psi(n // (prod * p), p)
            else:
                total += descend(level + 1, prod * p)
        return total

    return descend(0, 1)


def _gl_pieces(a: float, b_: float, breaks, panels: int):
    """Gauss-Legendre nodes and weights on [a, b] split at the breaks."""
    x, w = np.polynomial.legendre.leggauss(20)
    cuts = sorted({a, b_, *[c for c in breaks if a < c < b_]})
    edges = np.concatenate([np.linspace(lo, hi, panels + 1)[:-1] for lo, hi in
                            zip(cuts, cuts[1:])] + [np.array([b_])])
    lo, hi = edges[:-1, None], edges[1:, None]
    return ((lo + hi) / 2 + (hi - lo) / 2 * x).ravel(), ((hi - lo) / 2 * w).ravel()


def _kinks(total: float, scales) -> list[float]:
    """t with (total - t) / c an integer m >= 1, for each scale c."""
    return [total - m * c for c in scales for m in range(1, int(total / c) + 2)]


def pd_reference(table, box) -> float:
    """PD box probability: the innermost coordinate in closed form,
    int_a^b rho((1-s)/t - 1) dt/t = rho((1-s)/b) - rho((1-s)/a),
    the outer ones by split Gauss-Legendre."""
    (a1, *_), ups = box.t, box.upper()
    ak, bk = box.t[-1], ups[-1]

    def inner(s):
        return b.rho(table, (1.0 - s) / bk) - b.rho(table, (1.0 - s) / ak)

    if box.k == 1:
        return float(inner(np.zeros(1))[0])
    if box.k == 2:
        t, w = _gl_pieces(a1, ups[0], _kinks(1.0, (ak, bk)), 16)
        return float(np.sum(w * inner(t) / t))
    assert box.k == 3
    a2, b2 = box.t[1], ups[1]
    outer_breaks = _kinks(1.0 - a2, (ak, bk)) + _kinks(1.0 - b2, (ak, bk))
    t1s, w1s = _gl_pieces(a1, ups[0], outer_breaks, 8)
    total = 0.0
    for t1, w1 in zip(t1s.tolist(), w1s.tolist()):
        t2, w2 = _gl_pieces(a2, b2, _kinks(1.0 - t1, (ak, bk)), 4)
        total += w1 * float(np.sum(w2 * inner(t1 + t2) / (t1 * t2)))
    return total


# ---------------------------------------------------------------------------
# families

def pin_suite(cfg):
    exact = None
    family = []
    for seed in SUITE_SEEDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.dispatch(["suite", "--name", cfg["bundle"], "--seed", str(seed)])
        report = json.loads(buf.getvalue())
        assert rc == 0 and report["passed"], f"suite fails at seed {seed}"
        counts = worker.exact_counts(report["results"])
        assert exact in (None, counts), "exact counts depend on the seed"
        exact = counts
        family.append({"seed": seed})
    # the report carries both exact routes side by side; they must agree
    for res in report["results"]:
        for case in res.get("cases", ()):
            assert case["count_exact"] == case["count_psi"]
        if "exact_routes_agree" in res:
            assert res["exact_routes_agree"]
    return dict(cfg, exact=exact, family=family)


def pin_psi(cfg):
    y, box = cfg["y"], b.BoxSpec.from_string(cfg["box"])
    sieve = b.build_sieve(cfg["sieve"])
    ind = IndependentPsi(y)
    xs = [cfg["x0"] + i * cfg["dx"] for i in range(FAMILY)]
    ns = [cfg["n0"] - i * cfg["dn"] for i in range(FAMILY)]
    big = b.build_sieve(max(xs + ns)) if max(xs + ns) <= 10**8 else None
    family = []
    for x, n in zip(xs, ns):
        psi = b.psi_exact(x, y)
        assert psi == ind(x, y), f"independent Psi disagrees at x={x}"
        count = b.box_probability_via_psi(sieve, n, box).count
        assert count == box_count_independent(ind, n, box), f"box disagrees at n={n}"
        if big is not None:
            assert psi == b.psi_bruteforce(big, x, y)
            assert count == b.box_probability_exact(big, n, box).count
        family.append({"x": x, "psi": psi, "n": n, "box_count": count})
        print(f"  psi_large x={x} psi={psi} n={n} count={count}", file=sys.stderr)
    fields = {k: v for k, v in cfg.items() if k in ("y", "sieve", "box")}
    return dict(fields, family=family)


def pin_scan(cfg):
    n = cfg["n"]
    sieve = b.build_sieve(n)
    table = b.build_rho_table()
    counts = {}

    def exact(spec, m):
        if (spec, m) not in counts:
            box = b.BoxSpec.from_string(spec)
            c = b.box_probability_exact(sieve, m, box).count
            assert c == b.box_probability_via_psi(sieve, m, box).count, (spec, m)
            counts[spec, m] = c
        return counts[spec, m]

    family = []
    for i, seed in enumerate(MC_SEEDS):
        box2, box3, crit = BOXES2[i % 4], BOXES3[i % 4], CRIT_BOXES[i % 4]
        # the criterion is asymptotic: at finite n an admissible box may miss
        # its lower bound, so the verdicts are pinned rather than assumed
        report = b.run_criterion(sieve, table, cfg["ladder"], b.BoxSpec.from_string(crit),
                                 b.BoxCriterion(epsilon=cfg["epsilon"], k=2),
                                 budget=cfg["budget"], seed=seed,
                                 exact_threshold=cfg["exact_threshold"])
        family.append({"crit_verdicts": [e["verdict"] for e in report.to_dict()["entries"]],
                       "box2": box2, "count2": exact(box2, n),
                       "box3": box3, "count3": exact(box3, n), "crit_box": crit,
                       "crit_counts": {str(m): exact(crit, m) for m in cfg["ladder"]},
                       "seed": seed})
    return dict(cfg, family=family)


def pin_pd(cfg):
    table = b.build_rho_table()
    ref2, ref3 = (pd_reference(table, b.BoxSpec.from_string(s)) for s in (PD_BOX2, PD_BOX3))
    family = [{"box2": PD_BOX2, "ref2": ref2, "box3": PD_BOX3, "ref3": ref3, "seed": seed}
              for seed in MC_SEEDS]
    return dict(cfg, family=family)


PINNERS = {"suite_all": pin_suite, "psi_large": pin_psi, "scan_mc": pin_scan,
           "pd_quad": pin_pd}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", choices=("full", "smoke", "both"), default="both")
    ap.add_argument("--workload", choices=sorted(PINNERS), action="append",
                    help="pin only these workloads (repeatable); default all")
    args = ap.parse_args(argv)
    sizes = ("smoke", "full") if args.size == "both" else (args.size,)
    path = HERE / "pins.json"
    pins = json.loads(path.read_text()) if path.is_file() else {}
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    for workload in args.workload or PINNERS:
        for size in sizes:
            print(f"pinning {workload} {size}", file=sys.stderr)
            cfg = PINNERS[workload](CONFIG[workload][size])
            for i, entry in enumerate(cfg["family"]):
                res = worker.run(workload, cfg, entry, False, per_layer)
                assert not res["failures"], (workload, size, i, res["failures"])
            pins.setdefault(workload, {})[size] = cfg
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
