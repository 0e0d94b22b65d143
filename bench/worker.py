"""One repetition of one benchmark workload, in a fresh interpreter.

Run by ``bench/run.py``, once per repetition, so that process-global state in
the library (the Psi memo, the internal prime list, lazily built tables)
starts cold every time.  Prints one JSON line: the end-to-end timings or the
per-layer trace, the oracle verdicts, and digests that run.py compares across
repetitions to check determinism.

    python3 bench/worker.py --workload scan_mc --entry 0 --size smoke --trace 0
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import inspect
import io
import json
import math
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

#: Monte Carlo and sampler frequencies must lie within this many sigmas
SIGMAS = 4.0
#: a PD quadrature value may miss its reference by this many stated error
#: estimates, or by the absolute floor (the reference's own accuracy)
PD_ERR_FACTOR = 4.0
PD_ABS_FLOOR = 1e-8

#: best-of-3 time of calibration_loop() on the reference machine when quiet
#: (2-vCPU Intel Xeon VM, Python 3.11.7).  The host's other tenants slow a
#: vCPU by up to half for minutes at a time; timing the loop on the same core
#: right before set-up and right after the body and scaling every time by
#: CALIBRATION_REF_S / (its mean) reports seconds at the reference speed.
CALIBRATION_REF_S = 0.045

#: public library name -> per-layer metric prefix, plus the work one call does
#: (from its bound arguments) for the layers that report a rate or a count
TRACED = {
    "build_sieve": ("primes.build_sieve", None),
    "build_rho_table": ("dickman.build_rho_table", None),
    "psi_exact": ("smoothcount.psi_exact", None),
    "box_probability_exact": ("factor_stats.box_probability_exact", None),
    "box_probability_via_psi": ("factor_stats.box_probability_via_psi", None),
    "sample_box_probability": ("factor_stats.sample_box_probability",
                               lambda a: a["samples"]),
    "sample_factor_vectors": ("factor_stats.sample_factor_vectors",
                              lambda a: a["count"]),
    "run_criterion": ("convergence.run_criterion", None),
    "pd_box_probability_refined": (
        "pd_process.pd_box_probability_refined",
        lambda a: a["grid"] ** a["box"].k + (2 * a["grid"]) ** a["box"].k),
    "pd_sample_batch": ("pd_process.pd_sample_batch",
                        lambda a: a["count"] * a["truncation"]),
}


class Checks:
    """Oracle verdicts of one repetition."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, what: str, ok: bool, detail="") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}")

    def equal(self, what: str, got, want) -> None:
        self.expect(what, got == want, f"got {got!r}, want {want!r}")

    def within_sigmas(self, what: str, hits: int, draws: int, p: float) -> None:
        sigma = math.sqrt(draws * p * (1.0 - p))
        self.expect(what, abs(hits - draws * p) <= SIGMAS * max(sigma, 1.0),
                    f"{hits} hits of {draws}, expected {draws * p:.1f} +- {sigma:.1f}")


class Tracer:
    """Spans around calls into the library, summed per name.

    A call nested in a span of the same name (recursion) adds no time of its
    own, so each total is the wall time spent inside that layer.
    """

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.work: dict[str, int] = defaultdict(int)
        self.results: dict[str, list] = defaultdict(list)
        self._depth: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, work=None, keep=False):
        sig = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = self._depth[name] == 0
            self._depth[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._depth[name] -= 1
            if outer:
                self.seconds[name] += time.perf_counter() - start
                if work:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.work[name] += work(bound.arguments)
                if keep:
                    self.results[name].append(result)
            return result

        return traced

    def install(self, package, suite) -> None:
        """Wrap the traced public names where the benchmark and the suite's
        checks call them, and every entry of suite.CHECKS."""
        for public, (name, work) in TRACED.items():
            original = getattr(package, public)
            wrapped = self.wrap(name, original, work, keep=public == "build_sieve")
            for module in (package, suite):
                if getattr(module, public, None) is original:
                    setattr(module, public, wrapped)
        suite.CHECKS = tuple((bundle, self.wrap(f"suite.{fn.__name__}", fn))
                             for bundle, fn in suite.CHECKS)

    def metrics(self, per_layer: list[str], scale: float) -> dict[str, float]:
        """Every per-layer metric, times multiplied by scale; a layer this
        workload never calls reads 0."""
        out = {f"{name}.s": s * scale for name, s in self.seconds.items()}

        def rate(name):
            s = self.seconds.get(name, 0.0) * scale
            return self.work[name] / s if s > 0 else 0.0

        out["factor_stats.mc_draws_per_s"] = rate("factor_stats.sample_box_probability")
        out["factor_stats.factor_rows_per_s"] = rate("factor_stats.sample_factor_vectors")
        out["pd_process.sticks_per_s"] = rate("pd_process.pd_sample_batch")
        out["pd_process.density_evals"] = float(
            self.work["pd_process.pd_box_probability_refined"])
        out["primes.sieve_bytes"] = float(sum(
            _array_bytes(s) for s in self.results["primes.build_sieve"]))
        return {name: float(out.get(name, 0.0)) for name in per_layer}


def _array_bytes(obj) -> int:
    """Bytes held in the numpy arrays among an object's attributes."""
    import numpy as np
    return sum(v.nbytes for v in getattr(obj, "__dict__", {}).values()
               if isinstance(v, np.ndarray))


def calibration_loop() -> float:
    """Seconds for a fixed mix of integer arithmetic, dict stores and a keyed
    sort: interpreter work of the kind the Psi recursion does."""
    start = time.perf_counter()
    table, x = {}, 1
    for i in range(60_000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        table[x >> 44] = i
    sorted(range(150_000), key=lambda v: (v * 2654435761) & 0xFFFFF)
    return time.perf_counter() - start


def calibration_s() -> float:
    return min(calibration_loop() for _ in range(3))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _primes_bitmap(limit: int):
    """Primality of 0..limit by plain Eratosthenes, independent of the library."""
    import numpy as np
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return flags


# ---------------------------------------------------------------------------
# workloads: setup(b, cfg, entry) -> state; body(b, cfg, entry, state) -> out;
# verify(b, cfg, entry, out, checks) -> digest

def suite_setup(b, cfg, entry):
    return None


def suite_body(b, cfg, entry, state):
    from billingsley import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.dispatch(["suite", "--name", cfg["bundle"], "--seed", str(entry["seed"])])
    return rc, buf.getvalue()


def exact_counts(node) -> list[int]:
    """The exact integers of a suite report, in report order."""
    if isinstance(node, dict):
        out = []
        for key, value in node.items():
            if key in ("count", "count_exact", "count_psi", "psi") and isinstance(value, int):
                out.append(value)
            else:
                out.extend(exact_counts(value))
        return out
    if isinstance(node, list):
        return [v for item in node for v in exact_counts(item)]
    return []


def suite_verify(b, cfg, entry, out, checks):
    rc, text = out
    checks.equal("suite exit code", rc, 0)
    try:
        report = json.loads(text)
    except ValueError as exc:
        checks.expect("suite report is JSON", False, str(exc))
        return _digest(text)
    checks.equal("suite passed", report.get("passed"), True)
    checks.equal("suite exact counts", exact_counts(report.get("results")), cfg["exact"])
    return _digest(text)


def psi_setup(b, cfg, entry):
    return b.build_sieve(cfg["sieve"])


def psi_body(b, cfg, entry, sieve):
    psi = b.psi_exact(entry["x"], cfg["y"])
    box = b.box_probability_via_psi(sieve, entry["n"], b.BoxSpec.from_string(cfg["box"]))
    return psi, box


def psi_verify(b, cfg, entry, out, checks):
    psi, box = out
    checks.equal(f"psi_exact({entry['x']}, {cfg['y']})", psi, entry["psi"])
    checks.equal(f"box via psi at n={entry['n']}", (box.count, box.total),
                 (entry["box_count"], entry["n"]))
    return _digest(psi, box.count)


def scan_setup(b, cfg, entry):
    return b.build_sieve(cfg["n"]), b.build_rho_table()


def scan_body(b, cfg, entry, state):
    sieve, table = state
    n, seed = cfg["n"], entry["seed"]
    box2 = b.BoxSpec.from_string(entry["box2"])
    box3 = b.BoxSpec.from_string(entry["box3"])
    crit_box = b.BoxSpec.from_string(entry["crit_box"])
    exact2 = b.box_probability_exact(sieve, n, box2)
    exact3 = b.box_probability_exact(sieve, n, box3)
    mc = b.sample_box_probability(sieve, n, box2, cfg["mc_draws"], seed=seed)
    rows = b.sample_factor_vectors(sieve, n, cfg["rows"], cfg["rows_k"], seed=seed)
    report = b.run_criterion(sieve, table, cfg["ladder"], crit_box,
                             b.BoxCriterion(epsilon=cfg["epsilon"], k=crit_box.k),
                             budget=cfg["budget"], seed=seed,
                             exact_threshold=cfg["exact_threshold"])
    return exact2, exact3, mc, rows, report


def check_factor_rows(cfg, rows, checks) -> bytes:
    """Each row holds the k largest prime factors of N, with multiplicity,
    descending and padded with 1, and L = log p / log n."""
    import numpy as np
    n, k = cfg["n"], cfg["rows_k"]
    N = np.array([fv.N for fv in rows], dtype=np.int64)
    p = np.array([fv.p for fv in rows], dtype=np.int64).reshape(len(rows), k)
    L = np.array([fv.L for fv in rows], dtype=np.float64).reshape(len(rows), k)
    is_prime = _primes_bitmap(n)
    ok = (N >= 1) & (N <= n) & np.all((p >= 1) & (p <= n), axis=1)
    ok &= np.all(is_prime[np.clip(p, 0, n)] | (p == 1), axis=1)
    ok &= np.all(p[:, :-1] >= p[:, 1:], axis=1)
    ok &= np.all((p[:, :-1] > 1) | (p[:, 1:] == 1), axis=1)  # padding only at the end
    prod = np.prod(p, axis=1)
    ok &= N % prod == 0
    want_L = np.where(p > 1, np.log(np.maximum(p, 2)) / math.log(n), 0.0)
    ok &= np.all(np.abs(L - want_L) <= 1e-12, axis=1)
    # the cofactor N / prod p must be 1 after padding, else p_k-smooth
    last = p[:, -1]
    cof = N // np.maximum(prod, 1)
    rest = np.flatnonzero(cof > 1)
    c, lim = cof[rest], last[rest]
    for q in np.flatnonzero(is_prime[: math.isqrt(n) + 1]).tolist():
        hit = (c % q == 0) & (q <= lim)
        while hit.any():
            c[hit] //= q
            hit = (c % q == 0) & (q <= lim)
    cof[rest] = c
    ok &= (cof == 1) | ((last > 1) & (cof <= last) & is_prime[np.clip(cof, 0, n)])
    bad = np.flatnonzero(~ok)
    checks.expect("ranked factor rows", bad.size == 0,
                  f"{bad.size} bad rows, first N={int(N[bad[0]]) if bad.size else 0}")
    return N.tobytes() + p.tobytes()


def scan_verify(b, cfg, entry, out, checks):
    exact2, exact3, mc, rows, report = out
    n = cfg["n"]
    checks.equal("exact scan k=2", (exact2.count, exact2.total), (entry["count2"], n))
    checks.equal("exact scan k=3", (exact3.count, exact3.total), (entry["count3"], n))
    checks.equal("MC draws", mc.total, cfg["mc_draws"])
    checks.within_sigmas("MC hits k=2", mc.hits, cfg["mc_draws"], entry["count2"] / n)
    rows_bytes = check_factor_rows(cfg, rows, checks)
    rep = report.to_dict()
    checks.equal("criterion verdicts", [e["verdict"] for e in rep["entries"]],
                 entry["crit_verdicts"])
    for e in rep["entries"]:
        want = entry["crit_counts"][str(e["n"])]
        if e["method"] == "exact":
            checks.equal(f"criterion exact p at n={e['n']}", e["p"], want / e["n"])
        else:
            hits = round(e["p"] * cfg["budget"])
            checks.within_sigmas(f"criterion MC at n={e['n']}", hits, cfg["budget"],
                                 want / e["n"])
    return _digest(mc.hits, rows_bytes, json.dumps(rep, sort_keys=True))


def pd_setup(b, cfg, entry):
    return b.build_rho_table()


def pd_body(b, cfg, entry, table):
    box2 = b.BoxSpec.from_string(entry["box2"])
    box3 = b.BoxSpec.from_string(entry["box3"])
    q2 = b.pd_box_probability_refined(table, box2, grid=cfg["grid2"])
    q3 = b.pd_box_probability_refined(table, box3, grid=cfg["grid3"])
    sticks, tails = b.pd_sample_batch(entry["seed"], cfg["draws"])
    return q2, q3, sticks, tails


def _in_box(sticks, box):
    import numpy as np
    inside = np.ones(len(sticks), dtype=bool)
    for i, (t, dt) in enumerate(zip(box.t, box.dt)):
        inside &= (sticks[:, i] >= t) & (sticks[:, i] <= t + dt)
    return int(np.count_nonzero(inside))


def pd_verify(b, cfg, entry, out, checks):
    import numpy as np
    (v2, err2), (v3, err3), sticks, tails = out
    for k, value, err, ref in ((2, v2, err2, entry["ref2"]), (3, v3, err3, entry["ref3"])):
        tol = max(PD_ERR_FACTOR * err, PD_ABS_FLOOR)
        checks.expect(f"PD quadrature k={k}", abs(value - ref) <= tol,
                      f"{value!r} vs reference {ref!r}, tolerance {tol:.3g}")
    draws = cfg["draws"]
    checks.equal("PD sample shape", sticks.shape[0], draws)
    mass = sticks.sum(axis=1) + tails
    checks.expect("PD sticks and tail sum to 1", bool(np.all(np.abs(mass - 1.0) <= 1e-12)),
                  f"max deviation {float(np.max(np.abs(mass - 1.0))):.3g}")
    checks.within_sigmas("PD marginal L1 <= 1/2", int(np.count_nonzero(sticks[:, 0] <= 0.5)),
                         draws, 1.0 - math.log(2.0))
    for k, ref in ((2, entry["ref2"]), (3, entry["ref3"])):
        box = b.BoxSpec.from_string(entry[f"box{k}"])
        checks.within_sigmas(f"PD sample in box k={k}", _in_box(sticks, box), draws, ref)
    return _digest(np.ascontiguousarray(sticks[:, :3]).tobytes(), tails.tobytes())


WORKLOADS = {
    "suite_all": (suite_setup, suite_body, suite_verify),
    "psi_large": (psi_setup, psi_body, psi_verify),
    "scan_mc": (scan_setup, scan_body, scan_verify),
    "pd_quad": (pd_setup, pd_body, pd_verify),
}


def run(workload: str, cfg: dict, entry: dict, trace: bool, per_layer: list[str]) -> dict:
    setup, body, verify = WORKLOADS[workload]
    cal_before = calibration_s()
    t0 = time.perf_counter()
    import billingsley as b
    from billingsley import cli, suite  # noqa: F401  (cli: part of the import cost)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(b, suite)
    state = setup(b, cfg, entry)
    t1 = time.perf_counter()
    out = body(b, cfg, entry, state)
    t2 = time.perf_counter()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calibration = (cal_before + calibration_s()) / 2
    scale = CALIBRATION_REF_S / calibration
    checks = Checks()
    digest = verify(b, cfg, entry, out, checks)
    import numpy as np
    result = {"attempted": checks.attempted, "failures": checks.failures,
              "digest": digest, "numpy": np.__version__,
              "raw": {"run_s": t2 - t1, "setup_s": t1 - t0, "calibration_s": calibration}}
    if trace:
        result["metrics"] = tracer.metrics(per_layer, scale)
    else:
        result["metrics"] = {"run_s": (t2 - t1) * scale, "setup_s": (t1 - t0) * scale,
                             "peak_rss_mb": peak_kb / 1024.0}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--entry", type=int, required=True, help="index into the pinned family")
    ap.add_argument("--size", default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    pins = json.loads((HERE / "pins.json").read_text())
    cfg = pins[args.workload][args.size]
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    result = run(args.workload, cfg, cfg["family"][args.entry], bool(args.trace), per_layer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
