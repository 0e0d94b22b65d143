"""Benchmark runner: one workload (or all), timed, checked and reported.

    python3 bench/run.py --workload suite_all --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --size smoke --seconds 1

Each repetition runs ``bench/worker.py`` in a fresh single-threaded
interpreter, one after another, until ``--seconds`` have passed (at least
MIN_REPS times).  The seed picks one member of the workload's pinned input
family in ``bench/pins.json``.  Every output is checked against its oracle,
and repetitions must agree bit for bit.  Metrics are medians over the
repetitions, with times in reference seconds (see CALIBRATION_REF_S in
worker.py).  The last stdout line is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json under ``--trace 0`` and its
per-layer metrics under ``--trace 1``.  The runner itself is stdlib only.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_REPS = 2
#: a run stops starting repetitions once one more could pass this many seconds
DEADLINE_S = 160.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_rep(workload, entry, size, trace, timeout) -> tuple[dict | None, str]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--entry", str(entry), "--size", size, "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # subprocess.run kills and reaps the child
        return None, f"repetition exceeded {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(lines[-1]), ""
    except ValueError:
        return None, f"worker printed no result: {lines[-1][:200]}"


def run_workload(workload, seed, seconds, trace, size, spec, pins) -> dict | None:
    """Repeat one workload; return the result object, or None if no
    repetition produced one."""
    family = pins[workload][size]["family"]
    entry = seed % len(family)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    reps, failures, digests = [], [], []
    attempted = crashed = 0
    start = time.perf_counter()
    longest = 0.0
    while len(reps) + crashed < MIN_REPS or time.perf_counter() - start < seconds:
        elapsed = time.perf_counter() - start
        if crashed > len(reps) or (reps and elapsed + longest > DEADLINE_S):
            break
        t = time.perf_counter()
        rep, err = run_rep(workload, entry, size, trace, DEADLINE_S + 10 - elapsed)
        longest = max(longest, time.perf_counter() - t)
        if rep is None:
            attempted += 1
            crashed += 1
            failures.append(err)
            continue
        attempted += rep["attempted"]
        failures.extend(rep["failures"])
        print(f"{workload} repetition {len(reps)}: " + json.dumps(rep["metrics"])
              + " unscaled " + json.dumps(rep["raw"]), file=sys.stderr)
        digests.append(rep["digest"])
        reps.append(rep)
    if not reps:
        for err in failures:
            print(f"{workload}: {err}", file=sys.stderr)
        return None
    # determinism: every repetition with this seed gives the same outputs
    for i, d in enumerate(digests[1:], start=1):
        attempted += 1
        if d != digests[0]:
            failures.append(f"repetition {i} differs from repetition 0 (digest {d[:12]} "
                            f"vs {digests[0][:12]})")
    for err in failures:
        print(f"{workload}: FAILED {err}", file=sys.stderr)
    metrics = {name: statistics.median(r["metrics"][name] for r in reps) for name in names}
    raw = {name: statistics.median(r["raw"][name] for r in reps) for name in reps[0]["raw"]}
    meta = {"workload": workload, "seed": seed, "entry": entry, "size": size,
            "repetitions": len(reps), "unscaled_medians": raw, "commit": commit(),
            "python": platform.python_version(), "numpy": reps[0]["numpy"],
            "nproc": os.cpu_count()}
    return {"meta": meta, "correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads + ["all"], required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: small inputs with their own pins, for the tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "billingsley" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pins = json.loads((HERE / "pins.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    chosen = workloads if args.workload == "all" else [args.workload]
    results = {}
    for workload in chosen:
        res = run_workload(workload, args.seed, args.seconds, args.trace, args.size,
                           spec, pins)
        if res is None:
            return 1
        results[workload] = res
        print(json.dumps({"meta": res["meta"]}))
        for name, value in res["metrics"].items():
            print(f"{workload:10s} {name:45s} {value:16.6f} {units[name]}")
    prefix = len(chosen) > 1
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {(f"{w}.{name}" if prefix else name): {"value": v, "unit": units[name]}
                    for w, r in results.items() for name, v in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
