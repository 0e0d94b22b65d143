"""Command-line entry point.

Exit codes: 0 success, 1 domain/numerical/resource error, 2 usage error.
When --out (or --report) is given, the output goes to that file alone, and
the file holds the bytes the same command prints without it.  All
randomized subcommands take an explicit --seed (default 42) and are bitwise
reproducible, however many CPUs the process may use.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

from . import __version__
from .convergence import BoxCriterion, run_criterion
from .dickman import DEFAULT_U_MAX, NODES_PER_UNIT, DickmanTable, build_rho_table, rho
from .errors import BillingsleyError, ParameterError, ResourceError, check_memory
from .factor_stats import (BoxSpec, box_probability_exact, box_probability_via_psi,
                           prime_bounds, sample_box_probability, sample_factor_vectors)
from .pd_process import (DEFAULT_TRUNCATION, _chunk_rows, pd_box_probability_refined,
                         pd_density, pd_sample_batch)
from .primes import build_sieve, mertens_constant_estimate, mertens_sum, power_floor
from .rng import DEFAULT_SEED
from .smoothcount import psi_bruteforce, psi_dickman, psi_exact
from .suite import BUNDLES, SIEVE_LIMIT, run_suite


#: most sticks (rows times truncation) one pd-sample run draws: the output
#: streams, so no memory bound refuses a larger count; this is about 6.5
#: minutes at truncation 60 and --k 1 on 2 vCPUs (2.7 us a row, most of it
#: formatting)
_MAX_PD_SAMPLE_DRAWS = 1 << 33

#: sample-factors formats this many rows of its CSV at a time
_CSV_ROWS = 1 << 14


def _emit(text: str, out: str | None) -> None:
    _emit_pieces(iter(([text],)), out)


def _emit_pieces(pieces, out: str | None) -> None:
    """Write each piece, a list of strings, in order to the --out file or to
    stdout.  The first piece is made before the file is opened, so that a
    command refused before its first output leaves no file."""
    first = next(pieces)
    with (open(out, "w", encoding="utf-8") if out
          else contextlib.nullcontext(sys.stdout)) as f:
        f.writelines(first)
        for piece in pieces:
            f.writelines(piece)


def _table_csv(table: DickmanTable) -> str:
    """One row per node up to u_max, zeros past the nodes the table stores."""
    rows = table.u_max * NODES_PER_UNIT + 1  # a float, so it cannot overflow
    check_memory(160.0 * rows, f"a rho table CSV to u = {table.u_max:g}")  # measured 145 a row
    values = table.cells[0].tolist()
    values += [0.0] * (math.ceil(table.u_max * NODES_PER_UNIT) + 1 - len(values))
    lines = [f"# u_max={table.u_max!r} spacing={1 / NODES_PER_UNIT!r}", "u,rho"]
    for j, v in enumerate(values):
        lines.append(f"{j / NODES_PER_UNIT!r},{v!r}")
    return "\n".join(lines) + "\n"


def _rho_table_reaching(reach: float) -> DickmanTable:
    """A table past `reach`, the largest rho argument a command reads, by a
    unit that absorbs rounding against the library's own checks; the
    default table for a reach that is not finite, which rho then refuses."""
    if not math.isfinite(reach):
        return build_rho_table()
    return build_rho_table(max(DEFAULT_U_MAX, reach + 1.0))


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_rho(args) -> int:
    table = _rho_table_reaching(args.u)
    _emit(f"{rho(table, args.u):.{args.digits}f}\n", args.out)
    return 0


def _cmd_rho_table(args) -> int:
    table = build_rho_table(args.umax)
    _emit(_table_csv(table), args.out)
    return 0


def _cmd_mertens(args) -> int:
    if args.x is not None:
        sieve = build_sieve(max(args.x, 2))
        value = mertens_constant_estimate(sieve, args.x)
    else:
        a, b = args.range
        sieve = build_sieve(max(b, 2))
        value = mertens_sum(sieve, a, b)
    _emit(f"{value:.{args.digits}f}\n", args.out)
    return 0


def _cmd_psi(args) -> int:
    if args.method == "brute":
        sieve = build_sieve(max(args.x, 2))
        value = psi_bruteforce(sieve, args.x, args.y)
        text = f"{value}\n"
    elif args.method == "exact":
        value = psi_exact(args.x, args.y)
        text = f"{value}\n"
    else:
        # log x / log y, or 0 where psi_dickman refuses (x, y) unread
        ok = args.x >= args.y >= 2
        table = _rho_table_reaching(math.log(args.x) / math.log(args.y) if ok else 0.0)
        value = psi_dickman(table, args.x, args.y)
        text = f"{value:.{args.digits}f}\n"
    _emit(text, args.out)
    return 0


def _cmd_psi_ladder(args) -> int:
    if args.nmax < args.nmin:
        raise ParameterError(f"empty ladder: --nmax {args.nmax} is below --nmin {args.nmin}")
    table = _rho_table_reaching(args.t)
    rho_t = rho(table, args.t)
    lines = ["n,psi,psi_over_n,rho,abs_err"]
    n = args.nmin
    while n <= args.nmax:  # by decades
        y = power_floor(n, 1.0 / args.t)
        psi = psi_exact(n, max(y, 1))
        ratio = psi / n
        lines.append(f"{n},{psi},{ratio!r},{rho_t!r},{abs(ratio - rho_t)!r}")
        n *= 10
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_box(args) -> int:
    box = BoxSpec.from_string(args.box)
    if args.method == "psi":  # needs primes only up to the top coordinate's range
        box.require_inside_u()
        sieve = build_sieve(max(prime_bounds(args.n, box)[0][1], 2))
    else:
        sieve = build_sieve(max(args.n, 2))
    if args.method == "mc":
        est = sample_box_probability(sieve, args.n, box, args.samples, seed=args.seed)
        payload = {"count": est.hits, "total": est.total, "p_hat": est.p_hat,
                   "std_err": est.std_err}
    else:
        route = box_probability_exact if args.method == "exact" else box_probability_via_psi
        est = route(sieve, args.n, box)
        payload = {"count": est.count, "total": est.total, "p_hat": est.value}
    _emit(_json_text(payload), args.out)
    return 0


def _sample_factors_csv(args):
    """The sample-factors CSV: the header once the rows are drawn, then
    _CSV_ROWS rows at a time, so that one chunk's text is held at once."""
    sieve = build_sieve(max(args.n, 2))
    rows = sample_factor_vectors(sieve, args.n, args.count, args.k, seed=args.seed)
    yield ["N," + ",".join(f"p{i+1}" for i in range(args.k))
           + "," + ",".join(f"L{i+1}" for i in range(args.k)) + "\n"]
    for lo in range(0, rows.size, _CSV_ROWS):
        part = rows[lo: lo + _CSV_ROWS]
        yield [f"{N}," + ",".join(map(str, p)) + "," + ",".join(map(repr, L)) + "\n"
               for N, p, L in zip(part.N.tolist(), part.p.tolist(), part.L.tolist())]


def _cmd_sample_factors(args) -> int:
    _emit_pieces(_sample_factors_csv(args), args.out)
    return 0


def _pd_sample_csv(args):
    """The pd-sample CSV lines, one chunk of _chunk_rows rows at a time: each
    chunk's k largest sticks are drawn through pd_sample_batch's `start` and
    released once formatted, so memory holds one chunk's sticks and text
    however large the count."""
    if args.count * args.trunc > _MAX_PD_SAMPLE_DRAWS:
        raise ResourceError(f"{args.count} rows at truncation {args.trunc} are more "
                            f"than the cap of {_MAX_PD_SAMPLE_DRAWS} sticks")
    k = min(args.k, args.trunc)
    lines = [",".join(f"c{i+1}" for i in range(k)) + "\n"]
    step = _chunk_rows(args.trunc)
    for lo in range(0, args.count, step):
        rows = pd_sample_batch(args.seed, min(step, args.count - lo), args.trunc,
                               start=lo, k=k)[0].tolist()
        lines += [",".join(map(repr, row)) + "\n" for row in rows]
        yield lines
        lines = []


def _cmd_pd_sample(args) -> int:
    _emit_pieces(_pd_sample_csv(args), args.out)
    return 0


def _cmd_pd_density(args) -> int:
    try:
        point = [float(v) for v in args.point.split(",")]
    except ValueError:
        raise ParameterError(f"bad point {args.point!r}, want 't1,t2,...'") from None
    # the density reads rho at (1 - sum t)/t_k, and only inside U
    inside = (point[-1] > 0 and sum(point) < 1
              and all(a > b for a, b in zip(point, point[1:])))
    table = _rho_table_reaching((1.0 - sum(point)) / point[-1] if inside else 0.0)
    _emit(f"{pd_density(table, point):.{args.digits}f}\n", args.out)
    return 0


def _cmd_pd_box(args) -> int:
    box = BoxSpec.from_string(args.box)
    box.require_inside_u()
    # the closed form reads rho one unit past the density's own argument
    table = _rho_table_reaching(box.u0() + 1.0)
    value, err = pd_box_probability_refined(table, box, grid=args.grid)
    _emit(_json_text({"value": value, "error_estimate": err}), args.out)
    return 0


def _cmd_verify(args) -> int:
    box = BoxSpec.from_string(args.box)
    ladder = args.ladder
    # every entry is counted exactly: by the scan where the sieve reaches n,
    # and past SIEVE_LIMIT through the prime-tuple identity, which needs
    # primes only up to the top coordinate's bound
    box.require_inside_u()
    top = prime_bounds(max(ladder), box)[0][1]
    sieve = build_sieve(max(10**4, top, *(n for n in ladder if n <= SIEVE_LIMIT)))
    table = _rho_table_reaching(box.u0())
    crit = BoxCriterion(epsilon=args.epsilon, k=box.k)
    report = run_criterion(sieve, table, ladder, box, crit)
    payload = {"version": __version__, "command": "verify",
               "config": {"epsilon": args.epsilon, "ladder": ladder},
               "results": report.to_dict()}
    _emit(_json_text(payload), args.report)
    return 0 if report.all_pass() else 1


def _cmd_suite(args) -> int:
    report, passed = run_suite(args.name, seed=args.seed)
    _emit(_json_text(report), args.report)
    if not passed:
        first = next(r["name"] for r in report["results"] if not r["passed"])
        print(f"FAILED: {first}", file=sys.stderr)
    return 0 if passed else 1


def _count(value: str) -> int:
    """An exact integer literal, or a finite float literal with an integral
    value such as 1e7."""
    try:
        return int(value)
    except ValueError:
        pass
    try:
        v = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {value!r}") from None
    if not (math.isfinite(v) and v.is_integer()):
        raise argparse.ArgumentTypeError(f"not a finite integer: {value!r}")
    return int(v)


def _ladder(value: str) -> list[int]:
    """Comma-separated _positive_count entries."""
    return [_positive_count(v) for v in value.split(",")]


def _positive_count(value: str) -> int:
    """A _count of at least 1, refused before any sieve is built."""
    n = _count(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def _digits(value: str) -> int:
    """A _count in [0, 1074]: decimal places of a formatted number; a
    float64's exact decimal expansion ends within 1074 places."""
    n = _count(value)
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    if n > 1074:
        raise argparse.ArgumentTypeError("must be <= 1074")
    return n


def _positive_float(value: str) -> float:
    """A finite float literal above 0."""
    try:
        v = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {value!r}") from None
    if not (math.isfinite(v) and v > 0):
        raise argparse.ArgumentTypeError("must be finite and > 0")
    return v


def _add_common(sub, *, digits=True, out=True, seed=False):
    if digits:
        sub.add_argument("--digits", type=_digits, default=6,
                         help="decimal places for human-readable numbers")
    if out:
        sub.add_argument("--out", default=None,
                         help="write the output to this file instead of stdout")
    if seed:
        sub.add_argument("--seed", type=int, default=DEFAULT_SEED)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="billingsley",
        description="Dickman function, smooth-number counts, prime-factor "
                    "statistics, Poisson-Dirichlet sampling, and the box "
                    "criterion harness.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("rho", help="evaluate the Dickman function")
    s.add_argument("--u", type=float, required=True)
    _add_common(s)
    s.set_defaults(fn=_cmd_rho)

    s = subs.add_parser("rho-table", help="write the rho grid as CSV")
    s.add_argument("--umax", type=float, default=DEFAULT_U_MAX,
                   help="last u of the grid")
    _add_common(s, digits=False)
    s.set_defaults(fn=_cmd_rho_table)

    s = subs.add_parser("mertens", help="prime-reciprocal sums")
    which = s.add_mutually_exclusive_group(required=True)
    which.add_argument("--x", type=_count, default=None,
                       help="print sum_{p<=x} 1/p - log log x")
    which.add_argument("--range", type=_count, nargs=2, metavar=("A", "B"), default=None,
                       help="print sum of 1/p over primes in [A, B]")
    _add_common(s)
    s.set_defaults(fn=_cmd_mertens)

    s = subs.add_parser("psi", help="count y-smooth integers up to x")
    s.add_argument("--x", type=_count, required=True)
    s.add_argument("--y", type=_count, required=True)
    s.add_argument("--method", choices=("brute", "exact", "dickman"), default="exact")
    _add_common(s)
    s.set_defaults(fn=_cmd_psi)

    s = subs.add_parser("psi-ladder", help="Psi(n, n^{1/t})/n versus rho(t) by decades")
    s.add_argument("--t", type=_positive_float, default=2.0)
    s.add_argument("--nmin", type=_positive_count, default=10**4)
    s.add_argument("--nmax", type=_count, required=True)
    _add_common(s, digits=False)
    s.set_defaults(fn=_cmd_psi_ladder)

    s = subs.add_parser("box", help="probability that ranked factors fall in a box")
    s.add_argument("--n", type=_positive_count, required=True)
    s.add_argument("--box", required=True, help="'t1,dt1;t2,dt2;...'")
    s.add_argument("--method", choices=("exact", "psi", "mc"), default="exact")
    s.add_argument("--samples", type=_positive_count, default=10**5)
    _add_common(s, digits=False, seed=True)
    s.set_defaults(fn=_cmd_box)

    s = subs.add_parser("sample-factors", help="draw integers and rank their factors")
    s.add_argument("--n", type=_positive_count, required=True)
    s.add_argument("--count", type=_positive_count, required=True)
    s.add_argument("--k", type=_positive_count, default=3)
    _add_common(s, digits=False, seed=True)
    s.set_defaults(fn=_cmd_sample_factors)

    s = subs.add_parser("pd-sample", help="ranked stick-breaking samples as CSV")
    s.add_argument("--count", type=_positive_count, required=True)
    s.add_argument("--trunc", type=_positive_count, default=DEFAULT_TRUNCATION)
    s.add_argument("--k", type=_positive_count, default=5)
    _add_common(s, digits=False, seed=True)
    s.set_defaults(fn=_cmd_pd_sample)

    s = subs.add_parser("pd-density", help="Poisson-Dirichlet density at a point")
    s.add_argument("--point", required=True, help="'t1,t2,...'")
    _add_common(s)
    s.set_defaults(fn=_cmd_pd_density)

    s = subs.add_parser("pd-box", help="integral of the PD density over a box")
    s.add_argument("--box", required=True)
    s.add_argument("--grid", type=_positive_count, default=256,
                   help="lattice resolution: the outer coordinates' sum is stepped by "
                        "min(2^-10, t_k)/GRID, so by 2^-18 at the default when t_k >= 2^-10")
    _add_common(s, digits=False)
    s.set_defaults(fn=_cmd_pd_box)

    s = subs.add_parser("verify", help="box-criterion harness along an n-ladder")
    s.add_argument("--box", required=True)
    s.add_argument("--epsilon", type=float, default=0.25)
    s.add_argument("--ladder", type=_ladder, required=True, help="'1e4,1e5,1e6'")
    s.add_argument("--report", default=None)
    _add_common(s, digits=False, out=False)
    s.set_defaults(fn=_cmd_verify)

    s = subs.add_parser("suite", help="run a named verification bundle")
    s.add_argument("--name", choices=BUNDLES, required=True)
    s.add_argument("--report", default=None)
    _add_common(s, digits=False, out=False, seed=True)
    s.set_defaults(fn=_cmd_suite)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except BillingsleyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
