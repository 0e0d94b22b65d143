"""The Dickman function and Billingsley's nested log-integrals.

rho = 1 on [0, 1], and on each unit piece [k, k+1] it is a power series in
eta = k+1-u (after Marsaglia, Zaman and Marsaglia, Math. Comp. 53, 1989):
from the previous piece's coefficients d, the delay equation
u*rho'(u) = -rho(u-1) and continuity at u = k give
c_{i+1} = (d_i + i*c_i) / ((k+1)(i+1)) and c_0 = d_0 - sum_{i>=1} c_i.  The
coefficients are positive, but c_0 cancels about log10(rho(k)/rho(k+1))
digits, so they are computed in stdlib decimal at 20 digits beyond
log10(1/rho(u_max)) and then rounded to float64.  The table holds rho at the
nodes of the grid h = 2^-12 and, per cell, the cubic Hermite polynomial with
the exact slopes rho'(u) = -rho(u-1)/u.  Pieces where rho drops below the
float64 range (from u ~ 128) are neither computed nor stored: the table ends
on one zero node, which rho reads for every u past it, so a table costs at
most about 16 MiB however large u_max is.

The H_i family integrates prod dt_j/t_j over 1 < t_1 < ... < t_i < u subject
to sum 1/t_j < 1, by recursive one-dimensional adaptive quadrature; the
reciprocal-sum constraint shrinks each inner interval analytically, and the
innermost level is the closed form log(upper/lower).  The alternating sum
1 + sum_{1<=i<u} (-1)^i H_i(u) reproduces rho(u), which the test suite checks.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from .errors import (DomainError, NumericalError, ParameterError, ResourceError,
                     check_memory)

DEFAULT_U_MAX = 20.0

#: grid nodes per unit of u; the spacing h = 2^-12 is a power of two, so the
#: integers are nodes and u/h is exact
NODES_PER_UNIT = 4096

#: series terms kept in float64 at the nodes: on every piece up to the float
#: range at most 53 are needed before the tail drops below 2^-56 of the piece's
#: smallest value (the terms are positive and eta <= 1)
_FLOAT_TERMS = 56


#: absolute tolerance and recursion depth of the adaptive Simpson rule behind
#: the H_i integrals
QUAD_TOL = 1e-10
QUAD_MAX_DEPTH = 48

#: largest u at which h_function and rho_via_alternating_sum integrate: the
#: nested quadrature costs about 5-10x more per unit of u.  In process on a
#: 2-vCPU Xeon VM, rho_via_alternating_sum took 0.07 s at u = 4.5, 0.34 s
#: at 5, 1.0 s at 5.5, 4.7 s at 6, 11.8-15.6 s at 6.5 and 133 s at 7.5, and
#: h_function(5, 6) 3.0 s against 29 s for h_function(5, 7)
H_U_MAX = 6.0


@dataclass(eq=False)
class DickmanTable:
    """rho on [0, u_max] as one cubic per cell of the grid j*h, h = 2^-12.

    cells has four rows a, b, c, d, one column per node j, and
    rho(j*h + t*h) = a + t*(b + t*(c + t*d)) for t in [0, 1].  Row a holds
    rho at the nodes: exactly 1 while j*h <= 1, then positive and
    non-increasing until rho leaves the float64 range, then one node of 0.
    The last node is the first at or past u_max, or that zero node if it
    comes first; its cell is read at t = 0 only.  cells is read-only, so a
    table can be shared freely across threads.
    """

    u_max: float
    cells: np.ndarray

    def __post_init__(self):
        self.cells.flags.writeable = False


def _piece_series(u_top: int) -> list[list[float]]:
    """Float coefficients of rho on [k, k+1] about k+1 for k = 1 .. u_top-1,
    stopping after the first piece whose rho(k+1) is below the float64 range.

    log10(1/rho(u)) < u*log10(u*log(u) + 1) for every u >= 1 sets the working
    precision, and the series are cut where 2^-terms drops below it.
    """
    digits = 20 + min(u_top * math.log10(u_top * math.log(u_top) + 1), 320)
    terms = int(3.4 * digits)
    rows = []
    with localcontext() as ctx:
        ctx.prec = int(digits)
        d = [Decimal(1)] + [Decimal(0)] * (terms - 1)  # rho = 1 on [0, 1]
        for k in range(1, u_top):
            c = [Decimal(0)] * terms
            for i in range(terms - 1):
                c[i + 1] = (d[i] + i * c[i]) / ((k + 1) * (i + 1))
            c[0] = d[0] - sum(c[1:])
            rows.append([float(v) for v in c[:_FLOAT_TERMS]])
            if c[0] < sys.float_info.min:
                break
            d = c
    return rows


def build_rho_table(u_max: float = DEFAULT_U_MAX) -> DickmanTable:
    """Tabulate rho on [0, u_max]."""
    if not (math.isfinite(u_max) and u_max >= 1):
        raise ParameterError(f"u_max must be finite and >= 1, got {u_max}")
    rows = np.array(_piece_series(math.ceil(u_max))).reshape(-1, _FLOAT_TERMS)
    # nodes up to the first zero node past the last piece; u_max is capped
    # first so that u_max * NODES_PER_UNIT cannot overflow
    last = (len(rows) + 1) * NODES_PER_UNIT + 1
    n_nodes = min(math.ceil(min(u_max, len(rows) + 2) * NODES_PER_UNIT), last) + 1
    check_memory(60.0 * n_nodes, f"a rho table of {n_nodes:.3g} nodes")  # measured peak 56

    # piece k at u = k + m*h, m = 1 .. NODES_PER_UNIT, by Horner in eta
    eta = 1.0 - np.arange(1, NODES_PER_UNIT + 1) / NODES_PER_UNIT
    grid = np.zeros((len(rows), NODES_PER_UNIT))
    for i in range(_FLOAT_TERMS - 1, -1, -1):
        grid *= eta
        grid += rows[:, i, None]
    cells = np.zeros((4, n_nodes))
    a, b, c, d = cells  # filled in place: the build peaks near the table's size
    a[:NODES_PER_UNIT + 1] = 1.0
    known = min(grid.size, n_nodes - NODES_PER_UNIT - 1)
    a[NODES_PER_UNIT + 1: NODES_PER_UNIT + 1 + known] = grid.ravel()[:known]
    del grid

    # slopes in cell units: h*rho'(j*h) = -rho(j*h - 1)/j, the right-hand
    # slope at u = 1; the cells on [0, 1] stay constant
    b[NODES_PER_UNIT:] = a[:n_nodes - NODES_PER_UNIT]
    b[NODES_PER_UNIT:] /= -np.arange(NODES_PER_UNIT, n_nodes, dtype=float)
    delta = np.diff(a)
    c[:-1] = 3.0 * delta - 2.0 * b[:-1] - b[1:]
    d[:-1] = b[:-1] + b[1:] - 2.0 * delta
    cells[2:, :NODES_PER_UNIT] = 0.0
    cells[:, a == 0.0] = 0.0  # past the float64 range
    return DickmanTable(u_max=u_max, cells=cells)


def rho(table: DickmanTable, u):
    """rho(u) from the table: exact 1 on [0, 1], the cell's cubic above.

    Accepts a scalar or an ndarray.  Arguments beyond u_max by no more than a
    few ulps are clamped; anything else is a domain error.
    """
    eps = 4.0 * np.spacing(table.u_max) + 1e-15
    arr = np.asarray(u, dtype=np.float64)
    if not (np.all(arr >= 0) and np.all(arr <= table.u_max + eps)):  # NaN fails too
        raise DomainError(f"u outside [0, {table.u_max}]")
    # past the stored nodes rho reads the last one, which is 0
    top = min(table.u_max, (table.cells.shape[1] - 1) / NODES_PER_UNIT)
    x = np.minimum(arr, top) * NODES_PER_UNIT
    j = x.astype(np.intp)
    t = x - j
    a, b, c, d = (row.take(j) for row in table.cells)
    out = a + t * (b + t * (c + t * d))
    return float(out) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# adaptive Simpson quadrature

def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _asr(f, a, fa, b, fb, eps, whole, m, fm, depth):
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * eps:
        return left + right + delta / 15.0
    if depth <= 0:
        raise NumericalError(
            f"adaptive quadrature failed to converge on [{a}, {b}] "
            f"within depth {QUAD_MAX_DEPTH}")
    return (_asr(f, a, fa, m, fm, eps / 2.0, left, lm, flm, depth - 1)
            + _asr(f, m, fm, b, fb, eps / 2.0, right, rm, frm, depth - 1))


def _adaptive_simpson(f, a, b, abs_tol):
    """Integral of f over [a, b] to abs_tol; raises NumericalError at the
    first cell that would need more than QUAD_MAX_DEPTH levels."""
    if b <= a:
        return 0.0
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)
    return _asr(f, a, fa, b, fb, abs_tol, whole, m, fm, QUAD_MAX_DEPTH)


# ---------------------------------------------------------------------------
# Billingsley's H_i functions

def _nested_log_integral(level: int, upper: float, budget: float, tol: float) -> float:
    """Integral of prod dt_j/t_j over 1 < t_1 < ... < t_level < upper with
    sum 1/t_j < budget, to about tol; each inner level gets half the tolerance
    of the one outside it."""
    if level == 0:
        return 1.0
    if budget <= 0.0:
        return 0.0
    lo = max(1.0, level / budget)  # below this the remaining region is empty
    if upper <= lo:
        return 0.0
    if level == 1:
        return math.log(upper) - math.log(lo)

    def integrand(t):
        return _nested_log_integral(level - 1, t, budget - 1.0 / t, tol * 0.5) / t

    return _adaptive_simpson(integrand, lo, upper, tol)


def _check_u(u: float) -> None:
    """Refuse u that is not finite and positive, or past H_U_MAX."""
    if not (math.isfinite(u) and u > 0):
        raise ParameterError(f"u must be finite and positive, got {u}")
    if u > H_U_MAX:
        raise ResourceError(f"u = {u:g} is past H_U_MAX = {H_U_MAX:g}; the nested "
                            "quadrature's cost grows about tenfold per unit of u")


def h_function(i: int, u: float) -> float:
    """H_i(u): H_0 = 1, and for i >= 1 the nested integral above to the
    absolute tolerance QUAD_TOL, so that the relative error grows as H_i(u)
    shrinks.

    Returns exactly 0 when u <= i, where the region is empty.  Raises
    ParameterError unless i is a non-negative int (not a bool) and u is
    finite and positive, ResourceError before any work when u > H_U_MAX,
    and NumericalError if the quadrature does not converge within
    QUAD_MAX_DEPTH levels.
    """
    if isinstance(i, bool) or not isinstance(i, int) or i < 0:
        raise ParameterError(f"index must be a non-negative int, got {i!r}")
    _check_u(u)
    if i == 0:
        return 1.0
    if u <= i:
        return 0.0
    return _nested_log_integral(i, u, 1.0, QUAD_TOL)


def rho_via_alternating_sum(u: float) -> float:
    """1 + sum_{1 <= i < u} (-1)^i H_i(u); the sum is finite since H_i(u) = 0
    for i >= u.

    Each H_i is integrated to the absolute tolerance QUAD_TOL, so the
    relative error grows as rho(u) shrinks (about 1e-7 at u = 6).  Raises
    ParameterError unless u is finite and positive, and ResourceError
    before any work when u > H_U_MAX.
    """
    _check_u(u)
    total = 1.0
    for i in range(1, math.ceil(u)):
        term = h_function(i, u)
        total += term if i % 2 == 0 else -term
    return total
