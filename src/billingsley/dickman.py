"""The Dickman function and Billingsley's nested log-integrals.

rho is tabulated by marching the delay equation u*rho'(u) = -rho(u-1) forward
from u = 1 with rho = 1 on [0, 1].  Because the right-hand side never involves
rho(u) itself, the fourth-order step reduces to a composite Simpson rule over
the (already tabulated) delayed values, interpolated cubically where they are
needed between grid nodes.

The H_i family integrates prod dt_j/t_j over 1 < t_1 < ... < t_i < u subject
to sum 1/t_j < 1, by recursive one-dimensional adaptive quadrature; the
reciprocal-sum constraint shrinks each inner interval analytically, and the
innermost level is the closed form log(upper/lower).  The alternating sum
1 + sum_{1<=i<u} (-1)^i H_i(u) reproduces rho(u), which the test suite checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError, ParameterError, check_memory

DEFAULT_U_MAX = 20.0
DEFAULT_STEP = 1e-4

#: positive floor for table entries once the true rho sinks below roundoff
_VALUE_FLOOR = 1e-320


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-10
    max_depth: int = 48

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ParameterError("quadrature tolerances must be positive")
        if self.max_depth < 1:
            raise ParameterError("max_depth must be at least 1")


@dataclass(eq=False)
class DickmanTable:
    """rho on the uniform grid j*step for j = 0..len(values)-1.

    values[j] = 1 exactly while j*step <= 1, strictly positive and
    non-increasing throughout.  values is read-only, so a table can be
    shared freely across threads.
    """

    u_max: float
    step: float
    values: np.ndarray

    def __post_init__(self):
        self.values.flags.writeable = False

    def rho(self, u):
        return rho(self, u)


def _lagrange4(values: np.ndarray, x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Cubic Lagrange interpolation of values at real index positions x.

    The 4-node stencil is clamped to index window [lo, hi] so it never spans
    a derivative kink of rho (the windows are the unit pieces of the grid).
    """
    i0 = np.floor(x).astype(np.int64) - 1
    i0 = np.clip(i0, lo, np.maximum(hi - 3, lo))
    xi = x - i0
    w0 = -(xi - 1) * (xi - 2) * (xi - 3) / 6.0
    w1 = xi * (xi - 2) * (xi - 3) / 2.0
    w2 = -xi * (xi - 1) * (xi - 3) / 2.0
    w3 = xi * (xi - 1) * (xi - 2) / 6.0
    return (w0 * values[i0] + w1 * values[i0 + 1]
            + w2 * values[i0 + 2] + w3 * values[i0 + 3])


def _interp_rho(values: np.ndarray, step: float, u: np.ndarray) -> np.ndarray:
    """Vectorized rho at arbitrary u in [0, grid end], piece-aware."""
    u = np.asarray(u, dtype=np.float64)
    out = np.ones_like(u)
    mask = u > 1.0
    if not np.any(mask):
        return out
    um = u[mask]
    top = len(values) - 1
    piece = np.floor(um * (1 - 1e-15)).astype(np.int64)  # unit piece containing u
    lo = np.ceil(piece / step - 1e-9).astype(np.int64)
    hi = np.floor((piece + 1) / step + 1e-9).astype(np.int64)
    np.clip(lo, 0, top, out=lo)
    np.clip(hi, 0, top, out=hi)
    # a partial top piece may hold fewer than 4 nodes; widen rather than fail
    short = hi - lo < 3
    if np.any(short):
        lo[short] = np.maximum(lo[short] - 4, 0)
    out[mask] = _lagrange4(values, um / step, lo, hi)
    return out


def build_rho_table(u_max: float = DEFAULT_U_MAX, step: float = DEFAULT_STEP) -> DickmanTable:
    """Tabulate rho on [0, u_max] with the given grid spacing."""
    if not (math.isfinite(u_max) and u_max >= 1):
        raise ParameterError(f"u_max must be finite and >= 1, got {u_max}")
    if not (0 < step <= 0.01):
        raise ParameterError(f"step must lie in (0, 0.01], got {step}")

    span = u_max / step  # may be inf for a subnormal step
    check_memory(8 * span, f"a rho table of {span:.3g} nodes")
    n_nodes = int(math.ceil(span - 1e-9)) + 1
    vals = np.ones(n_nodes)
    j1 = int(math.floor(1.0 / step + 1e-9))  # last node at u <= 1 (up to rounding)
    if j1 >= n_nodes - 1:
        return DickmanTable(u_max=u_max, step=step, values=vals)

    # crossing step: integrand is exactly 1/t above t = 1 and zero below
    vals[j1 + 1] = 1.0 - math.log((j1 + 1) * step)

    chunk = max(int(math.floor(1.0 / step)) - 4, 16)
    j = j1 + 1
    while j < n_nodes - 1:
        jb = min(j + chunk, n_nodes - 1)
        left = np.arange(j, jb) * step
        right = np.arange(j + 1, jb + 1) * step
        mid = left + 0.5 * step
        # Simpson increments of rho(t-1)/t; delayed values lie >= 1 unit back,
        # hence entirely within vals[0..j]
        g_l = _interp_rho(vals, step, left - 1.0) / left
        g_m = _interp_rho(vals, step, mid - 1.0) / mid
        g_r = _interp_rho(vals, step, right - 1.0) / right
        inc = (step / 6.0) * (g_l + 4.0 * g_m + g_r)
        vals[j + 1: jb + 1] = vals[j] - np.cumsum(inc)
        # below ~1e-14 the fixed-step integration is roundoff-limited; keep the
        # table monotone and strictly positive as the true rho is
        vals[j + 1: jb + 1] = np.maximum(vals[j + 1: jb + 1], _VALUE_FLOOR)
        np.minimum.accumulate(vals[j: jb + 1], out=vals[j: jb + 1])
        j = jb
    return DickmanTable(u_max=u_max, step=step, values=vals)


def rho(table: DickmanTable, u):
    """rho(u) from the table: exact 1 on [0, 1], cubic interpolation above.

    Accepts a scalar or an ndarray.  Arguments beyond u_max by no more than a
    few ulps are clamped; anything else is a domain error.
    """
    eps = 4.0 * np.spacing(table.u_max) + 1e-15
    arr = np.asarray(u, dtype=np.float64)
    if not (np.all(arr >= 0) and np.all(arr <= table.u_max + eps)):  # NaN fails too
        raise DomainError(f"u outside [0, {table.u_max}]")
    arr = np.minimum(arr, table.u_max)
    out = _interp_rho(table.values, table.step, arr)
    if np.isscalar(u) or arr.ndim == 0:
        return float(out)
    return out


def recursion_residual(table: DickmanTable, u: float, v: float,
                       cfg: QuadratureConfig | None = None) -> float:
    """rho(u) - rho(v) + int_v^u rho(t-1) dt/t, which should vanish.

    Valid for 0 <= u-1 <= v <= u.  For t < 1 the integrand carries no mass
    (rho has none below 0), so the integration starts at max(v, 1).
    """
    cfg = cfg or QuadratureConfig()
    if not (0 <= u - 1 <= v <= u):
        raise ParameterError("need 0 <= u-1 <= v <= u")
    a = max(v, 1.0)
    integral = 0.0
    if u > a:
        integral = _adaptive_simpson(
            lambda t: rho(table, t - 1.0) / t, a, u, cfg.abs_tol, cfg.max_depth)
    return rho(table, u) - rho(table, v) + integral


# ---------------------------------------------------------------------------
# adaptive Simpson quadrature

def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _asr(f, a, fa, b, fb, eps, whole, m, fm, depth, state):
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * eps:
        return left + right + delta / 15.0
    if depth <= 0:
        # keep the best local estimate so the caller can report a global one
        state["converged"] = False
        return left + right + delta / 15.0
    return (_asr(f, a, fa, m, fm, eps / 2.0, left, lm, flm, depth - 1, state)
            + _asr(f, m, fm, b, fb, eps / 2.0, right, rm, frm, depth - 1, state))


def _adaptive_simpson(f, a, b, abs_tol, max_depth):
    if b <= a:
        return 0.0
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)
    state = {"converged": True}
    total = _asr(f, a, fa, b, fb, abs_tol, whole, m, fm, max_depth, state)
    if not state["converged"]:
        raise NumericalError(
            f"adaptive quadrature failed to converge on [{a}, {b}] "
            f"within depth {max_depth}", partial=total)
    return total


# ---------------------------------------------------------------------------
# Billingsley's H_i functions

def _nested_log_integral(level: int, upper: float, budget: float,
                         cfg: QuadratureConfig, tol: float) -> float:
    """Integral of prod dt_j/t_j over 1 < t_1 < ... < t_level < upper with
    sum 1/t_j < budget."""
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
        return _nested_log_integral(level - 1, t, budget - 1.0 / t, cfg, tol * 0.5) / t

    return _adaptive_simpson(integrand, lo, upper, tol, cfg.max_depth)


def h_function(i: int, u: float, cfg: QuadratureConfig | None = None) -> float:
    """H_i(u): H_0 = 1, and for i >= 1 the nested integral above.

    Returns exactly 0 when u <= i, where the region is empty.
    """
    cfg = cfg or QuadratureConfig()
    if i < 0:
        raise ParameterError("index must be non-negative")
    if u <= 0:
        raise ParameterError("u must be positive")
    if i == 0:
        return 1.0
    if u <= i:
        return 0.0
    tol = max(cfg.abs_tol, cfg.rel_tol * 0.1)
    return _nested_log_integral(i, u, 1.0, cfg, tol)


def rho_via_alternating_sum(u: float, cfg: QuadratureConfig | None = None) -> float:
    """1 + sum_{1 <= i < u} (-1)^i H_i(u); the sum is finite since H_i(u) = 0
    for i >= u."""
    cfg = cfg or QuadratureConfig()
    if u <= 0:
        raise ParameterError("u must be positive")
    total = 1.0
    i = 1
    while i < u:
        term = h_function(i, u, cfg)
        total += term if i % 2 == 0 else -term
        i += 1
    return total
