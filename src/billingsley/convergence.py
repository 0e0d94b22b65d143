"""Finite-n harness for the box criterion of weak convergence.

A closed box B inside the open support U qualifies when R * diam(B) is
smaller than the distance from B to the complement of U; the harness then
checks, along a ladder of n, that the observed probability P(X_n in B) stays
above (1 - eps) * vol(B) * inf_B f (minus a statistical margin when the
probability is itself estimated by Monte Carlo).

U is the open convex polytope {t_1 > ... > t_k > 0, sum t_i < 1}, so the
distance to its complement is the minimum over the k+1 facet half-spaces of
the point-to-hyperplane distance, and that minimum over a box is attained at
a vertex because each distance is affine per coordinate.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dickman import DickmanTable, rho
from .errors import DomainError, ParameterError
from .factor_stats import (BoxSpec, _u_facets, box_probability_exact,
                           box_probability_via_psi, sample_box_probability)
from .primes import PrimeSieve, _integer_n
from .rng import DEFAULT_SEED

#: Monte Carlo verdicts get this many standard errors of slack
STAT_MARGIN_SIGMAS = 4.0

#: inf_density_on_box bounds the density on each of INF_REFINE^k sub-boxes
INF_REFINE = 4


@dataclass(frozen=True)
class BoxCriterion:
    """Parameters of the admissibility test; R defaults to k/(2*eps)."""

    epsilon: float
    k: int
    R: float | None = None

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ParameterError("epsilon must lie in (0, 1)")
        object.__setattr__(self, "k", _integer_n(self.k, "k"))
        if self.k < 1:
            raise ParameterError("k must be >= 1")
        if self.R is None:
            object.__setattr__(self, "R", self.k / (2.0 * self.epsilon))
        if not 0 <= self.R < np.inf:  # NaN fails too
            raise ParameterError(f"R must be finite and >= 0, got {self.R}")


@dataclass(frozen=True)
class LadderEntry:
    n: int
    method: str  # "exact" or "mc"
    estimate: float
    std_err: float | None
    verdict: bool


@dataclass(frozen=True)
class ConvergenceReport:
    box: BoxSpec
    epsilon: float
    R: float
    volume: float
    inf_density: float
    lower_bound: float
    entries: tuple[LadderEntry, ...] = field(default=())
    trend: bool = False

    def all_pass(self) -> bool:
        return all(e.verdict for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "box": [list(pair) for pair in zip(self.box.t, self.box.dt)],
            "epsilon": self.epsilon,
            "R": self.R,
            "volume": self.volume,
            "inf_density": self.inf_density,
            "lower_bound": self.lower_bound,
            "entries": [
                {"n": e.n, "method": e.method, "p": e.estimate,
                 **({"std_err": e.std_err} if e.std_err is not None else {}),
                 "verdict": e.verdict}
                for e in self.entries
            ],
            "trend": self.trend,
        }


def distance_to_complement(box: BoxSpec) -> float:
    """Exact d(B, U^c): minimum facet distance over the box's vertices."""
    box.require_inside_u()
    return min(_u_facets(box.t, box.upper()))


def box_admissible(box: BoxSpec, crit: BoxCriterion) -> bool:
    """True iff R * diam(B) < d(B, U^c)."""
    if crit.k != box.k:
        raise ParameterError(f"criterion is for k={crit.k}, box has k={box.k}")
    return crit.R * box.diameter() < distance_to_complement(box)


def inf_density_on_box(table: DickmanTable, box: BoxSpec) -> float:
    """A certified lower bound on inf_B f.

    Per cell of an INF_REFINE^k subdivision, bound 1/prod t_i by the right
    endpoints and rho by its value at the largest argument (all left
    endpoints; the argument decreases in every coordinate), then take the
    minimum cell bound.  Every point of B lies in some cell, so the result
    never exceeds f anywhere on B.
    """
    box.require_inside_u()
    edges = [t + np.arange(INF_REFINE + 1) * (d / INF_REFINE)
             for t, d in zip(box.t, box.dt)]
    lows = [m.ravel() for m in np.meshgrid(*[e[:-1] for e in edges], indexing="ij")]
    highs = [m.ravel() for m in np.meshgrid(*[e[1:] for e in edges], indexing="ij")]
    inv = np.ones_like(lows[0])
    arg_num = np.ones_like(lows[0])
    for lo, hi in zip(lows, highs):
        inv /= hi
        arg_num -= lo
    return float(np.min(inv * rho(table, arg_num / lows[-1])))


def run_criterion(sieve: PrimeSieve, table: DickmanTable, ladder, box: BoxSpec,
                  crit: BoxCriterion, budget: int = 10**5, seed: int = DEFAULT_SEED,
                  exact_threshold: int = 2**31 - 1) -> ConvergenceReport:
    """Evaluate P(X_n in B) along the ladder and compare against
    (1 - eps) * vol(B) * inf_B f.

    n up to exact_threshold (by default the largest sieve limit) within the
    sieve is counted exactly by the scan, n beyond the sieve exactly by the
    prime-tuple identity (the sieve must reach their top prime bound); the n
    in between fall back to Monte Carlo with a 4-sigma margin on the verdict.
    """
    ladder = sorted(_integer_n(v) for v in ladder)
    if not box_admissible(box, crit):
        raise DomainError(
            f"box not admissible: R*diam(B) = {crit.R * box.diameter():.6g} "
            f"is not < d(B, U^c) = {distance_to_complement(box):.6g}")
    vol = box.volume()
    inf_f = inf_density_on_box(table, box)
    lower = (1.0 - crit.epsilon) * vol * inf_f
    entries = []
    for n in ladder:
        if n > sieve.limit or n <= exact_threshold:
            est = (box_probability_exact(sieve, n, box) if n <= sieve.limit
                   else box_probability_via_psi(sieve, n, box))
            entries.append(LadderEntry(n=n, method="exact", estimate=est.value,
                                       std_err=None, verdict=est.value >= lower))
        else:
            est = sample_box_probability(sieve, n, box, budget, seed=seed)
            margin = STAT_MARGIN_SIGMAS * est.std_err
            entries.append(LadderEntry(n=n, method="mc", estimate=est.p_hat,
                                       std_err=est.std_err,
                                       verdict=est.p_hat >= lower - margin))
    trend = all(b.estimate >= a.estimate for a, b in zip(entries, entries[1:]))
    return ConvergenceReport(box=box, epsilon=crit.epsilon, R=crit.R, volume=vol,
                             inf_density=inf_f, lower_bound=lower,
                             entries=tuple(entries), trend=trend)
