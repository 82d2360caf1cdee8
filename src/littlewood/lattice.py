"""The cubic form f(x,y,z) = x(alpha*x - y)(beta*x - z) on lattice points,
the shear that straightens it, simultaneous Dirichlet search, brute-force
minimisation oracles, and the sublevel-measure check for the one-variable
cubic.

Both scans run on :func:`littlewood.cfrac.residual_minima`, the one
running-minimum loop over x: the brute-force minima take the records of
x*||x*alpha||*||x*beta||, and every Dirichlet point is read from the records
of max(||x*alpha||, ||x*beta||), which are kept per (alpha, beta) and grown
on demand.  The loop's screen only nominates candidates; each nominee is
confirmed or rejected in exact arithmetic.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .cfrac import CFSpec, ParameterError, ResidualScan, residual_minima
from .exactnum import (
    SurdSum,
    _inverse_square_floor,
    as_surdsum,
    certified_sign,
)
from . import rootfind

__all__ = [
    "ParameterError",
    "TheoremViolationError",
    "LatticePoint",
    "DirichletPoint",
    "FEval",
    "MinRecord",
    "CartanReport",
    "surdsum_of",
    "f_eval",
    "m_transform",
    "dirichlet_search",
    "brute_min_scan",
    "cartan_measure",
]

_ENCLOSURE_BITS = 128  # precision of the enclosures in an FEval and a MinRecord


class TheoremViolationError(RuntimeError):
    """A pigeonhole-guaranteed search came back empty (indicates a bug)."""


class LatticePoint(namedtuple("LatticePoint", "x y z")):
    """An integer point (x, y, z)."""

    __slots__ = ()


class DirichletPoint(namedtuple("DirichletPoint", "point N U0 V0")):
    """Simultaneous-approximation point: a LatticePoint with 1 <= x <= N and
    both residuals U0 = alpha*x - y and V0 = beta*x - z (SurdSums) at most
    1/sqrt(N) in magnitude."""

    __slots__ = ()

    @property
    def x(self) -> int:
        return self.point.x


class FEval(namedtuple("FEval", "sign magnitude vs_epsilon")):
    """Certified evaluation of f at a point: exact sign, magnitude
    enclosure (a DyadicInterval), and the trichotomy against eps,
    `vs_epsilon` = 'below' | 'equal' | 'above'."""

    __slots__ = ()


def surdsum_of(x) -> SurdSum:
    """The SurdSum of an alpha or beta given as CFSpec, SurdSum, Fraction
    or int: the one coercion of those arguments."""
    return as_surdsum(x.value() if isinstance(x, CFSpec) else x)


def f_exact(alpha, beta, x, y, z) -> SurdSum:
    """f = x*(alpha*x - y)*(beta*x - z) with exact (possibly irrational)
    coordinates."""
    x, ra, rb = m_transform(alpha, beta, (x, y, z))
    return x * ra * rb


def f_eval(alpha, beta, p: LatticePoint | Sequence, epsilon: Fraction) -> FEval:
    """Certified sign of f(p) and exact trichotomy of |f(p)| against eps,
    decided on squares (sign of f^2 - eps^2) to avoid square roots."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    x, y, z = p
    fx = f_exact(alpha, beta, x, y, z)
    sign = certified_sign(fx)
    cmp_eps = certified_sign(fx * fx - epsilon * epsilon)
    vs = "below" if cmp_eps < 0 else ("equal" if cmp_eps == 0 else "above")
    return FEval(sign, fx.interval(_ENCLOSURE_BITS).abs(), vs)


def m_transform(alpha, beta, p: LatticePoint | Sequence) -> tuple[SurdSum, SurdSum, SurdSum]:
    """(x, alpha*x - y, beta*x - z): the unimodular shear under which
    f(x,y,z) = x' * y' * z' of the image."""
    alpha_s, beta_s = surdsum_of(alpha), surdsum_of(beta)
    x, y, z = (as_surdsum(c) for c in p)
    return x, alpha_s * x - y, beta_s * x - z


@lru_cache(maxsize=32)
def _best_approximations(alpha: SurdSum, beta: SurdSum):
    """(scan, keys, points) for the running-minimum records of m(x) =
    max(||x*alpha||, ||x*beta||) over the scanned [1, scan.X], Lagarias's
    best simultaneous approximations: per record the key floor(1/m**2)
    (infinite at m = 0, a rational pair), which never decreases along the
    list, and the lattice point with its two residuals.  dirichlet_search
    grows the lists."""
    return ResidualScan((alpha, beta), "max"), [], []


def dirichlet_search(alpha, beta, N: int) -> DirichletPoint:
    """Smallest x in [1, N] whose nearest-integer residuals for alpha and
    beta are both at most 1/sqrt(N), residual comparisons exact (squared:
    residual^2 <= 1/N).

    Every earlier x has a larger m(x) = max(||x*alpha||, ||x*beta||), so the
    answer is the first running-minimum record of m with m(x)**2 <= 1/N,
    that is with N <= floor(1/m(x)**2).  The records of each (alpha, beta)
    are cached; a query that none of them answers extends the scan, one
    dyadic block [X + 1, 2X + 1] at a time, toward max(N, 2 * X) from the
    scanned X, and stops at the first block with a record that answers it.
    Existence for N >= 2 is a Minkowski/pigeonhole guarantee, so an empty
    result raises TheoremViolationError.
    """
    if N < 2:
        raise ParameterError("N must be >= 2")
    alpha, beta = surdsum_of(alpha), surdsum_of(beta)
    scan, keys, points = _best_approximations(alpha, beta)
    target = max(N, 2 * scan.X)
    i = bisect_left(keys, N)
    while i == len(keys) and scan.X < target:
        for x, m, ((ya, ua), (yb, ub)) in residual_minima(scan, min(2 * scan.X + 1, target)):
            keys.append(_inverse_square_floor(m, 1, math.inf))
            points.append((LatticePoint(x, ya, yb), ua, ub))
        i = bisect_left(keys, N, i)
    if i == len(keys) or points[i][0].x > N:
        raise TheoremViolationError(f"no Dirichlet point for N={N}; this is a bug")
    point, ua, ub = points[i]
    return DirichletPoint(point, N, ua, ub)


class MinRecord(namedtuple("MinRecord", "x lo hi value")):
    """A new running minimum of x * ||x*alpha|| * ||x*beta||: its exact
    value and rational bounds lo <= value <= hi."""

    __slots__ = ()


def brute_min_scan(alpha, beta, X: int) -> list[MinRecord]:
    """Every x in [1, X] where x*||x*alpha||*||x*beta|| reaches a new
    minimum, with certified value enclosures.

    Candidates come from cfrac.residual_minima, whose screen provably keeps
    every record, and are settled exactly.
    """
    if X < 1:
        raise ParameterError("X must be >= 1")
    records: list[MinRecord] = []
    for x, val, _ in residual_minima(ResidualScan((surdsum_of(alpha), surdsum_of(beta))), X):
        iv = val.interval(_ENCLOSURE_BITS)
        records.append(MinRecord(x, iv.lo, iv.hi, val))
    return records


class CartanReport(namedtuple("CartanReport", "epsilon monic_measure_lo monic_measure_hi "
                              "f_measure_lo f_measure_hi bound monic_within_bound "
                              "f_within_bound")):
    """Sublevel measures of the one-variable cubic through (y0, z0).

    P(x) = x (x - y0/alpha)(x - z0/beta) is the monic cubic with
    alpha*beta*P(x) = f(x, y0, z0).  The report carries certified bounds on
    the Lebesgue measure of both {|P| <= eps} (monic form; the classical
    sublevel estimate 2e*eps^(1/3) is a theorem for it) and {|f| <= eps},
    plus the comparison of each against 2e*eps^(1/3).  `bound` is that
    2e*eps^(1/3) as a float, for display; the verdicts are exact.
    """

    __slots__ = ()

    @property
    def monic_measure(self) -> Fraction:
        return (self.monic_measure_lo + self.monic_measure_hi) / 2

    @property
    def f_measure(self) -> Fraction:
        return (self.f_measure_lo + self.f_measure_hi) / 2


def _sublevel_measure(
    coeffs: list[SurdSum], level: SurdSum, tol: Fraction
) -> tuple[Fraction, Fraction]:
    """Certified bounds on the measure of {t : |g(t)| <= level} for a cubic
    g with positive leading coefficient and a positive level."""
    upper = [c for c in coeffs]
    upper[0] = upper[0] - level
    lower = [c for c in coeffs]
    lower[0] = lower[0] + level
    R = max(rootfind.root_magnitude_bound(upper), rootfind.root_magnitude_bound(lower))

    # Retry at tol / 100 until the enclosures are disjoint.  This ends: g - eps
    # and g + eps share no root (eps > 0), each enclosure has width <= tol
    # and holds one root, and two distinct roots get disjoint enclosures
    # once tol is below half their gap.
    while True:
        roots = sorted(
            rootfind.isolate_roots(upper, -R, R, tol)
            + rootfind.isolate_roots(lower, -R, R, tol),
            key=lambda r: r[0],
        )
        if all(a[1] < b[0] for a, b in zip(roots, roots[1:])):
            break
        tol /= 100

    lo_sum = Fraction(0)
    hi_sum = Fraction(0)
    for left, right in zip(roots, roots[1:]):
        mid = (left[1] + right[0]) / 2
        inside = (
            rootfind.poly_sign_at(upper, mid) <= 0
            and rootfind.poly_sign_at(lower, mid) >= 0
        )
        if inside:
            lo_sum += max(Fraction(0), right[0] - left[1])
            hi_sum += right[1] - left[0]
    return lo_sum, hi_sum


def cartan_measure(
    alpha,
    beta,
    y0: int,
    z0: int,
    epsilon: Fraction,
    tol: Fraction = Fraction(1, 10**11),
) -> CartanReport:
    """Measure the sublevel sets of the cubic through (y0, z0) by certified
    root isolation and monotone-piece inversion (default accuracy well
    under the 1e-9 contract), and decide exactly whether each upper bound
    is at most 2e*eps^(1/3)."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    alpha_s, beta_s = surdsum_of(alpha), surdsum_of(beta)
    ab = alpha_s * beta_s
    if certified_sign(ab) <= 0:
        raise ParameterError("alpha*beta must be positive")
    # g(t) = f(t, y0, z0) = (alpha*beta) t^3 - (alpha z0 + beta y0) t^2 + y0 z0 t
    coeffs = [
        as_surdsum(0),
        as_surdsum(y0 * z0),
        -(alpha_s * z0 + beta_s * y0),
        ab,
    ]
    # {|P| <= eps} = {|g| <= eps*alpha*beta};  {|f| <= eps} = {|g| <= eps}
    monic_lo, monic_hi = _sublevel_measure(coeffs, ab * epsilon, tol)
    f_lo, f_hi = _sublevel_measure(coeffs, as_surdsum(epsilon), tol)
    return CartanReport(
        epsilon,
        monic_lo,
        monic_hi,
        f_lo,
        f_hi,
        _display_bound(epsilon),
        _within_2e_cbrt(monic_hi, epsilon),
        _within_2e_cbrt(f_hi, epsilon),
    )


def _display_bound(epsilon: Fraction) -> float:
    """2e * eps^(1/3) as a float, for display.  An eps outside the normal
    floats goes through logarithms (its bound may still fit), and a bound
    above the float range is an infinity, one below it 0.0."""
    if sys.float_info.min <= epsilon <= sys.float_info.max:
        return 2 * math.e * float(epsilon) ** (1 / 3)
    log_eps = math.log(epsilon.numerator) - math.log(epsilon.denominator)
    try:
        return math.exp(math.log(2) + 1 + log_eps / 3)
    except OverflowError:
        return math.inf


def _within_2e_cbrt(x: Fraction, epsilon: Fraction) -> bool:
    """x <= 2e * eps^(1/3) exactly, as x^3 <= 8 e^3 eps.  e lies in
    [s, s + 1/(K! K)] with s = sum_{k <= K} 1/k!, and e^3 is irrational,
    so doubling K decides."""
    if x <= 0:
        return True
    target = x**3 / (8 * epsilon)
    K = 16
    while True:
        e_lo = sum(Fraction(1, math.factorial(k)) for k in range(K + 1))
        if target < e_lo**3:
            return True
        if target > (e_lo + Fraction(1, math.factorial(K) * K)) ** 3:
            return False
        K *= 2
