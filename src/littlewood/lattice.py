"""The cubic f(x,y,z) = x(alpha*x - y)(beta*x - z) on lattice points,
the shear that straightens it, the per-pair state of the sufficient
condition, brute-force minimisation oracles, and the sublevel-measure check
for the one-variable cubic.

A :class:`Pair` owns what belongs to one (alpha, beta): the exact values,
lambda, the order-2n approximation lines and lcm times, and the Dirichlet
points, each computed on first use and kept.  Both scans run on
:func:`littlewood.cfrac.residual_minima`, the one running-minimum loop over
x: the brute-force minima take the records of x*||x*alpha||*||x*beta||, and
every Dirichlet point is read from the records of max(||x*alpha||,
||x*beta||), which the pair grows on demand.  The loop's screen only
nominates candidates; each nominee is confirmed or rejected in exact
arithmetic.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property, lru_cache

from .cfrac import (CFSpec, ParameterError, ResidualScan, _checked_lcm_time, _observed_M,
                    cf_expand, convergent, error_term, residual_minima)
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
    "ApproxLine",
    "Pair",
    "FEval",
    "MinRecord",
    "CartanReport",
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


class ApproxLine(namedtuple("ApproxLine", "n P0 e_alpha e_beta")):
    """Line through a Dirichlet point P0 (None for the line of order n
    alone) whose direction is the pair of order-2n convergents, read with
    their errors from the ErrorTerms e_alpha and e_beta."""

    __slots__ = ()

    @property
    def x0(self) -> int:
        return self.P0.point.x


class FEval(namedtuple("FEval", "sign magnitude vs_epsilon")):
    """Certified evaluation of f at a point: exact sign, magnitude
    enclosure (a DyadicInterval), and the trichotomy against eps,
    `vs_epsilon` = 'below' | 'equal' | 'above'."""

    __slots__ = ()


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
    alpha_s, beta_s = as_surdsum(alpha), as_surdsum(beta)
    x, y, z = (as_surdsum(c) for c in p)
    return x, alpha_s * x - y, beta_s * x - z


class Pair:
    """One pair (alpha, beta) of CFSpecs and the state the sufficient
    condition reads from it, each part computed on first use and kept:
    the exact ``values``, ``lam`` = (M+1)^2 with M the larger
    partial-quotient bound, the order-2n lines and lcm times per n, and
    the Dirichlet records."""

    def __init__(self, alpha: CFSpec, beta: CFSpec) -> None:
        self.alpha, self.beta = alpha, beta
        self._lines: dict[int, ApproxLine] = {}
        self._times: dict[int, int] = {}

    @cached_property
    def values(self) -> tuple[SurdSum, SurdSum]:
        return as_surdsum(self.alpha.value()), as_surdsum(self.beta.value())

    @cached_property
    def M(self) -> int:
        return max(_observed_M(self.alpha), _observed_M(self.beta))

    @property
    def lam(self) -> int:
        return (self.M + 1) ** 2

    def line(self, n: int) -> ApproxLine:
        """The order-2n line without a Dirichlet point, which is all
        transversality needs; ``line._replace(P0=P0)`` attaches one.  At
        even order error_term certifies both error terms >= 0."""
        if n < 0:
            raise ParameterError("n must be >= 0")
        if n not in self._lines:
            for name, spec in (("alpha", self.alpha), ("beta", self.beta)):
                quotients = cf_expand(spec, 2 * n + 1)
                if len(quotients) <= 2 * n:
                    raise ParameterError(
                        f"{name} = {spec.value()} is rational with {len(quotients)} partial "
                        f"quotients: it has no convergent of order 2n = {2 * n}"
                    )
            self._lines[n] = ApproxLine(
                n, None, error_term(self.alpha, 2 * n), error_term(self.beta, 2 * n)
            )
        return self._lines[n]

    def t_n(self, n: int) -> int:
        """t_n = lcm(q_2n(alpha), q_2n(beta)), read from the two convergent
        denominators, with the sandwich 2^(n-1) <= t_n <= lambda^(2n)
        asserted."""
        if n not in self._times:
            qa, qb = (convergent(spec, 2 * n).q for spec in (self.alpha, self.beta))
            self._times[n] = _checked_lcm_time(qa, qb, n, self.lam)
        return self._times[n]

    @cached_property
    def _records(self) -> tuple[ResidualScan, list, list]:
        """(scan, keys, points) for the running-minimum records of m(x) =
        max(||x*alpha||, ||x*beta||) over the scanned [1, scan.X], Lagarias's
        best simultaneous approximations: per record the key floor(1/m**2)
        (infinite at m = 0, a rational pair), which never decreases along
        the list, and the lattice point with its two residuals.
        dirichlet_point grows the lists."""
        return ResidualScan(self.values, "max"), [], []

    def dirichlet_point(self, N: int) -> DirichletPoint:
        """Smallest x in [1, N] whose nearest-integer residuals for alpha
        and beta are both at most 1/sqrt(N), residual comparisons exact
        (squared: residual^2 <= 1/N).

        Every earlier x has a larger m(x) = max(||x*alpha||, ||x*beta||),
        so the answer is the first running-minimum record of m with
        m(x)**2 <= 1/N, that is with N <= floor(1/m(x)**2).  A query that
        none of the kept records answers extends the scan, one dyadic block
        [X + 1, 2X + 1] at a time, toward max(N, 2 * X) from the scanned X,
        and stops at the first block with a record that answers it.
        Existence for N >= 2 is a Minkowski/pigeonhole guarantee, so an
        empty result raises TheoremViolationError.
        """
        if N < 2:
            raise ParameterError("N must be >= 2")
        scan, keys, points = self._records
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


@lru_cache(maxsize=32)
def _pair_of(alpha: SurdSum, beta: SurdSum) -> Pair:
    """The Pair of two exact values, kept for the last 32 pairs so that a
    sweep of dirichlet_search over N grows one record scan."""
    return Pair(CFSpec.from_surd(alpha), CFSpec.from_surd(beta))


def dirichlet_search(alpha, beta, N: int) -> DirichletPoint:
    """:meth:`Pair.dirichlet_point` of two exact values (SurdSum, Fraction
    or int)."""
    return _pair_of(as_surdsum(alpha), as_surdsum(beta)).dirichlet_point(N)


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
    for x, val, _ in residual_minima(ResidualScan((as_surdsum(alpha), as_surdsum(beta))), X):
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
    alpha_s, beta_s = as_surdsum(alpha), as_surdsum(beta)
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
