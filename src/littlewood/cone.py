"""The half-cone around the irrational axis line R*(1, alpha, beta):

    C(N, eps) = { (x,y,z) : 1 <= x <= N,
                  (alpha*x - y)^2 + (beta*x - z)^2 <= phi * (N - x)^2 },
    phi = phi(N, eps) = 2*eps / (N * (N-1)^2),

which is contained in the sublevel body {0 < |f| <= eps}.  This module
gives exact membership verdicts, the base-circle tangency data against the
hyperbola y*z = eps, and a seeded sampler that stress-tests the inclusion.

The sampler, :class:`InclusionRun`, works on integers: every draw is
k/2**53, so x, u, v, f and the margin are integer numerators over fixed
denominators and every verdict is an integer comparison.  It streams its
rows.  A row is reported from those integers too: x, f and the margin as
(numerator, denominator) pairs, and y and z as enclosures computed from
integer forms of their SurdSum terms, which the run builds once, with
sqrt(phi), when it is made.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from fractions import Fraction

from .exactnum import (
    DyadicInterval,
    SurdSum,
    as_surdsum,
    certified_sign,
)
from .lattice import ParameterError, f_exact, m_transform

__all__ = [
    "ConeParams",
    "ConeMembershipVerdict",
    "TangencyData",
    "InclusionSample",
    "InclusionRun",
    "phi",
    "cone_contains",
    "base_tangency",
]

_CHUNK = 2048  # samples per seeded generator; the rows depend on it, so it is fixed
_CROSSCHECKS = 32  # a run re-verifies every (sample_count // 32)-th row through the surds
_UNIT_BITS = 53  # every draw is k / 2**53, k < 2**53
_COORDINATE_BITS = 128  # precision of the reported y and z enclosures
_MARGIN_BITS = 128  # precision of the margin enclosure in a membership verdict


def phi(N: int, epsilon: Fraction) -> Fraction:
    """Aperture constant 2*eps / (N*(N-1)^2), exactly."""
    epsilon = Fraction(epsilon)
    if N < 2:
        raise ParameterError("N must be >= 2")
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    return 2 * epsilon / (N * (N - 1) ** 2)


class ConeParams(namedtuple("ConeParams", "N epsilon phi")):
    """The cone's parameters: N, eps and the aperture phi(N, eps)."""

    __slots__ = ()

    @classmethod
    def make(cls, N: int, epsilon) -> "ConeParams":
        epsilon = Fraction(epsilon)
        return cls(N, epsilon, phi(N, epsilon))


class ConeMembershipVerdict(namedtuple("ConeMembershipVerdict",
                                       "inside margin margin_sign x_in_range")):
    """A membership verdict; `margin` encloses lhs - rhs of the defining
    inequality (a DyadicInterval) and `margin_sign` is its exact sign."""

    __slots__ = ()


def cone_contains(alpha, beta, p: Sequence, params: ConeParams) -> ConeMembershipVerdict:
    """Certified membership of an exact point (lattice or real with exact
    coordinates); the boundary counts as inside (closed cone)."""
    x, ra, rb = m_transform(alpha, beta, p)
    in_lo = certified_sign(x - 1) >= 0
    in_hi = certified_sign(params.N - x) >= 0
    x_in_range = in_lo and in_hi
    slack = params.N - x
    margin = ra * ra + rb * rb - params.phi * (slack * slack)
    sign = certified_sign(margin)
    return ConeMembershipVerdict(
        inside=x_in_range and sign <= 0,
        margin=margin.interval(_MARGIN_BITS),
        margin_sign=sign,
        x_in_range=x_in_range,
    )


class TangencyData(namedtuple("TangencyData",
                              "radius point discriminant_is_zero on_hyperbola")):
    """Base-circle data at x = 1: radius sqrt(2*eps), tangency point
    (1, sqrt(eps), sqrt(eps)) on the hyperbola y*z = eps, and the exact
    vanishing of the tangency discriminant r^4 - 4*eps^2."""

    __slots__ = ()


def base_tangency(epsilon) -> TangencyData:
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    radius = SurdSum.sqrt(2 * epsilon)
    se = SurdSum.sqrt(epsilon)
    r4 = (radius * radius) ** 2  # exact rational (2*eps)^2
    disc_zero = certified_sign(r4 - 4 * epsilon * epsilon) == 0
    on_hyp = certified_sign(se * se - epsilon) == 0
    return TangencyData(radius, (Fraction(1), se, se), disc_zero, on_hyp)


class InclusionSample(namedtuple("InclusionSample",
                                 "x_num u_num v_num f_num margin_num phi_den violation")):
    """One sampled interior point, in scaled cross-section coordinates:
    the point is (x, alpha*x - u*s, beta*x - v*s) with s = sqrt(phi)*(N-x),
    so f at the point is the exact rational x*u*v*phi*(N-x)^2.

    Held as integer numerators: x, u and v over 2**53, f over
    phi_den * 2**265 and the margin (u^2+v^2-1)*phi*(N-x)^2 over
    phi_den * 2**212.  The ``*_ratio`` properties give x, f and the margin
    as unreduced (numerator, denominator) pairs, the others read the values
    as exact Fractions.  ``violation`` is set when 0 < |f| <= eps or
    margin <= 0 fails.
    """

    __slots__ = ()

    @property
    def x_ratio(self) -> tuple[int, int]:
        return self.x_num, 1 << _UNIT_BITS

    @property
    def f_ratio(self) -> tuple[int, int]:
        return self.f_num, self.phi_den << 5 * _UNIT_BITS

    @property
    def margin_ratio(self) -> tuple[int, int]:
        return self.margin_num, self.phi_den << 4 * _UNIT_BITS

    @property
    def x(self) -> Fraction:
        return Fraction(*self.x_ratio)

    @property
    def u(self) -> Fraction:
        return Fraction(self.u_num, 1 << _UNIT_BITS)

    @property
    def v(self) -> Fraction:
        return Fraction(self.v_num, 1 << _UNIT_BITS)

    @property
    def f(self) -> Fraction:
        return Fraction(*self.f_ratio)

    @property
    def margin(self) -> Fraction:
        return Fraction(*self.margin_ratio)


def _sample_chunk(
    N: int, epsilon: Fraction, phi_val: Fraction, seed: int, chunk_index: int, count: int
) -> list[InclusionSample]:
    """One chunk of rows from its own seeded generator, on integers only:
    with x = X/2**53, u = U/2**53, v = V/2**53, N - x = S/2**53 and
    phi = p/q, f = X*U*V*S^2*p / (q*2**265) and the margin is
    (U^2+V^2-2**106)*S^2*p / (q*2**212), so both verdicts are integer
    comparisons."""
    import random  # only a sampling run pays for loading it

    rng = random.Random(seed * 1_000_003 + chunk_index)
    draw = rng.getrandbits
    one = 1 << _UNIT_BITS
    one2 = one * one
    top = N << _UNIT_BITS
    p, q = phi_val.numerator, phi_val.denominator
    eps_den = epsilon.denominator
    # |f| <= eps  <=>  |F| * eps_den <= eps_num * q * 2**265
    f_bound = (epsilon.numerator * q) << 5 * _UNIT_BITS
    rows: list[InclusionSample] = []
    for _ in range(count):
        X = one + (N - 1) * draw(_UNIT_BITS)
        while True:
            U = 2 * draw(_UNIT_BITS) - one
            V = 2 * draw(_UNIT_BITS) - one
            r2 = U * U + V * V
            if U and V and r2 < one2:
                break
        slack2p = (top - X) ** 2 * p
        F = X * U * V * slack2p
        M = (r2 - one2) * slack2p
        violation = not F or abs(F) * eps_den > f_bound or M > 0
        rows.append(InclusionSample(X, U, V, F, M, q, violation))
    return rows


class InclusionRun:
    """One seeded sampling run of the open cone, streamed: points drawn
    uniformly from the cone (uniform in x, uniform in the open
    cross-section disk minus the axes, where f would vanish), each with the
    certified verdict 0 < |f| <= eps.

    Iterating yields the rows in order, chunk by chunk: chunk i holds
    _CHUNK rows (the last may hold fewer) from a generator seeded with
    seed * 1_000_003 + i.  Every ``max(1, sample_count // 32)``-th row
    is also pushed through the full surd evaluation of f as it passes, and
    violating rows are recorded.  Iterate a run once: when the iteration
    has ended, ``samples``, ``violations`` and ``crosschecked`` hold its
    tallies.

    ``sqrt_phi`` is sqrt(phi) = sqrt(2*eps/N) / (N-1), the perfect square
    (N-1)^2 pulled out of the radicand so that even desk-scale N keeps it
    factorable, and ``forms`` are the integer forms of y and z that
    :func:`sample_point_coordinates` reads.
    """

    def __init__(
        self, alpha, beta, params: ConeParams, sample_count: int, seed: int = 0
    ) -> None:
        if sample_count < 1:
            raise ParameterError("sample_count must be >= 1")
        if seed < 0:  # random.Random(-n) draws what random.Random(n) does
            raise ParameterError("seed must be >= 0")
        self.alpha = as_surdsum(alpha)
        self.beta = as_surdsum(beta)
        self.params = params
        self.sample_count = sample_count
        self.seed = seed
        self.step = max(1, sample_count // _CROSSCHECKS)
        self.sqrt_phi = SurdSum.sqrt(
            Fraction(2 * params.epsilon, params.N), coeff=Fraction(1, params.N - 1)
        )
        self.forms = _coordinate_forms(self.alpha, self.beta, self.sqrt_phi)
        self.samples = self.crosschecked = 0
        self.violations: list[InclusionSample] = []

    def __iter__(self) -> Iterator[InclusionSample]:
        N, epsilon, phi_val = self.params.N, self.params.epsilon, self.params.phi
        for i in range((self.sample_count + _CHUNK - 1) // _CHUNK):
            count = min(_CHUNK, self.sample_count - i * _CHUNK)
            for sample in _sample_chunk(N, epsilon, phi_val, self.seed, i, count):
                if self.samples % self.step == 0:
                    self._crosscheck(sample)
                if sample.violation:
                    self.violations.append(sample)
                self.samples += 1
                yield sample

    def _crosscheck(self, sample: InclusionSample) -> None:
        x = sample.x
        s = self.sqrt_phi * (self.params.N - x)
        y = self.alpha * x - sample.u * s
        z = self.beta * x - sample.v * s
        through_surds = f_exact(self.alpha, self.beta, x, y, z)
        if certified_sign(through_surds - sample.f) != 0:
            raise AssertionError("scaled-coordinate f disagrees with the surd evaluation")
        self.crosschecked += 1


def _coordinate_forms(
    alpha: SurdSum, beta: SurdSum, sqrt_phi: SurdSum
) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
    """y = alpha*x - u*s and z = beta*x - v*s as integer forms in a
    sample's numerators, one tuple per coordinate.

    With s = sqrt_phi*(N-x), sqrt_phi = k*sqrt(r), x = X/2**53 and
    u*(N-x) = W/2**106 (W = U*S for y, V*S for z), the coefficient of
    sqrt(rad) in the coordinate's SurdSum is (a*X + b*W)/den for each
    (rad, a, b, den) of its form."""
    ((r, k),) = sqrt_phi.terms()
    zero = Fraction(0)
    forms = []
    for axis in (alpha, beta):
        coefs = dict(axis.terms())
        form = []
        for rad in coefs.keys() | {r}:
            # c*X/2**53 - e*W/2**106 over one denominator
            c, e = coefs.get(rad, zero), (k if rad == r else zero)
            form.append((
                rad,
                c.numerator * e.denominator << _UNIT_BITS,
                -e.numerator * c.denominator,
                c.denominator * e.denominator << 2 * _UNIT_BITS,
            ))
        forms.append(tuple(form))
    return tuple(forms)


def _coordinate_interval(
    forms: tuple[tuple[int, int, int, int], ...], X: int, W: int
) -> DyadicInterval:
    terms = []
    for rad, a, b, den in forms:
        p = a * X + b * W
        if p:
            terms.append((rad, p, den))
    return DyadicInterval.of_surd_terms(terms, _COORDINATE_BITS)


def sample_point_coordinates(
    run: InclusionRun, sample: InclusionSample
) -> tuple[DyadicInterval, DyadicInterval]:
    """The y and z coordinates of a sample of ``run`` for reporting, as the
    enclosures ``interval(128)`` of their exact SurdSums (x is exact on
    the sample: ``sample.x`` or ``sample.x_ratio``)."""
    y_forms, z_forms = run.forms
    X = sample.x_num
    S = (run.params.N << _UNIT_BITS) - X
    return (
        _coordinate_interval(y_forms, X, sample.u_num * S),
        _coordinate_interval(z_forms, X, sample.v_num * S),
    )
