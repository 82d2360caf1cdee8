"""Certified real-root isolation for low-degree polynomials with exact
coefficients.

Polynomials are coefficient lists (ascending powers) of SurdSum / Fraction
/ int entries.  Every sign a bisection uses is certified and computed
interval-first: Horner's rule on integer fixed-point enclosures
(:func:`~littlewood.exactnum.fixed_enclosure`) decides it whenever the
enclosure excludes 0, and the exact SurdSum Horner with
``certified_sign`` decides the rest, exact zeros included.  The
coefficient enclosures are taken once per polynomial and passed to every
probe of it; the probe's own enclosure comes from its numerator and
denominator by one floor division.  When the probe enclosure lies on one
side of 0, each Horner step picks its lower and upper product from the
signs of the running bounds (two products, not four), with a result
bit-identical to the four-product step.

Roots are isolated by recursing on the derivative: between consecutive
critical points the polynomial is strictly monotone and plain sign-change
bisection applies.  The bisection counts its halvings once, from the
width and tol, and indexes its brackets by integers: the probe at level j
is lo + (hi - lo)(2m + 1) / 2**j, with m the index of the bracket at level
j - 1, built as one Fraction from integers, so no Fraction arithmetic runs
per probe.  Each critical point sits in a narrow sliver whose end signs
may agree while the polynomial crosses a level twice inside it; a
mean-value enclosure proves most slivers root-free, and exact Sturm counts
over the SurdSum coefficients split the others until each root is
bracketed.  A tangency at the level (a root of even multiplicity) comes
back as an enclosure of width <= tol; an exact zero at a probe point is
returned as a degenerate interval.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .exactnum import FIXED_BITS, SurdSum, as_surdsum, certified_sign, fixed_enclosure

__all__ = [
    "poly_eval",
    "poly_derivative",
    "poly_sign_at",
    "root_magnitude_bound",
    "bisect_root",
    "isolate_roots",
]

Coeffs = Sequence


def poly_eval(coeffs: Coeffs, t: Fraction) -> SurdSum:
    """Horner evaluation at an exact rational point."""
    acc = as_surdsum(0)
    for c in reversed(list(coeffs)):
        acc = acc * t + as_surdsum(c)
    return acc


def poly_derivative(coeffs: Coeffs) -> list[SurdSum]:
    return [as_surdsum(c) * k for k, c in enumerate(coeffs) if k >= 1]


Fixed = list[tuple[int, int]]


def _fixed_coeffs(coeffs: Coeffs) -> Fixed:
    """The fixed-point enclosure of every coefficient, ascending."""
    return [fixed_enclosure(c) for c in coeffs]


def _fixed_horner(fixed: Fixed, t_lo: int, t_hi: int) -> tuple[int, int]:
    """Fixed-point enclosure (mantissas over 2**-FIXED_BITS) of the
    polynomial with coefficient enclosures ``fixed`` on the argument
    enclosure [t_lo, t_hi]; a point when equal."""
    # Each step takes the least and the greatest of the corner products
    # x*t, x in {lo, hi}, t in {t_lo, t_hi}.  When t keeps one sign, x*t is
    # monotone in x, so the least product has x = lo for t >= 0 (x = hi for
    # t <= 0), and with that x fixed it is monotone in t, so the sign of x
    # picks the end of t.  The chosen product is one of the four corners
    # and no corner is smaller (greater), so it is their min (max) exactly
    # and the result is bit-identical to the four-product step.
    lo = hi = 0
    if t_lo >= 0:
        for c_lo, c_hi in reversed(fixed):
            lo = (lo * (t_lo if lo >= 0 else t_hi) >> FIXED_BITS) + c_lo
            hi = -(-hi * (t_hi if hi >= 0 else t_lo) >> FIXED_BITS) + c_hi
    elif t_hi <= 0:
        for c_lo, c_hi in reversed(fixed):
            lo, hi = (
                (hi * (t_lo if hi >= 0 else t_hi) >> FIXED_BITS) + c_lo,
                -(-lo * (t_hi if lo >= 0 else t_lo) >> FIXED_BITS) + c_hi,
            )
    else:
        for c_lo, c_hi in reversed(fixed):
            p1, p2, p3, p4 = lo * t_lo, lo * t_hi, hi * t_lo, hi * t_hi
            lo = (min(p1, p2, p3, p4) >> FIXED_BITS) + c_lo
            hi = -(-max(p1, p2, p3, p4) >> FIXED_BITS) + c_hi
    return lo, hi


def poly_sign_at(coeffs: Coeffs, t: Fraction, fixed: Fixed | None = None) -> int:
    """Certified sign at a rational point: the fixed-point Horner when its
    enclosure excludes 0, the exact Horner otherwise.  A caller that probes
    one polynomial many times passes its ``_fixed_coeffs`` as ``fixed``."""
    if fixed is None:
        fixed = _fixed_coeffs(coeffs)
    # fixed_enclosure(t), straight from the integers of t
    t_lo, rem = divmod(t.numerator << FIXED_BITS, t.denominator)
    lo, hi = _fixed_horner(fixed, t_lo, t_lo + (rem > 0))
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return certified_sign(poly_eval(coeffs, t))


def _trim(coeffs: Coeffs) -> list[SurdSum]:
    out = [as_surdsum(c) for c in coeffs]
    while out and certified_sign(out[-1]) == 0:
        out.pop()
    return out


def root_magnitude_bound(coeffs: Coeffs) -> Fraction:
    """Rational R with all real roots in (-R, R) (Cauchy bound, certified
    through upper intervals of |c_i| and a positive lower interval of the
    leading coefficient)."""
    trimmed = _trim(coeffs)
    if len(trimmed) <= 1:
        raise ValueError("constant polynomial has no root bound")
    bits = 64
    while True:
        lead = trimmed[-1].interval(bits).abs()
        if lead.lo > 0:
            break
        bits *= 2
    top = Fraction(0)
    for c in trimmed[:-1]:
        top = max(top, c.interval(bits).abs().hi)
    return 1 + top / lead.lo


def bisect_root(
    coeffs: Coeffs, lo: Fraction, hi: Fraction, tol: Fraction
) -> tuple[Fraction, Fraction]:
    """Shrink a bracketing interval (opposite endpoint signs) below tol.

    The k halvings that take the width w = hi - lo to at most tol are
    counted once: k is the least integer with w <= tol * 2**k.  Level j
    keeps only the integer index m of the current bracket [lo + w m / 2**j,
    lo + w (m+1) / 2**j], so each probe is one Fraction built from
    integers over the common denominator of lo and hi.  The probes and
    the result are the rationals that halving [lo, hi] with Fraction
    arithmetic visits and returns.
    """
    fixed = _fixed_coeffs(coeffs)
    s_lo = poly_sign_at(coeffs, lo, fixed)
    s_hi = poly_sign_at(coeffs, hi, fixed)
    if s_lo == 0:
        return lo, lo
    if s_hi == 0:
        return hi, hi
    if s_lo == s_hi:
        raise ValueError("endpoints do not bracket a sign change")
    if tol <= 0:
        raise ValueError("tol must be positive")
    # lo = P / D and hi - lo = W / D; k from the bit lengths of W * tol.den
    # and tol.num * D, then one exact fix-up
    D = lo.denominator * hi.denominator
    P = lo.numerator * hi.denominator
    W = hi.numerator * lo.denominator - P
    a, b = W * tol.denominator, tol.numerator * D
    k = max(0, a.bit_length() - b.bit_length())
    if a > b << k:
        k += 1
    m = 0
    for j in range(1, k + 1):
        t = Fraction((P << j) + W * (2 * m + 1), D << j)
        s_mid = poly_sign_at(coeffs, t, fixed)
        if s_mid == 0:
            return t, t
        m = 2 * m + (s_mid == s_lo)
    return Fraction((P << k) + W * m, D << k), Fraction((P << k) + W * (m + 1), D << k)


def _keeps_sign(fixed: Fixed, deriv_fixed: Fixed, a: Fraction, b: Fraction, s: int) -> bool:
    """Mean-value proof that p keeps the sign s of p(a) on all of [a, b]:
    p(t) lies in p(a) + [0, b - a] * p'([a, b]), all in fixed point, from
    the coefficient enclosures of p and p'."""
    a_lo, a_hi = fixed_enclosure(a)
    p_lo, p_hi = _fixed_horner(fixed, a_lo, a_hi)
    d_lo, d_hi = _fixed_horner(deriv_fixed, a_lo, fixed_enclosure(b)[1])
    w = fixed_enclosure(b - a)[1]
    if s > 0:
        return p_lo + (min(0, w * d_lo) >> FIXED_BITS) > 0
    return p_hi - (-max(0, w * d_hi) >> FIXED_BITS) < 0


def _bracket_inside(
    coeffs: Coeffs, lo: Fraction, hi: Fraction, tol: Fraction
) -> tuple[Fraction, Fraction]:
    """bisect_root on [lo, hi] (opposite nonzero end signs), narrowed until
    the enclosure touches neither end, so that brackets of neighbouring
    pieces of a sliver stay disjoint."""
    r_lo, r_hi = bisect_root(coeffs, lo, hi, tol)
    while r_lo == lo or r_hi == hi:
        r_lo, r_hi = bisect_root(coeffs, r_lo, r_hi, (r_hi - r_lo) / 2)
    return r_lo, r_hi


def _pseudo_remainder(a: list[SurdSum], b: list[SurdSum]) -> list[SurdSum]:
    """Remainder of a by b times an even power of lc(b), so that it has the
    sign of the true remainder; no division, as SurdSum is only a ring."""
    lc = b[-1]
    r = list(a)
    steps = 0
    while len(r) >= len(b):
        shift, top = len(r) - len(b), r[-1]
        r = [x * lc for x in r]
        for i, c in enumerate(b):
            r[shift + i] = r[shift + i] - top * c
        r.pop()  # the leading term cancels exactly
        while r and r[-1].is_zero():
            r.pop()
        steps += 1
    return [x * lc for x in r] if steps % 2 else r


def _sturm_chain(coeffs: list[SurdSum]) -> list[list[SurdSum]]:
    """p, p', then negated pseudo-remainders down to a constant or the gcd."""
    chain = [coeffs, poly_derivative(coeffs)]
    while len(chain[-1]) > 1:
        r = _pseudo_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-x for x in r])
    return chain


def _sign_changes(chain: list[tuple[list[SurdSum], Fixed]], t: Fraction) -> int:
    """Sign changes at t of a Sturm chain given as (polynomial, coefficient
    enclosures) pairs."""
    signs = [s for s in (poly_sign_at(q, t, fixed) for q, fixed in chain) if s]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _sliver_roots(
    coeffs: list[SurdSum],
    fixed: Fixed,
    deriv_fixed: Fixed,
    a: Fraction,
    b: Fraction,
    sa: int,
    sb: int,
    tol: Fraction,
) -> list[tuple[Fraction, Fraction]]:
    """Roots strictly inside a critical-point sliver [a, b], given the exact
    signs sa, sb of p at its ends, which are not opposite; ``fixed`` and
    ``deriv_fixed`` are the coefficient enclosures of p and p'.

    A mean-value enclosure proves most slivers root-free.  The rest are
    decided exactly by Sturm's theorem: with V(t) the sign changes of the
    Sturm chain at t, (a, b] holds V(a) - V(b) distinct roots whenever
    p and p' do not both vanish at a or b.  That holds at the sliver ends
    (p' != 0 there) and at every split point (p != 0 there).  Pieces are
    halved until each holds one root, which is bracketed by its sign
    change or, if p keeps its sign around it (a root of even multiplicity:
    a tangency at the level), enclosed by halving to width tol and away
    from the sliver ends.
    """
    if sa and sa == sb and _keeps_sign(fixed, deriv_fixed, a, b, sa):
        return []
    chain = [(q, _fixed_coeffs(q)) for q in _sturm_chain(coeffs)]
    sign = {a: sa, b: sb}
    changes = {a: _sign_changes(chain, a), b: _sign_changes(chain, b)}
    roots: list[tuple[Fraction, Fraction]] = []
    pieces = [(a, b)]
    while pieces:
        u, v = pieces.pop()
        count = changes[u] - changes[v] - (sign[v] == 0)  # roots in (u, v)
        if count == 0:
            continue
        if count == 1 and sign[u] * sign[v] < 0:
            roots.append(_bracket_inside(coeffs, u, v, tol))
            continue
        if count == 1 and sign[u] == sign[v] and v - u <= tol and a < u and v < b:
            roots.append((u, v))
            continue
        m = (u + v) / 2
        while (sm := poly_sign_at(coeffs, m, fixed)) == 0:
            m = (u + m) / 2  # split only where p != 0; the root stays counted
        sign[m], changes[m] = sm, _sign_changes(chain, m)
        pieces += [(u, m), (m, v)]
    return sorted(roots)


def isolate_roots(
    coeffs: Coeffs, lo: Fraction, hi: Fraction, tol: Fraction
) -> list[tuple[Fraction, Fraction]]:
    """All real roots in [lo, hi] as intervals of width <= tol, one per
    distinct root, in increasing order.  Enclosures of neighbouring roots
    do not overlap, but they may share an endpoint: a cut between them,
    where p != 0.  Exact-zero probes yield degenerate intervals, and a root
    of even multiplicity is enclosed with the same sign of p at both ends."""
    trimmed = _trim(coeffs)
    lo, hi = Fraction(lo), Fraction(hi)
    if hi < lo:
        return []
    if len(trimmed) == 0:
        raise ValueError("zero polynomial has no isolated roots")
    if len(trimmed) == 1:
        return []
    # Cuts, their signs and the slivers live in lists: hashing a Fraction
    # costs a modular inverse
    cuts: list[Fraction] = [lo, hi]
    deriv_fixed: Fixed = []
    slivers: list[tuple[Fraction, Fraction]] = []  # critical-point enclosures
    if len(trimmed) > 2:
        deriv = poly_derivative(trimmed)
        deriv_fixed = _fixed_coeffs(deriv)
        crit_tol = min(tol, (hi - lo) or tol) / 4
        for c_lo, c_hi in isolate_roots(deriv, lo, hi, crit_tol):
            cuts.extend((c_lo, c_hi))
            if c_lo < c_hi:
                slivers.append((c_lo, c_hi))
    cuts.sort()
    cuts = [t for i, t in enumerate(cuts) if i == 0 or t != cuts[i - 1]]
    roots: list[tuple[Fraction, Fraction]] = []
    fixed = _fixed_coeffs(trimmed)
    signs = [poly_sign_at(trimmed, t, fixed) for t in cuts]
    for a, b, sa, sb in zip(cuts, cuts[1:], signs, signs[1:]):
        if sa == 0 and (not roots or roots[-1][1] < a):
            roots.append((a, a))
        if sa * sb < 0:
            roots.append(bisect_root(trimmed, a, b, tol))
        elif (a, b) in slivers:
            roots.extend(_sliver_roots(trimmed, fixed, deriv_fixed, a, b, sa, sb, tol))
    if signs[-1] == 0 and (not roots or roots[-1][1] < hi):
        roots.append((hi, hi))
    return roots
