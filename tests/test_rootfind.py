"""Root isolation: the interval-first sign probe against the exact Horner,
and roots that cross a level twice inside a critical-point sliver."""

import random
from fractions import Fraction
from functools import cmp_to_key

import pytest

from littlewood import rootfind
from littlewood.exactnum import SurdSum, as_surdsum, certified_sign, fixed_enclosure
from littlewood.lattice import cartan_measure
from littlewood.numspec import parse_number_spec
from littlewood.rootfind import bisect_root, isolate_roots, poly_eval, poly_sign_at

from nums import SURD_POOL, bisect_root_halving, fixed_horner_minmax

SQRT2 = SurdSum.sqrt(2)
TOL = Fraction(1, 10**11)


def _cartan_cubic(rng):
    """g(t) -+ level for g(t) = ab t^3 - (a z0 + b y0) t^2 + y0 z0 t, as in
    cartan_measure, with some coefficients left as int or Fraction."""
    alpha, beta = (as_surdsum(s) for s in rng.sample(SURD_POOL, 2))
    y0, z0 = rng.randrange(0, 6), rng.randrange(0, 6)
    eps = Fraction(rng.randrange(1, 1000), 10 ** rng.randrange(1, 7))
    level = eps * alpha * beta if rng.random() < 0.5 else eps
    c0 = -level if rng.random() < 0.5 else level
    if isinstance(c0, SurdSum) and rng.random() < 0.5:
        c0 = c0.rational_part() or c0
    c1 = y0 * z0 if rng.random() < 0.5 else Fraction(y0 * z0)
    return [c0, c1, -(alpha * z0 + beta * y0), alpha * beta]


def _rational_cubic(rng):
    """(t - r1)(t - r2)(t - r3) with int and Fraction coefficients."""
    r = [Fraction(rng.randrange(-50, 50), rng.choice([1, 3, 7, 10, 1024])) for _ in range(3)]
    return [-r[0] * r[1] * r[2], r[0] * r[1] + r[0] * r[2] + r[1] * r[2], -sum(r), 1], r


def _points(rng, coeffs, near_root):
    """Non-dyadic and dyadic rationals; with near_root also the ends of a
    root enclosure of width 1e-8 and points within 1e-30 of that root,
    where the fixed-point enclosure holds 0 and the exact Horner decides."""
    pts = [
        Fraction(rng.randrange(-3 * 10**6, 3 * 10**6), rng.choice([3, 7, 10**6 + 3, 3**20])),
        Fraction(rng.randrange(-(2**40), 2**40), 2**38),
        Fraction(rng.randrange(-(10**9), 10**9), 3 * 10**8 + 1),
    ]
    roots = isolate_roots(coeffs, -10, 10, Fraction(1, 10**8)) if near_root else []
    if roots and roots[0][0] < roots[0][1]:
        lo, hi = roots[0]
        pts += [lo, hi, (lo + 2 * hi) / 3]
        lo, hi = bisect_root(coeffs, lo, hi, Fraction(1, 10**30))
        pts += [lo, hi, lo + (hi - lo) / 3]
    return pts


def test_interval_first_sign_agrees_with_exact_horner(monkeypatch):
    rng = random.Random(20261018)
    exact = []  # values the fallback computed

    def exact_horner(c, t):
        exact.append(poly_eval(c, t))
        return exact[-1]

    monkeypatch.setattr(rootfind, "poly_eval", exact_horner)
    checked = 0
    for i in range(500):
        if i % 5 == 4:
            coeffs, roots = _rational_cubic(rng)
            pts = _points(rng, coeffs, False) + roots
        else:
            coeffs = _cartan_cubic(rng)
            pts = _points(rng, coeffs, i % 10 == 0)
        for t in pts:
            assert poly_sign_at(coeffs, t) == certified_sign(poly_eval(coeffs, t)), (coeffs, t)
            checked += 1
    assert checked > 1800
    # the fallback decided both exact zeros and nonzero values below 2**-64
    assert sum(v.is_zero() for v in exact) > 100
    assert sum(not v.is_zero() for v in exact) > 50


def test_fixed_horner_encloses_the_exact_value():
    # integer coefficients leave only the rounding of the products as slack
    rng = random.Random(5)
    for i in range(300):
        if i % 2:
            coeffs = _cartan_cubic(rng)
        else:
            coeffs = [rng.randrange(-9, 10) for _ in range(4)]
        t = Fraction(rng.randrange(-(10**7), 10**7), rng.choice([3, 7, 10**6 + 3]))
        lo, hi = rootfind._fixed_horner(rootfind._fixed_coeffs(coeffs), *fixed_enclosure(t))
        exact = poly_eval(coeffs, t)
        assert certified_sign(exact - Fraction(lo, 2**64)) >= 0
        assert certified_sign(exact - Fraction(hi, 2**64)) <= 0


def test_exact_zero_goes_through_the_exact_path(monkeypatch):
    coeffs = [SQRT2 / 3, -(SQRT2 + Fraction(1, 3)), 1]  # (t - 1/3)(t - sqrt 2)
    calls = []
    monkeypatch.setattr(rootfind, "poly_eval", lambda c, t: calls.append(t) or poly_eval(c, t))
    assert poly_sign_at(coeffs, Fraction(1, 3)) == 0
    assert calls == [Fraction(1, 3)]
    assert poly_sign_at(coeffs, Fraction(1, 2)) == -1
    assert calls == [Fraction(1, 3)]  # decided in fixed point


def test_fixed_enclosure_is_outward_and_kept():
    s = SQRT2 * Fraction(-7, 3) + Fraction(1, 10**30)
    lo, hi = fixed_enclosure(s)
    assert 0 < hi - lo <= 4
    assert certified_sign(s - Fraction(lo, 2**64)) > 0
    assert certified_sign(s - Fraction(hi, 2**64)) < 0
    assert fixed_enclosure(s) is fixed_enclosure(s)
    assert fixed_enclosure(Fraction(-1, 3)) == (-(2**64) // 3, -((2**64) // 3))
    assert fixed_enclosure(Fraction(5, 4)) == (5 * 2**62, 5 * 2**62)


def _mantissa(rng, sign):
    """A mantissa of up to 200 bits with the given sign (0: either)."""
    m = rng.getrandbits(rng.choice([1, 8, 64, 65, 130, 200]))
    return -m if sign < 0 or (sign == 0 and rng.random() < 0.5) else m


def _enclosure(rng, kind):
    """(lo, hi) that is >= 0, <= 0, straddles 0, a point, or 0."""
    if kind == "zero":
        return 0, 0
    if kind == "point":
        m = _mantissa(rng, 0)
        return m, m
    if kind == "straddle":
        return -_mantissa(rng, 1) - 1, _mantissa(rng, 1) + 1
    sign = 1 if kind == "pos" else -1
    return tuple(sorted((_mantissa(rng, sign), _mantissa(rng, sign))))


def test_sign_split_horner_matches_the_four_product_oracle():
    rng = random.Random(20261019)
    kinds = ["pos", "neg", "straddle", "point", "zero"]
    for i in range(2000):
        t_lo, t_hi = _enclosure(rng, kinds[i % 5])
        degree = (i // 5) % 5
        fixed = [_enclosure(rng, rng.choice(kinds[:3])) for _ in range(degree + 1)]
        assert rootfind._fixed_horner(fixed, t_lo, t_hi) == fixed_horner_minmax(fixed, t_lo, t_hi)
    # and on the coefficient enclosures of cartan cubics at real probe points
    for _ in range(200):
        coeffs = _cartan_cubic(rng)
        fixed = rootfind._fixed_coeffs(coeffs)
        for t in _points(rng, coeffs, False):
            t_lo, t_hi = fixed_enclosure(t)
            assert rootfind._fixed_horner(fixed, t_lo, t_hi) == fixed_horner_minmax(fixed, t_lo, t_hi)


def test_probe_enclosure_from_integers_matches_fixed_enclosure(monkeypatch):
    seen = []
    horner = rootfind._fixed_horner
    monkeypatch.setattr(
        rootfind, "_fixed_horner", lambda f, lo, hi: seen.append((lo, hi)) or horner(f, lo, hi)
    )
    rng = random.Random(7)
    pts = [0, 1, -1, 5, -(2**70), Fraction(0), Fraction(-5, 4), Fraction(3, 2**70)]
    pts += [Fraction(rng.randrange(-(10**9), 10**9), rng.choice([3, 7, 2**64 + 1, 10**6 + 3]))
            for _ in range(200)]
    pts += [Fraction(rng.getrandbits(260) - 2**259, rng.getrandbits(250) | 2**240 | 1)
            for _ in range(200)]
    for t in pts:
        seen.clear()
        poly_sign_at([SQRT2, 1], t)
        assert seen == [fixed_enclosure(t)], t


# -- critical-point slivers ----------------------------------------------------

R = Fraction(1, 3)
DELTA = Fraction(1, 10**30)
QUADRATIC = [R * R - DELTA, -2 * R, 1]  # (t - r)^2 - delta: roots r -+ 1e-15
CUBIC = [0, R * R - DELTA, -2 * R, 1]  # t * ((t - r)^2 - delta)
ROOT_FREE = [R * R + DELTA, -2 * R, 1]  # (t - r)^2 + delta: no real root
# Scaled by 1e30 the values at the sliver ends are far above 2**-64, so
# only the mean-value term of the proof can reject the sliver; at scale 1
# and 1e-30 they are below 2**-64 and the exact Sturm count decides.
SCALES = [Fraction(1, 10**30), 1, 10**30]


def _assert_disjoint_enclosures(roots, exact):
    assert len(roots) == len(exact)
    assert all(a[1] < b[0] for a, b in zip(roots, roots[1:]))
    for (lo, hi), x in zip(roots, exact):
        assert lo <= x <= hi and hi - lo <= TOL


@pytest.mark.parametrize("scale", SCALES)
def test_two_roots_inside_one_sliver_are_both_found(scale):
    # the critical point 1/3 is never a probe point, so both roots sit in
    # one sliver whose end signs agree
    roots = isolate_roots([scale * c for c in QUADRATIC], -2, 2, TOL)
    eps = Fraction(1, 10**15)
    _assert_disjoint_enclosures(roots, [R - eps, R + eps])


@pytest.mark.parametrize("scale", SCALES)
def test_cubic_with_a_close_pair_keeps_all_three_roots(scale):
    roots = isolate_roots([scale * c for c in CUBIC], -2, 2, TOL)
    eps = Fraction(1, 10**15)
    _assert_disjoint_enclosures(roots, [0, R - eps, R + eps])


@pytest.mark.parametrize("scale", SCALES)
def test_root_free_sliver_with_its_extremum_near_the_level(scale):
    assert isolate_roots([scale * c for c in ROOT_FREE], -2, 2, TOL) == []
    sqrt2_free = [2 + DELTA * DELTA, -2 * SQRT2, 1]  # (t - sqrt 2)^2 + 1e-60
    assert isolate_roots([scale * c for c in sqrt2_free], 0, 2, TOL) == []


def test_pair_closer_than_any_fixed_precision_is_separated():
    delta = Fraction(1, 10**300)  # roots r -+ 1e-150
    roots = isolate_roots([R * R - delta, -2 * R, 1], -2, 2, TOL)
    eps = Fraction(1, 10**150)
    assert len(roots) == 2 and roots[0][1] < roots[1][0]
    assert roots[0][0] <= R - eps <= roots[0][1]
    assert roots[1][0] <= R + eps <= roots[1][1]


def _assert_tangency_enclosure(coeffs, root, x):
    lo, hi = root
    assert certified_sign(as_surdsum(x) - lo) >= 0
    assert certified_sign(hi - as_surdsum(x)) >= 0
    assert 0 < hi - lo <= TOL
    assert poly_sign_at(coeffs, lo) == poly_sign_at(coeffs, hi) != 0


def test_tangency_at_an_irrational_point_is_enclosed():
    # (t - sqrt 2)^2 touches 0 at a point no probe can land on
    coeffs = [2, -2 * SQRT2, 1]
    (root,) = isolate_roots(coeffs, 0, 2, TOL)
    _assert_tangency_enclosure(coeffs, root, SQRT2)


def test_tangency_of_a_cubic_next_to_a_simple_root():
    # (t - 1)^2 (t - 4): the double root 1 is never a bisection point
    coeffs = [-4, 9, -6, 1]
    tangent, simple = isolate_roots(coeffs, -10, 10, TOL)
    _assert_tangency_enclosure(coeffs, tangent, 1)
    assert simple[0] <= 4 <= simple[1] and tangent[1] < simple[0]


def _poly_mul(p, q):
    out = [as_surdsum(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + as_surdsum(a) * b
    return out


def test_close_pairs_and_tangencies_around_irrational_critical_points():
    # lead * ((t - c)^2 - delta) * prod (t - x): degrees 3 to 5, so the
    # Sturm chains see degree drops of one and of two and leading
    # coefficients of both signs
    rng = random.Random(11)
    for _ in range(30):
        c = SQRT2 * Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
        delta = rng.choice([0, Fraction(1, 10 ** rng.randrange(20, 40))])
        others = {Fraction(rng.randrange(-90, 90), 10) for _ in range(rng.randrange(1, 4))}
        coeffs = [rng.choice([-3, 1, Fraction(1, 7)])]
        coeffs = _poly_mul(coeffs, [c * c - delta, -2 * c, 1])
        for x in others:
            coeffs = _poly_mul(coeffs, [-x, 1])
        roots = isolate_roots(coeffs, -20, 20, TOL)
        assert len(roots) == len(others) + (2 if delta else 1)
        assert all(a[1] < b[0] for a, b in zip(roots, roots[1:]))
        for x in others:
            assert any(lo <= x <= hi for lo, hi in roots)
        for lo, hi in roots:
            assert hi - lo <= TOL
            if lo < hi:
                s_lo, s_hi = poly_sign_at(coeffs, lo), poly_sign_at(coeffs, hi)
                assert s_lo * s_hi < 0 or (not delta and s_lo == s_hi)


@pytest.mark.parametrize("delta, count", [(DELTA, 2), (0, 1), (-DELTA, 0)])
def test_quartic_whose_sturm_chain_drops_two_degrees(delta, count):
    # t^4 + 4t + 3 - delta has its minimum -delta at t = -1; the chain
    # p, p', -48t - 16(3 - delta), ... has a negative leading coefficient
    # followed by a drop of two degrees
    coeffs = [3 - delta, 4, 0, 0, 1]
    roots = isolate_roots(coeffs, -2, 3, TOL)
    assert len(roots) == count
    if count == 1:
        assert roots[0][0] < -1 < roots[0][1] <= roots[0][0] + TOL
    if count == 2:
        # -1 -+ sqrt(delta / 6) + O(delta), about -1 -+ 4.1e-16
        eps = Fraction(1, 10**15)
        assert -1 - eps < roots[0][0] <= roots[0][1] < -1 < roots[1][0]
        assert roots[1][1] < -1 + eps


def test_exact_root_at_a_sliver_end_or_midpoint():
    # (t - c)^2 - (b - c)^2 has the roots b and 2c - b.  With b an end of
    # the critical-point sliver around c, p vanishes at that end and the
    # other root lies inside the sliver or just past its far end; with b
    # its midpoint and 2c - b inside too, the first Sturm split lands on a
    # root and moves
    for k in range(1, 9):
        c = SQRT2 * Fraction(k, 7)
        crit_tol = TOL / 4
        ((c_lo, c_hi),) = isolate_roots([-2 * c, 2], -2, 2, crit_tol)
        mid = (c_lo + c_hi) / 2
        for b in (c_lo, c_hi, mid):
            coeffs = [2 * b * c - b * b, -2 * c, 1]
            if b == mid and poly_sign_at(coeffs, c_lo) != poly_sign_at(coeffs, c_hi):
                continue  # 2c - b lies past an end: no sliver search
            roots = isolate_roots(coeffs, -2, 2, TOL)
            assert len(roots) == 2 and roots[0][1] < roots[1][0]
            if b != mid:
                assert (b, b) in roots
            ends = sorted(
                [as_surdsum(b), 2 * c - b], key=cmp_to_key(lambda u, v: certified_sign(u - v))
            )
            for x, (lo, hi) in zip(ends, roots):
                assert certified_sign(x - lo) >= 0 and certified_sign(hi - x) >= 0


def test_tangency_next_to_a_simple_root_stays_disjoint():
    # (t - c)^2 (t - e) with e within tol of c: the tangency enclosure must
    # not touch the sliver end that the enclosure of e may reach
    for j in range(1, 6):
        c = SQRT2 * Fraction(j, 5)
        near_c = Fraction(round(float(c) * 10**14), 10**14)
        for k in range(-2, 3):
            e = near_c + k * TOL / 16
            coeffs = _poly_mul([c * c, -2 * c, 1], [-e, 1])
            roots = isolate_roots(coeffs, -3, 3, TOL)
            assert len(roots) == 2 and roots[0][1] < roots[1][0]
            assert any(lo <= e <= hi for lo, hi in roots)
            (tangent,) = [r for r in roots if not r[0] <= e <= r[1]]
            _assert_tangency_enclosure(coeffs, tangent, c)


def _surd_poly(rng, degree):
    """Random polynomial with SurdSum coefficients; the leading one is an
    irrational surd plus a rational, so it is never 0."""
    def coeff():
        k = rng.choice([-3, -2, -1, 1, 2, 3])
        return as_surdsum(rng.choice(SURD_POOL)) * k + Fraction(rng.randrange(-9, 10), rng.choice([1, 3, 7]))
    return [coeff() for _ in range(degree + 1)]


def _bisection_tols(lo, hi):
    """Tolerances around the step-count boundary of [lo, hi]: exactly
    width / 2**k, just above and below it, not a power-of-two fraction of
    the width, and at least the width (no halving at all)."""
    w = hi - lo
    exact = w / 2**17
    return [exact, exact * (1 + Fraction(1, 10**20)), exact * (1 - Fraction(1, 10**20)),
            Fraction(1, 10**11), Fraction(1, 3 * 10**7), w, 2 * w]


def test_integer_bisection_matches_fraction_halving():
    rng = random.Random(1118)
    orientations = set()
    for degree in [3] * 12 + [4] * 12:
        coeffs = _surd_poly(rng, degree)
        R = rootfind.root_magnitude_bound(coeffs)
        # -R, R and non-dyadic points between them; brackets are the
        # consecutive pairs with opposite signs
        pts = sorted({-R, R} | {R * Fraction(rng.randrange(-999, 1000), 1001) for _ in range(10)})
        signs = [poly_sign_at(coeffs, t) for t in pts]
        brackets = [(a, b) for a, b, sa, sb in zip(pts, pts[1:], signs, signs[1:]) if sa * sb < 0]
        if signs[0] * signs[-1] < 0:
            brackets.append((pts[0], pts[-1]))
        for lo, hi in brackets:
            orientations.add(poly_sign_at(coeffs, lo))
            for tol in _bisection_tols(lo, hi):
                expect = bisect_root_halving(coeffs, lo, hi, tol)
                assert bisect_root(coeffs, lo, hi, tol) == expect
                assert expect[1] - expect[0] <= tol
    assert orientations == {-1, 1}


@pytest.mark.parametrize("flip", [1, -1])
def test_integer_bisection_stops_on_an_exact_rational_root(flip):
    # on [-1/3, 2/3] the third probe is -1/3 + 3/8 = 1/24, the root
    coeffs = [flip * c for c in _poly_mul([-Fraction(1, 24), 1], [SQRT2, 0, 1])]
    lo, hi = Fraction(-1, 3), Fraction(2, 3)
    for tol in (Fraction(1, 10**9), Fraction(1, 8)):
        assert bisect_root(coeffs, lo, hi, tol) == bisect_root_halving(coeffs, lo, hi, tol)
    assert bisect_root(coeffs, lo, hi, Fraction(1, 10**9)) == (Fraction(1, 24), Fraction(1, 24))
    # with tol = 1/4 the loop stops after two halvings, above the root
    assert bisect_root(coeffs, lo, hi, Fraction(1, 4)) == (Fraction(-1, 12), Fraction(1, 6))
    with pytest.raises(ValueError, match="tol must be positive"):
        bisect_root(coeffs, lo, hi, Fraction(0))


def test_bisection_probes_the_points_of_fraction_halving(monkeypatch):
    """The integer-indexed bisection makes the probes of the halving oracle,
    in the same order, on every call of the two tests above."""
    probes, checked = [], []
    sign_at = rootfind.poly_sign_at
    monkeypatch.setattr(
        rootfind, "poly_sign_at", lambda c, t, f=None: probes.append(t) or sign_at(c, t, f)
    )

    def checked_bisect_root(coeffs, lo, hi, tol):
        probes.clear()
        result = rootfind.bisect_root(coeffs, lo, hi, tol)
        ours = list(probes)
        probes.clear()
        bisect_root_halving(coeffs, lo, hi, tol)
        assert ours == probes
        checked.append(len(ours))
        return result

    monkeypatch.setitem(globals(), "bisect_root", checked_bisect_root)
    test_integer_bisection_matches_fraction_halving()
    for flip in (1, -1):
        test_integer_bisection_stops_on_an_exact_rational_root(flip)
    assert len(checked) > 100 and max(checked) > 20


def test_root_bound_raises_the_precision_for_a_tiny_leading_coefficient():
    # sqrt(2) - p/q at the order-30 convergent (q = 259,717,522,849) is
    # about 5e-24, inside the rounding of a 64-bit enclosure; the bound on
    # the root -1 / lead of 1 + lead t needs a positive lower end of lead
    lead = SurdSum.sqrt(2) - Fraction(367296043199, 259717522849)
    assert lead.interval(64).contains_zero()
    R = rootfind.root_magnitude_bound([1, lead])
    assert certified_sign(R * lead - 1) > 0  # -1/lead lies in (-R, R)


def test_cartan_probe_count_is_the_benchmark_pin(monkeypatch):
    # bench/selftest.py pins 1,098 probes on this configuration
    calls = []
    sign_at = rootfind.poly_sign_at
    monkeypatch.setattr(
        rootfind, "poly_sign_at", lambda *args: calls.append(args[1]) or sign_at(*args)
    )
    alpha = parse_number_spec("quad:-1,1,1,2", frac=True).value()
    beta = parse_number_spec("quad:-1,1,1,3", frac=True).value()
    assert cartan_measure(alpha, beta, 1, 2, Fraction(1, 1000)).monic_within_bound
    assert len(calls) == 1098
