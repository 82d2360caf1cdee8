"""DyadicInterval on integer mantissas against the Fraction-endpoint
formulas it replaced.

The oracle below keeps those formulas: endpoints are Fractions, sums and
products are exact Fraction arithmetic, and rounding is floor/ceil of a
rational times 2**bits.  For seeded random dyadic and non-dyadic rationals
every operation must give the same lo/hi as the oracle and enclose the exact
value.
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from littlewood.exactnum import DyadicInterval, SurdSum

from nums import surd_terms_outward

BITS = (8, 53, 64, 160)


# -- oracle: the Fraction-endpoint formulas ----------------------------------


def round_down(x, bits):
    x = Fraction(x)
    return Fraction((x.numerator << bits) // x.denominator, 1 << bits)


def round_up(x, bits):
    x = Fraction(x)
    return Fraction(-((-x.numerator << bits) // x.denominator), 1 << bits)


def o_point(x, bits):
    return round_down(x, bits), round_up(x, bits)


def o_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def o_neg(a):
    return -a[1], -a[0]


def o_mul(a, b):
    products = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
    return min(products), max(products)


def o_abs(a):
    if a[0] >= 0:
        return a
    if a[1] <= 0:
        return o_neg(a)
    return Fraction(0), max(-a[0], a[1])


def o_divide(a, b, bits):
    quotients = [a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1]]
    return round_down(min(quotients), bits), round_up(max(quotients), bits)


def o_sqrt_interval(x, bits):
    scaled = (x.numerator << (2 * bits)) // x.denominator
    m = math.isqrt(scaled)
    lo = Fraction(m, 1 << bits)
    return (lo, lo) if lo * lo == x else (lo, Fraction(m + 1, 1 << bits))


def o_sqrt(a, bits):
    return o_sqrt_interval(a[0], bits)[0], o_sqrt_interval(a[1], bits)[1]


def o_surdsum_interval(terms, bits):
    work = bits + max(1, len(terms)).bit_length() + 4
    total = (Fraction(0), Fraction(0))
    for rad, coef in sorted(terms.items()):
        if rad == 1:
            total = o_add(total, o_point(coef, work))
        else:
            r_lo, r_hi = o_sqrt_interval(Fraction(rad), work)
            lo = round_down(min(r_lo * coef, r_hi * coef), work)
            hi = round_up(max(r_lo * coef, r_hi * coef), work)
            total = o_add(total, (lo, hi))
    return total


# -- random inputs -----------------------------------------------------------


def random_rational(rng):
    num = rng.randint(-(10**12), 10**12)
    if rng.random() < 0.5:
        return Fraction(num, 1 << rng.randint(0, 80))  # dyadic
    return Fraction(num, rng.randint(1, 10**9))


def cases(seed, count=150):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, rng.choice(BITS), random_rational(rng), random_rational(rng)


def ends(iv):
    return iv.lo, iv.hi


def encloses(iv, x):
    return iv.lo <= x <= iv.hi


# -- tests -------------------------------------------------------------------


def test_point_and_ring_operations_match_oracle():
    for rng, bits, x, y in cases(1):
        X, Y = DyadicInterval.point(x, bits), DyadicInterval.point(y, bits)
        ox, oy = o_point(x, bits), o_point(y, bits)
        assert ends(X) == ox and encloses(X, x)
        assert ends(X + Y) == o_add(ox, oy) and encloses(X + Y, x + y)
        assert ends(X - Y) == o_add(ox, o_neg(oy)) and encloses(X - Y, x - y)
        assert ends(X * Y) == o_mul(ox, oy) and encloses(X * Y, x * y)
        assert ends(X.abs()) == o_abs(ox) and encloses(X.abs(), abs(x))


def test_mixed_scales_and_value_equality():
    for rng, bits, x, y in cases(2):
        X = DyadicInterval.point(x, bits)
        Y = DyadicInterval.point(y, rng.choice(BITS))
        ox, oy = ends(X), ends(Y)
        assert ends(X + Y) == o_add(ox, oy)
        assert ends(X * Y * X) == o_mul(o_mul(ox, oy), ox)
        # the same value at another scale is the same interval
        wider = DyadicInterval(X.lo_m << 7, X.hi_m << 7, X.exp + 7)
        assert wider == X and hash(wider) == hash(X)
    assert DyadicInterval(1, 2, 3) != DyadicInterval(1, 3, 3)


def test_divide_matches_oracle():
    for rng, bits, x, y in cases(3):
        if y == 0:
            continue
        X = DyadicInterval.point(x, rng.choice(BITS))
        Y = DyadicInterval.point(y, rng.choice(BITS))
        if Y.contains_zero():
            continue
        Q = X.divide(Y, bits)
        assert ends(Q) == o_divide(ends(X), ends(Y), bits)
        assert encloses(Q, x / y)
        assert Q.exp == bits
    with pytest.raises(ZeroDivisionError):
        DyadicInterval.point(1).divide(DyadicInterval(-1, 1, 0), 64)


def test_sqrt_matches_oracle():
    for rng, bits, x, y in cases(4):
        X = DyadicInterval.point(abs(x), rng.choice(BITS)) + DyadicInterval.point(
            abs(y), rng.choice(BITS)
        )
        S = X.sqrt(bits)
        assert ends(S) == o_sqrt(ends(X), bits)
        assert S.lo**2 <= X.lo and X.hi <= S.hi**2
    assert ends(DyadicInterval.point(Fraction(9, 4), 8).sqrt(16)) == (
        Fraction(3, 2),
        Fraction(3, 2),
    )


def random_surdsum(rng):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        rad = rng.choice([1, 2, 3, 5, 6, 7, 10, 11, 13, 30, 9999991])
        terms[rad] = random_rational(rng) or Fraction(1)
    return SurdSum(terms)


def mp_value(s):
    return sum(
        mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(rad) for rad, c in s.terms()
    ) if not s.is_zero() else mpmath.mpf(0)


def test_surdsum_interval_and_fixed_enclosure_match_oracle():
    rng = random.Random(5)
    with mpmath.workprec(2000):
        for _ in range(200):
            s = random_surdsum(rng)
            bits = rng.choice(BITS)
            iv = s.interval(bits)
            assert ends(iv) == o_surdsum_interval(dict(s.terms()), bits)
            v = mp_value(s)
            assert mpmath.mpf(iv.lo.numerator) / iv.lo.denominator <= v
            assert v <= mpmath.mpf(iv.hi.numerator) / iv.hi.denominator


def test_surd_terms_match_the_two_rounding_form():
    # one divmod per term against a floor and a ceiling division per end:
    # rad = 1 and squarefree radicands, both signs, unreduced p/q (a
    # common factor, q a power of two or q = 1), 0 to 4 terms
    rng = random.Random(37)
    rads = [1, 2, 3, 5, 6, 7, 30, 78, 9999991]
    for _ in range(3000):
        terms = []
        for _ in range(rng.randint(0, 4)):
            p = rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(1, 80))
            q = rng.choice((1, 1 << rng.randint(0, 300), rng.randint(1, 10 ** rng.randint(1, 80))))
            k = rng.choice((1, 1, rng.randint(2, 10**6)))
            terms.append((rng.choice(rads), k * p, k * q))
        bits = rng.randint(1, 256)
        iv = DyadicInterval.of_surd_terms(terms, bits)
        assert (iv.lo_m, iv.hi_m, iv.exp) == surd_terms_outward(terms, bits), (terms, bits)


@pytest.mark.parametrize("rad", [1, 2])
@pytest.mark.parametrize("p", [1, -1, 3, -3, 7, -7])
def test_surd_term_ends_at_small_exact_quotients(rad, p):
    # q dividing m*p, or r + p landing on 0 or on q: every carry of the
    # second division, at every q up to 9 and at precisions 1 to 8
    for q in range(1, 10):
        for bits in range(1, 9):
            iv = DyadicInterval.of_surd_terms([(rad, p, q)], bits)
            assert (iv.lo_m, iv.hi_m, iv.exp) == surd_terms_outward([(rad, p, q)], bits)
