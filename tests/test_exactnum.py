"""Exact-number layer: canonical forms, exact comparisons, floors and
nearest integers, certified signs, and conservativeness of the interval
arithmetic."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from littlewood import exactnum
from littlewood.exactnum import (
    SurdSum,
    _inverse_square_floor,
    as_surdsum,
    certified_sign,
    iroot,
    root_interval,
    squarefree_decompose,
)
from littlewood.numspec import NumberSpecError, parse_number_spec

from nums import FracSurd, quad

mpmath.mp.dps = 60


# -- normalization -----------------------------------------------------------


def test_normalize_extracts_square_factor():
    # (2 + 2*sqrt(8))/4 = 1/2 + sqrt(2)
    s = SurdSum({1: Fraction(2, 4), 8: Fraction(2, 4)})
    assert dict(s.terms()) == {1: Fraction(1, 2), 2: Fraction(1)}


def test_normalize_collapses_rational():
    assert quad(3, 0, 3, 7).terms() == ((1, Fraction(1)),)
    assert SurdSum({4: 3, 1: -6}).is_zero()  # 3*sqrt(4) - 6


def test_normalize_canonical_is_fixed():
    s = SurdSum.sqrt(2)
    assert SurdSum(dict(s.terms())) == s
    assert SurdSum(dict(s.terms())).terms() == s.terms()


def test_zero_denominator_rejected():
    for text in ("quad:1,1,0,2", "quad:1,1,1,-2"):
        with pytest.raises(NumberSpecError):
            parse_number_spec(text)


raw_surds = st.tuples(
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(-20, 20).filter(lambda c: c != 0),
    st.integers(0, 200),
)


@settings(max_examples=200, deadline=None)
@given(raw_surds)
def test_normalize_idempotent(raw):
    s = quad(*raw)
    assert SurdSum(dict(s.terms())) == s
    assert all(squarefree_decompose(rad)[0] == 1 for rad, _ in s.terms())


@settings(max_examples=100, deadline=None)
@given(raw_surds)
def test_normalize_preserves_value(raw):
    a, b, c, d = raw
    # (c*s - a)**2 = b**2 * d exactly
    t = quad(*raw) * c - a
    assert (t * t - b * b * d).is_zero()


# -- exact comparison --------------------------------------------------------


def test_compare_examples():
    assert certified_sign(SurdSum.sqrt(2) - Fraction(3, 2)) == -1  # 2 < 9/4
    assert certified_sign(quad(1, 1, 2, 5) - 1) == 1
    # oracle: (2/5 + 1)^2 = 49/25 < 2, so sqrt(2) - 1 > 2/5
    assert Fraction(7, 5) ** 2 < 2
    assert certified_sign(quad(-1, 1, 1, 2) - Fraction(2, 5)) == 1


def test_compare_equality():
    assert certified_sign(quad(3, 0, 2, 0) - Fraction(3, 2)) == 0


@settings(max_examples=200, deadline=None)
@given(raw_surds, st.fractions(min_value=-100, max_value=100))
def test_compare_agrees_with_interval(raw, r):
    s = quad(*raw)
    iv = s.interval(128)
    if iv.hi < r:
        assert certified_sign(s - r) == -1
    elif iv.lo > r:
        assert certified_sign(s - r) == 1
    # interval containing r decides nothing; exactness checked elsewhere


# -- floor and nearest integer -----------------------------------------------


def test_floor_and_nearest():
    assert SurdSum.sqrt(2).floor() == 1
    assert quad(0, -1, 1, 2).floor() == -2
    assert quad(1, 1, 2, 5).floor() == 1
    assert quad(-1, 1, 1, 2).nearest()[0] == 0
    assert quad(0, 3, 1, 2).nearest()[0] == 4  # 4.24


def test_nearest_int_rounds_rational_ties_up():
    assert SurdSum.from_rational(Fraction(1, 2)).nearest()[0] == 1
    assert SurdSum.from_rational(Fraction(-1, 2)).nearest()[0] == 0
    assert SurdSum.from_rational(Fraction(-3)).nearest() == (-3, SurdSum())


def test_residual_is_signed():
    m, r = (quad(-1, 1, 1, 2) * 5).nearest()
    assert m == 2
    assert r == SurdSum({1: -7, 2: 5})  # 5*sqrt(2) - 7


def test_residual_of_canonical_surd_factors_nothing(monkeypatch):
    alphas = [quad(-1, 1, 1, 2), quad(3, -2, 7, 999983)]
    calls = []
    real = exactnum.squarefree_decompose
    monkeypatch.setattr(
        exactnum, "squarefree_decompose", lambda n: calls.append(n) or real(n)
    )
    for alpha in alphas:
        for x in (1, 5, 12345):
            m, r = (alpha * x).nearest()
            assert calls == []
            assert r == alpha * x - m
            assert certified_sign(r - Fraction(1, 2)) <= 0
            assert certified_sign(r + Fraction(1, 2)) >= 0


@pytest.mark.parametrize("n", [1, 2, 40, 41, 200, 201])
def test_floor_and_nearest_next_to_an_integer(n):
    # (1 + sqrt 2)**n = L - (1 - sqrt 2)**n with L an integer, so it lies
    # within 2.4**-n of L: below at even n, above at odd n, and for n >= 40
    # its coefficients are past 2**50
    s = (1 + SurdSum.sqrt(2)) ** n
    conj = (1 - SurdSum.sqrt(2)) ** n
    L = (s + conj).as_fraction()
    assert L.denominator == 1
    assert s.floor() == (L - 1 if n % 2 == 0 else L)
    assert s.nearest() == (L, -conj)
    assert (-s).floor() == (-L if n % 2 == 0 else -L - 1)


def test_floor_matches_integer_square_roots():
    # floor((a + b sqrt d) / c) = floor((a + isqrt(b^2 d)) / c) for b, c > 0
    rng = random.Random(31)
    for _ in range(2000):
        a, b = rng.randrange(-10**30, 10**30), rng.randrange(1, 10**25)
        c, d = rng.randrange(1, 10**6), rng.randrange(2, 10**4)
        if math.isqrt(d) ** 2 == d:
            continue
        assert quad(a, b, c, d).floor() == (a + math.isqrt(b * b * d)) // c


def test_rational_factor_scales_the_coefficients(monkeypatch):
    s = quad(2, -3, 7, 12)  # (2 - 6 sqrt 3) / 7
    monkeypatch.setattr(exactnum, "squarefree_decompose", None)  # nothing is factored
    assert dict((s * 7).terms()) == {1: 2, 3: -6}
    assert dict((Fraction(7, 2) * s).terms()) == {1: 1, 3: -3}
    assert (s * 0).is_zero() and (0 * s).is_zero()
    assert s * 7 == s * as_surdsum(7)


# -- intervals ---------------------------------------------------------------


def test_interval_sqrt2():
    iv = SurdSum.sqrt(2).interval(10)
    # oracle: integer square-root refinement
    assert iv.lo <= Fraction(14142135623730951, 10**16) <= iv.hi
    assert iv.width <= Fraction(1, 1 << 10) * 2


def test_interval_dyadic_rational_exact():
    iv = SurdSum.from_rational(Fraction(1, 2)).interval(5)
    assert iv.lo == iv.hi == Fraction(1, 2)


def test_interval_golden():
    iv = quad(1, 1, 2, 5).interval(20)
    golden = Fraction(16180339887498949, 10**16)
    assert iv.lo <= golden <= iv.hi
    assert iv.width <= Fraction(2, 1 << 20)


def test_interval_width_contract_random():
    for bits in (8, 16, 53, 200):
        iv = quad(123, 45, 7, 31).interval(bits)
        value_hi = max(abs(iv.lo), abs(iv.hi))
        assert iv.width <= Fraction(1, 1 << bits) * max(1, value_hi)


def test_sqrt_interval_exact_square():
    iv = root_interval(Fraction(9, 4), 2, 16)
    assert iv.lo == iv.hi == Fraction(3, 2)


def test_root_interval():
    iv = root_interval(Fraction(1, 50), 8, 64)
    v = mpmath.mpf(1) / 50
    ref = v ** (mpmath.mpf(1) / 8)
    assert float(iv.lo) <= float(ref) <= float(iv.hi)
    assert iv.width <= Fraction(1, 1 << 64)


def test_iroot():
    assert iroot(2**64, 4) == 2**16
    assert iroot(2**64 - 1, 4) == 2**16 - 1
    assert iroot(26, 3) == 2
    assert iroot(27, 3) == 3


def test_squarefree_decompose():
    assert squarefree_decompose(8) == (2, 2)
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(0) == (1, 0)
    assert squarefree_decompose(999983**2 * 7) == (999983, 7)
    s, f = squarefree_decompose(2 * 3**4 * 49)
    assert s == 9 * 7 and f == 2


def test_squarefree_decompose_past_the_trial_limit():
    # cofactors above 10**15 with no factor <= 10**5 extend the trial
    # division to their cube root; 100003, 100019 and 100043 are prime
    assert squarefree_decompose(100003 * 100019 * 100043) == (1, 1000650100302451)
    assert squarefree_decompose(100003**2 * 100019) == (100003, 100019)
    assert squarefree_decompose(2**3 * 100003**2 * 100019) == (2 * 100003, 2 * 100019)
    assert squarefree_decompose(1000003**2) == (1000003, 1)  # a square cofactor
    # a cube root past 10**6 is refused, not guessed
    with pytest.raises(ValueError, match="cannot certify"):
        squarefree_decompose(1000003 * 1000033 * 1000037)


@pytest.mark.parametrize(
    "m,c,cap,key",
    [
        (Fraction(1, 8), Fraction(1, 32), 10**6, 2),  # c / m**2 = 2 exactly
        (Fraction(1, 8), Fraction(1, 32) - Fraction(1, 2**140), 10**6, 1),
        (Fraction(1, 8), Fraction(1, 32), 1, 1),  # capped
        (Fraction(0), Fraction(1, 32), 7, 7),  # m = 0 gives the cap
        (SurdSum.sqrt(2) - 1, 3, 10**6, 17),  # 3 (3 + 2 sqrt(2)) = 17.48...
        (SurdSum.sqrt(2, Fraction(1, 3)), 2, 10**6, 9),  # m**2 = 2/9: a tie
        (SurdSum.sqrt(2, Fraction(1, 3)), 2 - Fraction(1, 2**100), 10**6, 8),
        (SurdSum.sqrt(3) - Fraction(17320508075688772, 10**16), Fraction(1, 10**6), 2**200, None),
    ],
)
def test_inverse_square_floor_general_numerator(m, c, cap, key):
    m = as_surdsum(m)
    got = _inverse_square_floor(m, c, cap)
    if key is None:  # a 10**-17-sized m: floor(c/m**2) ~ 10**27, checked exactly
        assert 10**25 < got < cap
        assert certified_sign(m * m * got - c) <= 0 < certified_sign(m * m * (got + 1) - c)
    else:
        assert got == key


# -- certified sign ----------------------------------------------------------


def test_certified_sign_exact_zero():
    r2 = SurdSum.sqrt(2)
    assert certified_sign(r2 * r2 - 2) == 0


def test_certified_sign_mixed_radicals():
    r2, r3, r6 = SurdSum.sqrt(2), SurdSum.sqrt(3), SurdSum.sqrt(6)
    assert certified_sign(r2 * r3 - r6 + 1) == 1
    assert certified_sign(r2 * r3 - r6) == 0  # exact zero across two radicals


def test_certified_sign_f_at_lattice_point():
    # 3*(3*sqrt(2) - 4)*(3*sqrt(3) - 5): both factors positive
    r2, r3 = SurdSum.sqrt(2), SurdSum.sqrt(3)
    assert certified_sign(3 * (3 * r2 - 4) * (3 * r3 - 5)) == 1


def test_sign_tiny_but_nonzero():
    # sqrt(2) approximated by a convergent: tiny difference, exact sign
    r2 = SurdSum.sqrt(2)
    c = Fraction(131836323, 93222358)  # convergent of sqrt(2), error ~ 6e-17
    assert certified_sign(r2 - c) in (-1, 1)
    assert certified_sign((r2 - c) * (r2 - c)) == 1


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 6, 7, 10]),
    st.integers(1, 1000),
    st.integers(-2000, 2000),
)
def test_linear_form_never_zero(d, x, y):
    # alpha irrational, x >= 1: alpha*x - y cannot vanish
    alpha = SurdSum.sqrt(d)
    assert certified_sign(alpha * x - y) != 0


# -- the doubling schedule and the separation bound -------------------------


def _count_sign_exact(monkeypatch) -> list:
    calls = []
    sign_exact = SurdSum._sign_exact
    monkeypatch.setattr(
        SurdSum, "_sign_exact", lambda s, bits: calls.append(s) or sign_exact(s, bits)
    )
    return calls


def test_sign_undecided_at_64_bits_is_decided_by_doubling(monkeypatch):
    # sqrt(2) - p/q for a convergent with q ~ 2**45: |s| ~ 2**-92, so
    # interval(64) straddles 0; the separation precision lies in (128, 256],
    # so the schedule still tries 128 bits, which decides it
    p, q = 1, 1
    while q.bit_length() < 45:
        p, q = p + 2 * q, p + q
    s = SurdSum.sqrt(2) - Fraction(p, q)
    assert s.interval(64).sign_or_none() is None
    assert 128 < exactnum._separation_bits(s) <= 256
    calls = _count_sign_exact(monkeypatch)
    expected = 1 if p * p < 2 * q * q else -1
    assert certified_sign(s) == expected
    assert certified_sign(-s) == -expected
    assert calls == []


@pytest.mark.parametrize(
    "unit, n",
    [((1, 2), 3303), ((1, 2), 3304), ((2, 5), 2017), ((2, 5), 2018)],
)
def test_sign_of_pell_near_zero_past_the_cap(monkeypatch, unit, n):
    # (a - sqrt(d))**n = p - q*sqrt(d) with q ~ 2**4200 and |p - q*sqrt(d)|
    # ~ 2**-4200, past any fixed precision cap: undecided at 8192 bits, the
    # last doubling below the separation precision, and decided at that one
    a, d = unit
    s = (a - SurdSum.sqrt(d)) ** n
    (_, p), (_, minus_q) = sorted(s.terms())
    assert p > 0 > minus_q and p.numerator.bit_length() > 4150
    assert 8192 < exactnum._separation_bits(s) <= 16384
    assert s.interval(8192).sign_or_none() is None
    calls = _count_sign_exact(monkeypatch)
    assert certified_sign(s) == (-1) ** n
    assert certified_sign(-s) == -((-1) ** n)
    assert len(calls) == 2


def test_sign_of_a_near_zero_over_three_radicands(monkeypatch):
    # a small unit of Q(sqrt 2, sqrt 3): its three other conjugates are all
    # about 2**1400, so s ~ 2**-4200 with coefficients ~ 2**1400
    r2, r3 = SurdSum.sqrt(2), SurdSum.sqrt(3)
    s = (r2 - 1) ** 1100 * (2 - r3) ** 735 * (r3 - r2) ** 845
    assert sorted(d for d, _ in s.terms()) == [1, 2, 3, 6]
    calls = _count_sign_exact(monkeypatch)
    assert certified_sign(s) == 1
    assert certified_sign(-s) == -1
    assert len(calls) == 2


def test_separation_bound_failure_is_an_assertion(monkeypatch):
    s = (1 - SurdSum.sqrt(2)) ** 3303
    monkeypatch.setattr(exactnum, "_separation_bits", lambda s: 100)
    with pytest.raises(AssertionError):
        certified_sign(s)


def test_separation_degree_is_two_to_the_radicand_rank():
    # sqrt 2, sqrt 3 and sqrt 6 span a field of degree 4, not 2**3
    s = SurdSum({1: -7, 2: 1, 3: 1, 6: 5})
    H = 7 * 1 + 1 * 2 + 1 * 2 + 5 * 3  # sum |a_i| * ceil(sqrt(d_i))
    assert exactnum._separation_bits(s) == 1 + 3 * H.bit_length() + (H + 8).bit_length()
    assert exactnum._radicand_rank([1, 2, 3, 6]) == 2
    assert exactnum._radicand_rank([6, 10, 15]) == 2
    assert exactnum._radicand_rank([2, 3, 5, 6, 10, 15, 30]) == 3
    assert exactnum._radicand_rank([2, 9999991, 19999982]) == 2
    assert exactnum._radicand_rank([1]) == 0


def test_separation_bound_holds_on_random_sums():
    # |s| >= 2**-b on random small sums, many of them near a rational
    rng = random.Random(2000)
    radicands = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 21, 30]
    for _ in range(400):
        terms = {
            d: Fraction(rng.randint(-40, 40) or 1, rng.randint(1, 12))
            for d in rng.sample(radicands, rng.randint(1, 4))
        }
        s = SurdSum(terms)
        if rng.random() < 0.7:  # cancel to near a rational of bounded height
            s = s - Fraction(float(s)).limit_denominator(rng.choice([10, 10**4, 10**9]))
        b = exactnum._separation_bits(s)
        iv = s.interval(2 * b + 64)
        assert min(abs(iv.lo_m), abs(iv.hi_m)) >= 1 << (iv.exp - b)
        assert iv.lo_m > 0 or iv.hi_m < 0
        assert s._sign_exact(b) == certified_sign(s)


# -- interval conservativeness against an independent evaluator -------------


def _mp_value(expr):
    kind = expr[0]
    if kind == "rat":
        return mpmath.mpf(expr[1].numerator) / expr[1].denominator
    if kind == "sqrt":
        return mpmath.sqrt(expr[1])
    left = _mp_value(expr[1])
    right = _mp_value(expr[2])
    return {"add": left + right, "sub": left - right, "mul": left * right}[kind]


def _exact_value(expr):
    kind = expr[0]
    if kind == "rat":
        return as_surdsum(expr[1])
    if kind == "sqrt":
        return SurdSum.sqrt(expr[1])
    left = _exact_value(expr[1])
    right = _exact_value(expr[2])
    return {"add": left + right, "sub": left - right, "mul": left * right}[kind]


expr_strategy = st.recursive(
    st.one_of(
        st.tuples(st.just("rat"), st.fractions(min_value=-8, max_value=8)),
        st.tuples(st.just("sqrt"), st.sampled_from([2, 3, 5, 7, 11])),
    ),
    lambda children: st.tuples(
        st.sampled_from(["add", "sub", "mul"]), children, children
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(expr_strategy)
def test_interval_contains_reference_value(expr):
    exact = _exact_value(expr)
    ref = _mp_value(expr)
    iv = exact.interval(128)
    pad = mpmath.mpf(10) ** -20  # slack for the reference's own rounding
    lo = mpmath.mpf(iv.lo.numerator) / iv.lo.denominator
    hi = mpmath.mpf(iv.hi.numerator) / iv.hi.denominator
    assert lo <= ref + pad
    assert ref - pad <= hi


@settings(max_examples=150, deadline=None)
@given(expr_strategy)
def test_interval_nested_refinement(expr):
    exact = _exact_value(expr)
    iv64 = exact.interval(64)
    iv256 = exact.interval(256)
    assert iv64.lo <= iv256.lo and iv256.hi <= iv64.hi


def test_surdsum_power_and_equality():
    r2, r3 = SurdSum.sqrt(2), SurdSum.sqrt(3)
    assert (r2 + r3) ** 2 == 5 + 2 * SurdSum.sqrt(6)
    assert ((r2 + r3) ** 2 - (5 + 2 * SurdSum.sqrt(6))).is_zero()


def test_sqrt_of_fraction():
    h = SurdSum.sqrt(Fraction(1, 2))
    assert certified_sign(h * h - Fraction(1, 2)) == 0


# -- the integer core against the Fraction-coefficient oracle --------------


def _assert_canonical(s):
    num, den = s._num, s._den
    assert type(den) is int and den > 0
    assert all(type(n) is int and n for n in num.values())
    assert math.gcd(den, *num.values()) == 1
    assert all(rad > 0 and squarefree_decompose(rad)[0] == 1 for rad in num)


def _same(s, oracle):
    _assert_canonical(s)
    assert dict(s.terms()) == oracle.terms
    assert all(type(c) is Fraction for _, c in s.terms())


def _random_coef(rng):
    den = rng.choice([1, 2, 6, 35, rng.randrange(1, 10**4), 1 << 70, 3**45])
    return Fraction(rng.randrange(-10**6, 10**6) or 1, den)


def test_surdsum_matches_the_fraction_oracle():
    rng = random.Random(30)
    # dependent radicand sets, a large prime radicand and square factors
    radicand_sets = [(1, 2, 3, 6), (1, 6, 10, 15), (1, 2, 9999991), (1, 8, 12, 24, 50)]
    for _ in range(300):
        rads = rng.choice(radicand_sets)
        pair = []
        for _ in range(2):
            terms = {d: _random_coef(rng) for d in rng.sample(rads, rng.randint(0, len(rads)))}
            pair.append((SurdSum(terms), FracSurd(terms)))
        (a, oa), (b, ob) = pair
        _same(a, oa)
        k, q, e = rng.randrange(-50, 50) or 1, _random_coef(rng), rng.randint(0, 4)
        results = [
            (a + b, oa + ob), (a - b, oa - ob), (a * b, oa * ob), (-a, -oa), (a**e, oa**e),
            (a * k, oa * k), (k * a, oa * k), (a * q, oa * q), (q * a, oa * q), (a * 0, oa * 0),
            (a + k, oa + k), (k - a, k - oa), (a - q, oa - q), (q + a, oa + q),
            (a / q, oa / q), (a / k, oa / k),
        ]
        for s, o in results:
            _same(s, o)
        for s, o in ((a, oa), (a * b, oa * ob)):
            assert s.floor() == o.floor()
            m, r = s.nearest()
            om, orest = o.nearest()
            assert m == om
            _same(r, orest)
            for bits in (1, 7, 64, 200):
                got, want = s.interval(bits), o.interval(bits)
                assert (got.lo_m, got.hi_m, got.exp) == (want.lo_m, want.hi_m, want.exp)
        # the same value reached two ways is one canonical form
        for s, t in (((a + b) - b, a), (a * b, b * a), ((a * k) / k, a), (a - a, SurdSum())):
            assert s == t and hash(s) == hash(t)
            assert (s._num, s._den) == (t._num, t._den)


def test_equal_values_built_differently_are_equal_and_hash_equal():
    r2, r3, r6 = SurdSum.sqrt(2), SurdSum.sqrt(3), SurdSum.sqrt(6)
    pairs = [
        (SurdSum({8: 1}), 2 * r2),
        (SurdSum({8: 1}), parse_number_spec("sqrt:8").surd),
        (SurdSum.sqrt(Fraction(1, 2)), r2 / 2),
        (SurdSum({24: Fraction(1, 4)}), SurdSum.sqrt(Fraction(3, 2))),
        (r2 * r3, r6),
        ((r2 + r3) ** 2, 5 + 2 * r6),
        (SurdSum({1: Fraction(6, 4)}), SurdSum.from_rational(Fraction(3, 2))),
        (r6 - r6, SurdSum()),
        ((r2 + Fraction(1, 3)) - Fraction(1, 3), r2),
    ]
    for s, t in pairs:
        _assert_canonical(s)
        _assert_canonical(t)
        assert s == t and hash(s) == hash(t)
    assert SurdSum({1: Fraction(6, 4)}) == Fraction(3, 2)
    assert SurdSum() == 0 and SurdSum()._den == 1


def test_equal_values_hash_equal_across_surdsum_fraction_and_int():
    # a rational SurdSum equals its Fraction and int, so it must hash as
    # they do: sets and dict keys then mix the three types
    rng = random.Random(31)
    values = []
    for _ in range(200):
        q = Fraction(rng.randrange(-50, 50), rng.choice([1, 1, 2, 3, 12, 1 << 70]))
        r2 = SurdSum.sqrt(2) * rng.randrange(-3, 4)
        forms = [q, SurdSum.from_rational(q), (q + r2) - r2, SurdSum({1: q, 3: 1}) - SurdSum.sqrt(3)]
        if q.denominator == 1:
            forms.append(int(q))
        for a in forms:
            for b in forms:
                assert a == b and hash(a) == hash(b)
        values += forms + [q + SurdSum.sqrt(2)]
    for a in values:
        for b in rng.sample(values, 40):
            if a == b:
                assert b == a and hash(a) == hash(b)
    assert Fraction(1, 2) in {SurdSum.from_rational(Fraction(1, 2))}
    assert 3 in {SurdSum.from_rational(3)} and SurdSum.from_rational(3) in {3}
    assert {SurdSum.from_rational(Fraction(1, 3)): 1}[Fraction(1, 3)] == 1
