"""Cubic-form evaluation, the straightening shear, Dirichlet search,
brute-force minima, and the cubic sublevel measure."""

import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from littlewood import lattice
from littlewood.cfrac import (
    CFSpec,
    ResidualScan,
    bad_constant_estimate,
    bad_constant_scan,
    residual_minima,
)
from littlewood.exactnum import (
    SurdSum,
    _inverse_square_floor,
    as_surdsum,
    certified_sign,
)
from littlewood.lattice import (
    LatticePoint,
    Pair,
    ParameterError,
    TheoremViolationError,
    _pair_of,
    _within_2e_cbrt,
    brute_min_scan,
    cartan_measure,
    dirichlet_search,
    f_eval,
    f_exact,
    m_transform,
)

from nums import (
    GOLDENM1,
    SPEC_SQRT2M1,
    SPEC_SQRT3M1,
    SQRT2M1,
    SQRT3M1,
    SURD_POOL,
    convergent_minima,
    dirichlet_search_chunked,
    surd_nearest_int,
)

mpmath.mp.dps = 50


# -- f evaluation ------------------------------------------------------------


def test_f_zero_when_x_zero():
    fe = f_eval(SQRT2M1, SQRT3M1, LatticePoint(0, 4, -5), Fraction(1, 2))
    assert fe.sign == 0 and fe.vs_epsilon == "below"


def test_f_example_101():
    fe = f_eval(SQRT2M1, SQRT3M1, LatticePoint(1, 0, 1), Fraction(1, 2))
    assert fe.sign == -1
    # oracle: high-precision evaluation of (sqrt(2)-1)(sqrt(3)-2)
    ref = (mpmath.sqrt(2) - 1) * (mpmath.sqrt(3) - 2)
    assert abs(float(fe.magnitude.midpoint()) - abs(float(ref))) < 1e-15
    assert fe.vs_epsilon == "below"


def test_f_example_524():
    fe = f_eval(SQRT2M1, SQRT3M1, LatticePoint(5, 2, 4), Fraction(1, 2))
    # oracle: 5(5 sqrt(2) - 7)(5 sqrt(3) - 9) ~ -0.120725; below eps = 1/2
    ref = 5 * (5 * mpmath.sqrt(2) - 7) * (5 * mpmath.sqrt(3) - 9)
    assert fe.sign == -1
    assert abs(float(fe.magnitude.midpoint()) - abs(float(ref))) < 1e-12
    assert fe.vs_epsilon == "below"


def test_f_exact_epsilon_boundary():
    # engineered exact tie: f(1, 0, 1) with rational alpha, beta
    fe = f_eval(Fraction(1, 2), Fraction(1, 3), LatticePoint(1, 0, 1), Fraction(1, 3))
    assert fe.vs_epsilon == "equal"


def test_m_transform_examples():
    x, y, z = m_transform(SQRT2M1, SQRT3M1, LatticePoint(1, 0, 0))
    assert x.as_fraction() == 1
    assert y == as_surdsum(SQRT2M1) and z == as_surdsum(SQRT3M1)
    x, y, z = m_transform(SQRT2M1, SQRT3M1, LatticePoint(0, 1, 1))
    assert (x.as_fraction(), y.as_fraction(), z.as_fraction()) == (0, -1, -1)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 50), st.integers(-60, 60), st.integers(-60, 60))
def test_transform_product_identity(x, y, z):
    # |f| equals the product of the shear's coordinates, exactly
    p = LatticePoint(x, y, z)
    a, b, c = m_transform(SQRT2M1, SQRT3M1, p)
    assert (a * b * c - f_exact(SQRT2M1, SQRT3M1, x, y, z)).is_zero()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 500), st.integers(-700, 700), st.integers(-700, 700))
def test_f_never_vanishes_for_positive_x(x, y, z):
    assert certified_sign(f_exact(SQRT2M1, SQRT3M1, x, y, z)) != 0


# -- Dirichlet search --------------------------------------------------------


def test_dirichlet_example_N10():
    dp = dirichlet_search(SQRT2M1, SQRT3M1, 10)
    # oracle: exhaustive scan over x in [1, 10] (x = 1, 2 fail the bound)
    assert dp.point == LatticePoint(3, 1, 2)
    assert certified_sign(dp.U0 * dp.U0 - Fraction(1, 10)) <= 0
    assert certified_sign(dp.V0 * dp.V0 - Fraction(1, 10)) <= 0


def test_dirichlet_equal_numbers_degenerate():
    dp = dirichlet_search(SQRT2M1, SQRT2M1, 50)
    assert dp.point.y == dp.point.z


def test_dirichlet_rejects_small_N():
    with pytest.raises(ParameterError):
        dirichlet_search(SQRT2M1, SQRT3M1, 1)


def test_scans_answer_past_2_to_the_32():
    # the scan's scale grows with its range, so all three residual scans
    # answer at 5*10**9; each answer is checked in exact arithmetic
    N = 5 * 10**9
    dp = dirichlet_search(SQRT2M1, SQRT3M1, N)
    x, y, z = dp.point
    assert (dp.U0, dp.V0) == (SQRT2M1 * x - y, SQRT3M1 * x - z)
    assert certified_sign(dp.U0 * dp.U0 * N - 1) <= 0
    assert certified_sign(dp.V0 * dp.V0 * N - 1) <= 0
    # every x' < x has m(x') >= m of a record before x: all of them fail
    records = residual_minima(ResidualScan((SQRT2M1, SQRT3M1), "max", bits=128), x)
    assert records[-1][0] == x
    assert all(certified_sign(m * m * N - 1) > 0 for _, m, _ in records[:-1])

    recs = brute_min_scan(SQRT2M1, SQRT3M1, N)
    for r in recs:
        ua = SQRT2M1 * r.x - surd_nearest_int(SQRT2M1 * r.x)
        ub = SQRT3M1 * r.x - surd_nearest_int(SQRT3M1 * r.x)
        assert r.value == r.x * ua.abs() * ub.abs()
        assert r.lo <= r.value.interval(256).lo and r.value.interval(256).hi <= r.hi
    assert all(certified_sign(b.value - a.value) < 0 for a, b in zip(recs, recs[1:]))

    q, best, _ = convergent_minima(SPEC_SQRT2M1, N)[-1]
    assert bad_constant_scan(SPEC_SQRT2M1, N) == (best, q)


def test_scans_ignore_integer_part_of_alpha():
    # float64 keeps too few fraction bits of alpha + 10^9 to find the
    # record at x = 10864, so the screens must work on frac(alpha)
    beta = SurdSum.sqrt(3)
    shifted = SQRT2M1 + 10**9
    X = 2 * 10**5
    recs = [r.x for r in brute_min_scan(SQRT2M1, beta, X)]
    assert recs[-1] == 10864
    assert [r.x for r in brute_min_scan(shifted, beta, X)] == recs
    assert dirichlet_search(shifted, beta, X).x == dirichlet_search(SQRT2M1, beta, X).x


def test_dirichlet_smallest_x_and_bad_lower_bound():
    rng = random.Random(7)
    c_est = max(
        bad_constant_estimate(SPEC_SQRT2M1, 600),
        bad_constant_estimate(SPEC_SQRT3M1, 600),
    )
    for _ in range(12):
        N = rng.randrange(2, 600)
        dp = dirichlet_search(SQRT2M1, SQRT3M1, N)
        x0 = dp.point.x
        # minimality: no smaller x satisfies both residual bounds
        for x in range(1, x0):
            va = SQRT2M1 * x
            ua = as_surdsum(va) - surd_nearest_int(va)
            ok_a = certified_sign(ua * ua - Fraction(1, N)) <= 0
            vb = SQRT3M1 * x
            ub = as_surdsum(vb) - surd_nearest_int(vb)
            ok_b = certified_sign(ub * ub - Fraction(1, N)) <= 0
            assert not (ok_a and ok_b)
        # with eps = 1/N the Dirichlet condition N > 1/(2 eps) holds and
        # x0 > C / sqrt(2 eps) = C sqrt(N/2)
        assert x0 * x0 > c_est * c_est * Fraction(N, 2)


@pytest.fixture(scope="module")
def oracle_points():
    return {N: dirichlet_search_chunked(SQRT2M1, SQRT3M1, N) for N in range(2, 3001)}


@pytest.mark.parametrize("order", ["ascending", "descending", "random"])
def test_dirichlet_lookup_matches_the_chunked_oracle(oracle_points, order):
    # the record list grows differently in each order; the answers must not,
    # through the value-level search or a Pair of the periodic specs
    Ns = sorted(oracle_points, reverse=order == "descending")
    if order == "random":
        random.Random(8).shuffle(Ns)
    _pair_of.cache_clear()
    pair = Pair(CFSpec.from_periodic([0], [2]), CFSpec.from_periodic([0], [1, 2]))
    for N in Ns:
        assert dirichlet_search(SQRT2M1, SQRT3M1, N) == oracle_points[N], N
        assert pair.dirichlet_point(N) == oracle_points[N], N


@pytest.mark.parametrize(
    "alpha,beta,Ns",
    [
        (SQRT2M1, SQRT2M1, range(2, 250)),
        (GOLDENM1, GOLDENM1, range(2, 250)),
        (SQRT2M1 + 10**9, SQRT3M1, range(2, 250)),
        # exact ties m(1)**2 = 1/9, then m(3) = 0
        (Fraction(1, 3), Fraction(1, 3), range(2, 40)),
        (Fraction(1, 2), Fraction(3, 7), range(2, 60)),
        (SURD_POOL[4], SURD_POOL[8], [2, 5000, 3, 70000, 71, 4999]),
    ],
    ids=["alpha-equals-beta", "golden-twice", "alpha-shifted", "rational-ties",
         "rational-pair", "resumed-out-of-order"],
)
def test_dirichlet_lookup_matches_the_oracle_on_special_pairs(alpha, beta, Ns):
    expected = {N: dirichlet_search_chunked(alpha, beta, N) for N in Ns}
    for N in Ns:  # each query cold
        _pair_of.cache_clear()
        assert dirichlet_search(alpha, beta, N) == expected[N], N
    _pair_of.cache_clear()
    for N in Ns:  # one growing record list
        assert dirichlet_search(alpha, beta, N) == expected[N], N


def test_dirichlet_lookup_beyond_the_first_chunks():
    # the answer for N = 500001 is x = 192070, in the 18th dyadic block
    # [2**17, 2**18 - 1] of a cold scan
    N = 500001
    expected = dirichlet_search_chunked(SQRT2M1, SQRT3M1, N)
    assert expected.x.bit_length() == 18
    _pair_of.cache_clear()
    assert dirichlet_search(SQRT2M1, SQRT3M1, N) == expected
    # a cold query scans no further than the block holding its answer
    scan, _, _ = _pair_of(SQRT2M1, SQRT3M1)._records
    assert scan.X == 2 ** expected.x.bit_length() - 1
    _pair_of.cache_clear()
    for small in range(2, 300):
        dirichlet_search(SQRT2M1, SQRT3M1, small)
    assert dirichlet_search(SQRT2M1, SQRT3M1, N) == expected


@pytest.mark.parametrize(
    "m,key",
    [
        (Fraction(1, 3), 9),  # 1/m**2 = 9 exactly
        # 1/m**2 within 2**-130 of 9: the fixed-point enclosure straddles 1/3
        (Fraction(1, 3) + Fraction(1, 2**140), 8),
        (Fraction(1, 3) - Fraction(1, 2**140), 9),
        (SQRT2M1, 5),  # 1/m**2 = 3 + 2 sqrt(2)
        # m = 2**-15 + (a sqrt(2) term of size 2**30 less its 60-bit floor):
        # the fixed-point enclosure leaves 64 candidate keys, 128 bits one
        (SurdSum.sqrt(2, 2**30) - Fraction(math.isqrt(2 * 4**90), 2**60)
         + Fraction(1, 2**15), 2**30 - 1),
        (Fraction(0), 2**32),
        (Fraction(1, 2**20), 2**32),  # capped
    ],
)
def test_inverse_square_floor_is_exact(m, key):
    assert _inverse_square_floor(as_surdsum(m), 1, 2**32) == key


def test_pair_line_memoises_each_order_from_zero():
    pair = Pair(SPEC_SQRT2M1, SPEC_SQRT3M1)
    line = pair.line(0)
    assert (line.n, line.P0, line.e_alpha.q_n, line.e_beta.q_n) == (0, None, 1, 1)
    assert pair.line(0) is line
    with pytest.raises(ParameterError, match="n must be >= 0"):
        pair.line(-1)


@pytest.mark.parametrize("record_x", [None, 5, 6])
def test_dirichlet_point_guards_the_theorem_at_x_equal_to_N(monkeypatch, record_x):
    # no pair of the test pool puts its answer at x = N, so a scan is faked:
    # its one record, if any, has key floor(1/m**2) = 9 >= N = 5; an answer
    # at x = N is returned, none or one past N is a theorem violation
    def fake(scan, X):
        first, scan.X = scan.X == 0, X
        if record_x is None or not first:
            return []
        u = as_surdsum(Fraction(1, 3))
        return [(record_x, u, [(0, u), (0, u)])]

    monkeypatch.setattr(lattice, "residual_minima", fake)
    pair = Pair(CFSpec.from_surd(SQRT2M1), CFSpec.from_surd(SQRT3M1))
    if record_x == 5:
        assert pair.dirichlet_point(5).point == LatticePoint(5, 0, 0)
    else:
        with pytest.raises(TheoremViolationError):
            pair.dirichlet_point(5)


def test_dirichlet_keys_are_uncapped():
    # the Dirichlet keys pass no cap: m = 0 (a rational pair) answers every N
    assert _inverse_square_floor(as_surdsum(0), 1, math.inf) == math.inf
    assert _inverse_square_floor(as_surdsum(Fraction(1, 2**40)), 1, math.inf) == 2**80
    dp = dirichlet_search(Fraction(3, 7), Fraction(2, 7), 10**30)
    assert dp.point == LatticePoint(7, 3, 2) and dp.U0.is_zero() and dp.V0.is_zero()


def test_dirichlet_sweep_extends_the_scan_logarithmically(monkeypatch):
    calls = []
    minima = lattice.residual_minima

    def counting(scan, X):
        calls.append((scan.X + 1, X))
        return minima(scan, X)

    monkeypatch.setattr(lattice, "residual_minima", counting)
    for alpha, beta in ((SQRT2M1, SQRT3M1), (GOLDENM1, SQRT2M1), (SURD_POOL[4], SURD_POOL[7])):
        _pair_of.cache_clear()
        calls.clear()
        for N in range(2, 251):
            dirichlet_search(alpha, beta, N)
        assert 1 <= len(calls) <= 1 + math.ceil(math.log2(250)), calls
        # each extension resumes where the previous one stopped
        assert all(b[0] == a[1] + 1 for a, b in zip(calls, calls[1:]))


# -- brute minimisation ------------------------------------------------------


def test_brute_min_single():
    recs = brute_min_scan(SQRT2M1, SQRT3M1, 1)
    assert len(recs) == 1 and recs[0].x == 1
    # value = ||alpha|| * ||beta||
    na = as_surdsum(SQRT2M1)  # 0.414..., nearest int 0
    nb = as_surdsum(SQRT3M1)  # 0.732..., nearest int 1 -> dist 1 - value
    expected = na * (1 - nb)
    assert (recs[0].value - expected).is_zero()


def test_brute_min_records_strictly_decreasing():
    recs = brute_min_scan(SQRT2M1, SQRT3M1, 20000)
    for a, b in zip(recs, recs[1:]):
        assert a.x < b.x
        assert certified_sign(b.value - a.value) < 0
        assert b.hi < a.lo or b.lo < a.lo  # enclosures reflect the order


def test_brute_min_monotone_in_X():
    r1 = brute_min_scan(SQRT2M1, SQRT3M1, 3000)
    r2 = brute_min_scan(SQRT2M1, SQRT3M1, 30000)
    assert r2[: len(r1)] == r1  # longer scans extend, never revise
    assert certified_sign(r2[-1].value - r1[-1].value) <= 0


def test_brute_min_final_record_at_ten_thousand():
    # frozen from the independent double-precision prescan + certification
    recs = brute_min_scan(SQRT2M1, SQRT3M1, 10**4)
    last = recs[-1]
    assert last.x == 41
    assert Fraction("0.009956782247828") <= last.lo
    assert last.hi <= Fraction("0.009956782247829")


def test_brute_min_record_beyond_the_first_chunks():
    # the last record lies in the 23rd dyadic block of the scan, so the
    # running minimum must carry across block boundaries
    recs = brute_min_scan(SQRT2M1, SQRT3M1, 5 * 10**6)
    assert [r.x for r in recs][-3:] == [41, 10864, 4628523]


def test_brute_min_scan_memory_does_not_grow_with_X():
    # the scan holds the candidates of one dyadic block, about sqrt(R*X) of
    # them: its traced peak stays far below one 8-byte word per x, and from
    # X = 10**6 to 16 times that range it grows at most sqrt(16) = 4 times,
    # where memory linear in X would grow 16 times
    brute_min_scan(SQRT2M1, SQRT3M1, 1000)  # imports and caches
    peaks = []
    for X in (10**6, 16 * 10**6):
        tracemalloc.start()
        try:
            brute_min_scan(SQRT2M1, SQRT3M1, X)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 3 * 2**20, peaks
    assert peaks[1] <= 4 * peaks[0], peaks


def test_brute_min_matches_plain_float_oracle():
    recs = brute_min_scan(SQRT2M1, SQRT3M1, 5000)
    af, bf = float(2**0.5 - 1), float(3**0.5 - 1)
    best = math.inf
    oracle_records = []
    for x in range(1, 5001):
        v = x * abs(x * af - round(x * af)) * abs(x * bf - round(x * bf))
        if v < best:
            best = v
            oracle_records.append(x)
    assert [r.x for r in recs] == oracle_records


# -- cubic sublevel measure --------------------------------------------------


def test_cartan_closed_form_origin():
    eps = Fraction(1, 1000)
    rep = cartan_measure(SQRT2M1, SQRT3M1, 0, 0, eps)
    ab = (mpmath.sqrt(2) - 1) * (mpmath.sqrt(3) - 1)
    ref_f = 2 * (mpmath.mpf(1) / 1000 / ab) ** (mpmath.mpf(1) / 3)
    ref_monic = 2 * (mpmath.mpf(1) / 1000) ** (mpmath.mpf(1) / 3)
    assert abs(float(rep.f_measure) - float(ref_f)) < 1e-9
    assert abs(float(rep.monic_measure) - float(ref_monic)) < 1e-9
    assert rep.monic_within_bound


@pytest.mark.parametrize(
    "eps", [Fraction(1, 1000), Fraction(1, 100), Fraction(7, 10**6), Fraction(5, 2)]
)
def test_cartan_bound_verdict_is_exact(eps):
    bound = 2 * mpmath.e * mpmath.cbrt(mpmath.mpf(eps.numerator) / eps.denominator)
    near = Fraction(str(mpmath.nstr(bound, 45)))
    assert abs(near - Fraction(str(mpmath.nstr(bound, 50)))) < Fraction(1, 10**40)
    assert _within_2e_cbrt(near - Fraction(1, 10**35), eps)
    assert not _within_2e_cbrt(near + Fraction(1, 10**35), eps)
    assert _within_2e_cbrt(Fraction(0), eps)


def test_cartan_bound_verdict_where_the_float_bound_errs():
    # float(1/1000) ** (1/3) is 0.10000000000000002, so the float bound
    # 0.5436563656918091 lies above the true 2e/10 = 0.54365636569180904...;
    # a measure between the two is outside the bound
    eps = Fraction(1, 1000)
    float_bound = 2 * math.e * float(eps) ** (1 / 3)
    x = Fraction("0.543656365691809075")
    assert float(x) <= float_bound
    assert not _within_2e_cbrt(x, eps)
    assert _within_2e_cbrt(Fraction("0.543656365691809045"), eps)


def test_display_bound_below_the_normal_floats_goes_through_logarithms():
    # float(eps) underflows without an error below the normal floats; such
    # an eps takes the logarithm branch, as one above the float range does
    with mpmath.workdps(30):
        for k in (320, 330, 400):
            want = 2 * mpmath.e * mpmath.mpf(10) ** (-mpmath.mpf(k) / 3)
            assert abs(lattice._display_bound(Fraction(1, 10**k)) - want) <= 1e-12 * want, k
    assert lattice._display_bound(Fraction(1, 10**6)) == 0.05436563656918091
    assert lattice._display_bound(Fraction(10**400)) == 1.1712721337030458e134
    assert lattice._display_bound(Fraction(1, 10**4000)) == 0.0
    # 2e * (10^1000)^(1/3) = 10^333.7 is past the largest float
    assert lattice._display_bound(Fraction(10**1000)) == math.inf


def test_cartan_verdicts_use_the_exact_bound(monkeypatch):
    # a measure enclosure whose upper end lies between 2e/10 and the float
    # bound at eps = 1/1000 is reported as outside the bound
    from littlewood import lattice

    for hi, within in (("0.543656365691809075", False), ("0.543656365691809045", True)):
        x = Fraction(hi)
        monkeypatch.setattr(lattice, "_sublevel_measure", lambda *args: (x, x))
        rep = cartan_measure(SQRT2M1, SQRT3M1, 1, 1, Fraction(1, 1000))
        assert rep.monic_within_bound is within and rep.f_within_bound is within
        assert rep.bound == 2 * math.e * 0.001 ** (1 / 3)


def test_cartan_enclosure_is_tight():
    rep = cartan_measure(SQRT2M1, SQRT3M1, 1, 1, Fraction(1, 1000))
    assert rep.monic_measure_hi - rep.monic_measure_lo < Fraction(1, 10**9)
    assert rep.f_measure_hi - rep.f_measure_lo < Fraction(1, 10**9)


def test_cartan_shrinks_with_epsilon():
    big = cartan_measure(SQRT2M1, SQRT3M1, 1, 2, Fraction(1, 100))
    small = cartan_measure(SQRT2M1, SQRT3M1, 1, 2, Fraction(1, 10**6))
    assert small.monic_measure_hi < big.monic_measure_lo
    assert float(small.monic_measure) < 0.03


def test_cartan_random_configs_obey_monic_bound():
    rng = random.Random(20260811)
    for _ in range(25):
        alpha = SURD_POOL[rng.randrange(len(SURD_POOL))]
        beta = SURD_POOL[rng.randrange(len(SURD_POOL))]
        y0 = rng.randrange(0, 5)
        z0 = rng.randrange(0, 5)
        eps = Fraction(rng.randrange(1, 1000), 10**rng.randrange(2, 6))
        rep = cartan_measure(alpha, beta, y0, z0, eps)
        assert rep.monic_within_bound
