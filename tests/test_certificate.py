"""Theorem checker, search driver, certificate verification, the
contradiction system of the entry-time majorant, and the bounded-quotient
infeasibility scan."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from littlewood import certificate, cfrac, entrytime
from littlewood.cfrac import (
    CFSpec,
    InternalInconsistencyError,
    ProfileViolationError,
    convergent,
    error_term,
    lcm_time,
)
from littlewood.certificate import (
    FAIL_REASONS,
    b3_infeasibility_scan,
    certificate_search,
    infeasibility_grid_check,
    theorem_check,
    verify_certificate,
)
from littlewood.cone import ConeParams, cone_contains
from littlewood.entrytime import approx_line, transversality_ceiling, transversality_check
from littlewood.exactnum import DyadicInterval, as_surdsum, certified_sign
from littlewood.lattice import LatticePoint, ParameterError, brute_min_scan
from littlewood.numspec import parse_number_spec

from nums import (
    GOLDENM1,
    SPEC_GOLDENM1,
    SPEC_SQRT2M1,
    SPEC_SQRT3M1,
    SQRT2M1,
    SQRT3M1,
    SURD_POOL,
    TRANSVERSALITY_EPSILONS,
    TRANSVERSALITY_PAIRS,
    infeasibility_grid_loop,
    transversality_ceiling_bisected,
)


# -- theorem_check -----------------------------------------------------------


def test_theorem_check_transversality_short_circuit():
    # worked instance: at n = 3, N = 51, eps = 1/100, the beta error term
    # e_6(sqrt(3)-1) = sqrt(3) - 71/41... wait c_6 = 30/41; e_6 ~ 3.4e-4
    # exceeds the transversality budget 1.98e-4, so the cell short-circuits
    line = approx_line(SPEC_SQRT2M1, SPEC_SQRT3M1, 3, None)
    tc = theorem_check(SPEC_SQRT2M1, SPEC_SQRT3M1, Fraction(1, 100), line, 51)
    assert tc.reason == "transversality-fail"
    assert not tc.transversal and tc.x0 is None and tc.tau is None


def test_theorem_check_transversal_cell_diagnostics():
    line = approx_line(SPEC_SQRT2M1, SPEC_SQRT3M1, 4, None)
    tc = theorem_check(SPEC_SQRT2M1, SPEC_SQRT3M1, Fraction(1, 100), line, 51)
    assert tc.transversal
    assert tc.x0 == 7
    assert tc.t_n == 150705
    assert tc.lam == 9
    assert tc.reason == "tau-too-large"
    assert tc.direct_ok is False


def test_theorem_check_precondition():
    line = approx_line(SPEC_SQRT2M1, SPEC_SQRT3M1, 2, None)
    with pytest.raises(ParameterError):
        theorem_check(SPEC_SQRT2M1, SPEC_SQRT3M1, Fraction(1, 1000), line, 100)


def test_verify_certificate_basics():
    eps = Fraction(1, 2)
    assert not verify_certificate(SQRT2M1, SQRT3M1, eps, LatticePoint(0, 3, 1))
    assert verify_certificate(SQRT2M1, SQRT3M1, eps, LatticePoint(1, 0, 1))
    assert not verify_certificate(SQRT2M1, SQRT3M1, eps, LatticePoint(5, 50, -3))


def test_verify_certificate_on_brute_records():
    recs = brute_min_scan(SQRT2M1, SQRT3M1, 2000)
    last = recs[-1]
    p = LatticePoint(
        last.x,
        round(last.x * (2**0.5 - 1)),
        round(last.x * (3**0.5 - 1)),
    )
    assert verify_certificate(SQRT2M1, SQRT3M1, last.hi, p)
    assert not verify_certificate(SQRT2M1, SQRT3M1, last.lo / 2, p)


# -- search ------------------------------------------------------------------


def test_search_exhaustion_and_reasons():
    out = certificate_search(SPEC_SQRT2M1, SPEC_SQRT3M1, Fraction(1, 1000), n_max=6)
    assert out.exhausted and out.found is None
    assert len(out.cells) >= 6
    for cell in out.cells:
        assert (cell.reason in FAIL_REASONS) != (cell.verified is True)
    # grid is anchored at the Dirichlet floor
    assert min(c.N for c in out.cells) == 501


def test_search_deterministic():
    a = certificate_search(SPEC_GOLDENM1, SPEC_SQRT2M1, Fraction(1, 100), n_max=5)
    b = certificate_search(SPEC_GOLDENM1, SPEC_SQRT2M1, Fraction(1, 100), n_max=5)
    assert a == b


def test_search_trivial_witness():
    # eps >= ||alpha|| * ||beta||: the x = 1 point is already a witness
    out = certificate_search(SPEC_SQRT2M1, SPEC_SQRT3M1, Fraction(1, 2), n_max=2)
    assert out.trivial_witness == LatticePoint(1, 0, 1)
    assert verify_certificate(SQRT2M1, SQRT3M1, Fraction(1, 2), out.trivial_witness)


def test_search_full_grid_guard(monkeypatch):
    monkeypatch.setattr(certificate, "MAX_FULL_GRID_CELLS", 10)
    with pytest.raises(ParameterError, match="--grid geometric or a smaller --max-N"):
        certificate_search(
            SPEC_SQRT2M1, SPEC_SQRT3M1, Fraction(1, 1000), n_max=9, strategy="full",
        )


def test_search_full_grid_runs_every_N_and_holds_the_geometric_cells():
    # per n, the full grid runs from the Dirichlet floor N0 = 6 to the
    # transversality ceiling (the floor alone when the ceiling is below
    # it), and the geometric grid's cells are among its cells, unchanged
    eps, max_N = Fraction(1, 10), 400
    full = certificate_search(
        SPEC_SQRT2M1, SPEC_SQRT3M1, eps, n_max=3, strategy="full", max_N=max_N
    )
    geo = certificate_search(SPEC_SQRT2M1, SPEC_SQRT3M1, eps, n_max=3, max_N=max_N)
    assert full.found is None and geo.found is None
    assert (len(full.cells), len(geo.cells)) == (79, 9)
    for n in (1, 2, 3):
        line = approx_line(SPEC_SQRT2M1, SPEC_SQRT3M1, n, None)
        ceiling = transversality_ceiling(eps, line.e_alpha, line.e_beta, max_N)
        assert [c.N for c in full.cells if c.n == n] == list(range(6, max(ceiling, 6) + 1))
    by_cell = {(c.n, c.N): c for c in full.cells}
    assert all(by_cell[c.n, c.N] == c for c in geo.cells)


def test_search_builds_one_line_per_n(monkeypatch):
    # each n's order-2n line, two error terms, sets the transversality
    # ceiling and is shared by every cell of that n
    orders = []

    def spy(spec, k):
        orders.append(k)
        return error_term(spec, k)

    monkeypatch.setattr(entrytime, "error_term", spy)
    alpha, beta, eps = SPEC_SQRT2M1, SPEC_SQRT3M1, Fraction(1, 10)
    full = certificate_search(alpha, beta, eps, n_max=3, strategy="full", max_N=400)
    assert len(full.cells) == 79 and sorted(orders) == [2, 2, 4, 4, 6, 6]
    orders.clear()
    # the README certificate example
    certificate_search(alpha, beta, Fraction(1, 1000), n_max=10)
    assert sorted(orders) == sorted(2 * [2 * n for n in range(1, 11)])
    monkeypatch.undo()
    for cell in full.cells:
        line = approx_line(alpha, beta, cell.n, None)
        assert cell == theorem_check(alpha, beta, eps, line, cell.N)


def test_search_reads_the_lcm_time_from_its_lines(monkeypatch):
    # t_n = lcm(q_2n(alpha), q_2n(beta)) takes both denominators from the
    # line's error terms, so the search computes no convergent of its own,
    # and every transversal cell keeps the t_n of lcm_time
    calls = []

    def spy(spec, k):
        calls.append(k)
        return convergent(spec, k)

    monkeypatch.setattr(cfrac, "convergent", spy)
    alpha, beta, eps = SPEC_SQRT2M1, SPEC_SQRT3M1, Fraction(1, 10)
    full = certificate_search(alpha, beta, eps, n_max=3, strategy="full", max_N=400)
    assert len(full.cells) == 79 and calls == []
    monkeypatch.undo()
    transversal = [c for c in full.cells if c.transversal]
    assert len(transversal) == 78
    assert all(c.t_n == lcm_time(alpha, beta, c.n) for c in transversal)


def test_search_runs_past_2_to_the_32():
    # e = 0 for a rational pair, so the transversality ceiling is max_N and
    # the geometric grid doubles from the Dirichlet floor 6 up to 10**10;
    # each cell's x0 is checked exactly to be the least x whose residuals
    # both have square at most 1/N
    alpha, beta = parse_number_spec("rat:3/7"), parse_number_spec("rat:2/7")
    out = certificate_search(alpha, beta, Fraction(1, 10), n_max=1, max_N=10**10)
    assert [c.N for c in out.cells] == [6 * 2**k for k in range(31)] + [10**10]
    values = (as_surdsum(alpha.value()), as_surdsum(beta.value()))
    for cell in out.cells:
        for x in range(1, cell.x0 + 1):
            residuals = [(v * x).nearest()[1] for v in values]
            near = all(certified_sign(u * u * cell.N - 1) <= 0 for u in residuals)
            assert near == (x == cell.x0), (cell.N, x)
    assert {c.x0 for c in out.cells} == {3, 7} and out.found is None


def test_transversality_ceiling_monotone():
    line = approx_line(SPEC_SQRT2M1, SPEC_SQRT3M1, 3, None)
    ceiling = transversality_ceiling(
        Fraction(1, 100), line.e_alpha, line.e_beta, 10**6
    )
    assert ceiling >= 2
    assert transversality_check(ceiling, Fraction(1, 100), line.e_alpha, line.e_beta)
    assert not transversality_check(
        ceiling + 1, Fraction(1, 100), line.e_alpha, line.e_beta
    )


def test_transversality_ceiling_matches_bisection_oracle():
    for a_spec, b_spec in TRANSVERSALITY_PAIRS:
        for n in range(1, 9):
            line = approx_line(a_spec, b_spec, n, None)
            for eps in TRANSVERSALITY_EPSILONS:
                for max_N in (2, 3, 10, 3000, 10**6):
                    got = transversality_ceiling(eps, line.e_alpha, line.e_beta, max_N)
                    want = transversality_ceiling_bisected(eps, line.e_alpha, line.e_beta, max_N)
                    assert got == want, (n, eps, max_N)


def test_transversality_ceiling_edges():
    e = Fraction(1, 8)
    # the exact tie at N = 2 (see test_entrytime) is the ceiling
    assert transversality_ceiling(Fraction(1, 16), e, e, 10**6) == 2
    assert transversality_ceiling(Fraction(1, 16) - Fraction(1, 10**30), e, e, 10**6) == 1
    # no error terms: no bound below max_N
    assert transversality_ceiling(Fraction(1, 100), Fraction(0), Fraction(0), 10**9) == 10**9
    # max_N < 2 is an error whether or not N = 2 passes, as in the oracle
    for ceiling in (transversality_ceiling, transversality_ceiling_bisected):
        for eps in (Fraction(1, 16), Fraction(1, 32)):
            for max_N in (1, 0):
                with pytest.raises(ParameterError, match="N must be >= 2"):
                    ceiling(eps, e, e, max_N)


def test_search_exhaustion_deep():
    # n up to 12 with the default geometric grid: exhaustion, with the
    # transversality budget binding at small n and tau binding afterwards
    out = certificate_search(SPEC_SQRT2M1, SPEC_SQRT3M1, Fraction(1, 1000), n_max=12)
    assert out.exhausted
    reasons = {c.reason for c in out.cells}
    assert reasons == {"transversality-fail", "tau-too-large"}
    assert max(c.N for c in out.cells) == 10**6


def test_search_positive_control():
    # synthetic configuration where the whole chain genuinely fires: the
    # all-ones pair has lambda = 4, so n = 1 needs lambda^2 = 16 <= x0 - 2;
    # at N = 1024 the smallest Dirichlet x0 is the Fibonacci number 21, and
    # a huge eps makes the cone fat enough for tau = 0 and transversality.
    # Exercises candidate construction, membership at t_n, and verification.
    eps = Fraction(4 * 10**8)
    out = certificate_search(SPEC_GOLDENM1, SPEC_GOLDENM1, eps, n_max=1)
    assert out.found is not None
    cell = out.found
    assert (cell.n, cell.N, cell.x0, cell.t_n) == (1, 1024, 21, 2)
    assert cell.chain_ok and cell.direct_ok and cell.verified
    assert cell.candidate == LatticePoint(19, 12, 12)
    assert verify_certificate(GOLDENM1, GOLDENM1, eps, cell.candidate)
    # the failed cells on the way record the binding constraint
    assert all(c.reason == "x0-too-small" for c in out.cells[:-1])


@pytest.mark.parametrize("eps", [Fraction(4 * 10**8), Fraction(10**10)])
def test_cone_membership_agrees_with_the_certificate(eps):
    # the certificate is the f verdict alone; the cone lies inside
    # {0 < |f| <= eps} (N >= 2), so gamma_n(t_n) in its cell's cone must
    # verify, and on the pool every verified candidate is also inside
    chain_ok = 0
    for a, b in itertools.combinations(SURD_POOL, 2):
        alpha, beta = CFSpec.from_surd(a), CFSpec.from_surd(b)
        for cell in certificate_search(alpha, beta, eps, n_max=3).cells:
            if cell.chain_ok:
                chain_ok += 1
                params = ConeParams.make(cell.N, eps)
                assert cone_contains(a, b, cell.candidate, params).inside == cell.verified
    assert chain_ok >= 20


# -- the contradiction system ------------------------------------------------


def _grid_cases() -> list[tuple]:
    """(X, x0, points, bits) for the grid-loop oracle: X = k/10^j from
    1e-8 to 1e6 against x0 in {None, 0, 1, 2} or up to 1e12; then X near
    the value that puts u_lo at (x0 - 1)^(1/4), at low precision, where
    the two enclosures overlap; then X >= 1 at low precision, where u_lo
    is narrower than 2^-bits and the first interior point can lie below
    it; then two overlaps at 160 bits, X = r^2/2 with r bisected to the
    overlap."""
    rng = random.Random(1729)
    points = (1, 2, 3, 10, 1000)
    cases = []
    for _ in range(240):
        X = rng.randrange(1, 1000) / Fraction(10) ** rng.randrange(-3, 9)
        x0 = rng.choice([None, 0, 1, 2, int(10 ** rng.uniform(0.4, 12))])
        cases.append((X, x0, rng.choice(points), 160))
    for _ in range(80):
        x0 = rng.randrange(3, 41)
        target = 2 ** (-10 / 3) * (x0 - 1) ** (-4 / 3) * (1 + rng.uniform(-1e-3, 1e-3))
        X = Fraction(target).limit_denominator(10**6)
        cases.append((X, x0, rng.choice(points), rng.choice([12, 16])))
    for _ in range(40):
        X = rng.randrange(1, 1000) * Fraction(10) ** rng.randrange(0, 4)
        x0 = int(10 ** rng.uniform(1, 12))
        cases.append((X, x0, rng.choice(points[1:]), rng.choice([12, 16])))
    r41 = 67291049768184229202791465204992493027097908396401515478755176695241953
    r1000 = 1968915060357219867665389460538369940195776863204693683980535754176115
    cases.append((Fraction(r41, 1 << 240) ** 2 / 2, 41, 1000, 160))
    cases.append((Fraction(r1000, 1 << 238) ** 2 / 2, 1000, 10, 160))
    return cases


def test_grid_check_matches_the_grid_loop():
    kinds = set()
    for X, x0, points, bits in _grid_cases():
        want = infeasibility_grid_loop(X, x0, points, bits)
        got = infeasibility_grid_check(X, x0, points, bits)
        assert got == want, (X, x0, points, bits)
        if x0 is None:
            kinds.add("no x0")
        elif want.empty_range:
            kinds.add("empty")
        elif points == 1:
            kinds.add("u_lo alone")
        elif want.u_hi.lo <= want.u_lo.hi:
            kinds.add("no interior")
            if want.u_hi.lo < want.u_lo.lo:
                kinds.add("u_hi lowest")
                kinds.add(f"u_hi lowest at {bits} bits")
        else:
            kinds.add("interior")
            if DyadicInterval.point(want.u_lo.hi, bits).lo < want.u_lo.lo:
                kinds.add("interior lowest")
    assert kinds >= {
        "no x0", "empty", "u_lo alone", "no interior", "interior",
        "u_hi lowest", "u_hi lowest at 160 bits", "interior lowest",
    }


def test_grid_check_cost_does_not_grow_with_points(monkeypatch):
    calls = []
    mul = DyadicInterval.__mul__

    def counted(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(DyadicInterval, "__mul__", counted)
    counts = []
    for points in (2, 10**6):
        calls.clear()
        res = infeasibility_grid_check(Fraction(1, 100), 10**6, points=points)
        assert res.ok and res.points == points + 2
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_grid_check_rejects_grids_below_one_point():
    for points in (0, -5):
        with pytest.raises(ParameterError):
            infeasibility_grid_check(Fraction(1, 100), 41, points=points)
        with pytest.raises(ParameterError):
            b3_infeasibility_scan(
                [(SPEC_SQRT2M1, SPEC_SQRT3M1)], [Fraction(1, 100)], u_points=points
            )


def test_grid_check_refuses_a_nonpositive_lower_end():
    # at 1 bit u_lo = 2^(-5/8) X^(-3/16) ~ 0.049 rounds down to 0, where the
    # least-point lemma does not apply
    for x0 in (None, 5):
        with pytest.raises(InternalInconsistencyError):
            infeasibility_grid_check(Fraction(10**6), x0, points=10, bits=1)


def test_grid_check_infeasible_small_X():
    for X in (Fraction(1, 50), Fraction(1, 5000), Fraction(1, 500000)):
        res = infeasibility_grid_check(X, 41, points=200)
        assert res.ok
        assert res.min_margin > 0 or res.empty_range


def test_grid_check_empty_range():
    res = infeasibility_grid_check(Fraction(1, 50), 1, points=50)
    assert res.ok and res.empty_range


# -- bounded-quotient scan ---------------------------------------------------


def test_b3_scan_rejects_large_quotients():
    bad = CFSpec.from_periodic([0], [4])
    with pytest.raises(ProfileViolationError):
        b3_infeasibility_scan([(bad, SPEC_SQRT2M1)], [Fraction(1, 100)])


def test_b3_scan_shape():
    rep = b3_infeasibility_scan(
        [(SPEC_SQRT2M1, SPEC_SQRT3M1)], [Fraction(1, 100)], u_points=64
    )
    assert rep.total_certificates == 0
    (pr,) = rep.reports
    assert pr.n_lo >= 1 and pr.n_hi >= pr.n_lo
    assert pr.grid.ok
    assert all(c.reason in FAIL_REASONS for c in pr.cells if not c.verified)
    assert sum(pr.reason_counts.values()) == len(
        [c for c in pr.cells if c.reason]
    )
