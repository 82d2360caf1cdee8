"""Record semantics: the library's result types are immutable named tuples
whose keyword construction, defaults, equality, hash and repr read as
field-by-field records and that carry no instance dict but CFSpec's memos;
CFSpec and BadProfile validate on construction, and ResidualScan is the
one mutable record."""

from fractions import Fraction

import pytest

from littlewood import cfrac
from littlewood.certificate import (
    B3PairReport,
    B3ScanReport,
    GridCheckResult,
    SearchOutcome,
    TheoremCheck,
)
from littlewood.cfrac import (
    BadProfile,
    CFError,
    CFSpec,
    Convergent,
    ErrorTerm,
    GrowthReport,
    InternalInconsistencyError,
    LcmGrowthProfile,
    ResidualScan,
    cf_expand,
    residual_minima,
)
from littlewood.cone import ConeMembershipVerdict, ConeParams, InclusionSample, TangencyData
from littlewood.entrytime import ApproxLine, EntryTimeReport
from littlewood.exactnum import DyadicInterval, SurdSum
from littlewood.lattice import CartanReport, DirichletPoint, FEval, LatticePoint, MinRecord

from nums import SQRT2M1, SQRT3M1

_IV = DyadicInterval(3, 5, 4)
_POINT = LatticePoint(5, 2, 4)
_ERR = ErrorTerm(2, SQRT2M1 - Fraction(2, 5), 1, 2, 5, 12)
_CELL = TheoremCheck(1, 6, Fraction(1, 10), 9, False, reason="transversality-fail")
_GRID = GridCheckResult(True, 0, True, float("inf"), _IV, None)

# every record type with one value per field, in field order
RECORDS = [
    (CFSpec, dict(surd=SurdSum.sqrt(2), preperiod=(), period=())),
    (Convergent, dict(n=2, p=2, q=5)),
    (ErrorTerm, dict(n=2, value=SQRT2M1 - Fraction(2, 5), sign=1, p_n=2, q_n=5, q_next=12)),
    (GrowthReport, dict(ok=False, n_max=9, lam=16, first_violation=(3, "upper"))),
    (BadProfile, dict(M=3, lam=16, C_estimate=Fraction(1, 10))),
    (LcmGrowthProfile, dict(quotients=(0.5, 0.75), liminf_estimate=0.5, limsup_estimate=0.75)),
    (LatticePoint, dict(x=5, y=2, z=4)),
    (DirichletPoint, dict(point=_POINT, N=6, U0=SQRT2M1 * 5 - 2, V0=SQRT3M1 * 5 - 4)),
    (FEval, dict(sign=1, magnitude=_IV, vs_epsilon="below")),
    (MinRecord, dict(x=5, lo=Fraction(1, 8), hi=Fraction(1, 7), value=SQRT2M1)),
    (CartanReport, dict(epsilon=Fraction(1, 10), monic_measure_lo=Fraction(1, 3),
                        monic_measure_hi=Fraction(1, 2), f_measure_lo=Fraction(1, 5),
                        f_measure_hi=Fraction(1, 4), bound=2.52, monic_within_bound=True,
                        f_within_bound=False)),
    (ConeParams, dict(N=6, epsilon=Fraction(1, 10), phi=Fraction(1, 75))),
    (ConeMembershipVerdict, dict(inside=True, margin=_IV, margin_sign=-1, x_in_range=True)),
    (TangencyData, dict(radius=SurdSum.sqrt(Fraction(1, 5)),
                        point=(Fraction(1), SurdSum.sqrt(Fraction(1, 10)), SurdSum.sqrt(Fraction(1, 10))),
                        discriminant_is_zero=True, on_hyperbola=True)),
    (InclusionSample, dict(x_num=3, u_num=5, v_num=7, f_num=105, margin_num=-2, phi_den=75,
                           violation=False)),
    (ApproxLine, dict(n=1, P0=None, e_alpha=_ERR, e_beta=_ERR)),
    (EntryTimeReport, dict(already_inside=False, d_n_sign=1, denominator=SQRT2M1, tau=_IV,
                           B=SQRT3M1, C=-SQRT2M1)),
    (TheoremCheck, dict(n=1, N=6, epsilon=Fraction(1, 10), lam=9, transversal=True, x0=5,
                        tau=_IV, t_n=60, chain_ok=True, direct_ok=False, reason=None,
                        candidate=_POINT, verified=True)),
    (SearchOutcome, dict(cells=(_CELL,), found=None, trivial_witness=_POINT)),
    (GridCheckResult, dict(ok=True, points=0, empty_range=True, min_margin=float("inf"),
                           u_lo=_IV, u_hi=None)),
    (B3PairReport, dict(alpha=CFSpec.from_periodic([0], [2]), beta=CFSpec.from_periodic([0], [1, 2]),
                        epsilon=Fraction(1, 100), n_lo=1, n_hi=4, cells=(_CELL,), certificates=(),
                        reason_counts={"transversality-fail": 1}, x0_reference=None, grid=_GRID)),
    (B3ScanReport, dict(reports=())),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_records_build_by_keyword_and_read_field_by_field(cls, fields):
    rec = cls(**fields)
    assert rec == cls(*fields.values())
    assert [getattr(rec, name) for name in fields] == list(fields.values())
    # the repr of a frozen dataclass, ``Name(field=value, ...)``
    assert repr(rec) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_records_hash_as_the_tuple_of_their_fields(cls, fields):
    rec = cls(**fields)
    try:
        want = hash(tuple(fields.values()))
    except TypeError:  # a dict field: neither is hashable
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == want


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_records_refuse_assignment(cls, fields):
    rec = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(rec, name, value)


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_records_carry_no_instance_dict(cls, fields):
    # __slots__ = () on every record keeps a dict off each of the many
    # InclusionSamples and MinRecords; CFSpec keeps one for its memos
    assert hasattr(cls(**fields), "__dict__") == (cls is CFSpec)


def test_record_defaults():
    assert GrowthReport(True, 9, 16).first_violation is None
    cell = TheoremCheck(1, 6, Fraction(1, 10), 9, False, reason="transversality-fail")
    assert (cell.x0, cell.tau, cell.t_n, cell.chain_ok, cell.direct_ok) == (None, None, None, False, None)
    assert (cell.candidate, cell.verified) == (None, None)
    assert repr(cell) == (
        "TheoremCheck(n=1, N=6, epsilon=Fraction(1, 10), lam=9, transversal=False, x0=None, "
        "tau=None, t_n=None, chain_ok=False, direct_ok=None, reason='transversality-fail', "
        "candidate=None, verified=None)"
    )
    spec = CFSpec(SurdSum.sqrt(2))
    assert (spec.preperiod, spec.period) == ((), ())
    scan = ResidualScan((SQRT2M1,))
    assert (scan.combine, scan.X, scan.bound, scan.best, scan.bits) == ("product", 0, None, None, 64)


def test_records_keep_their_properties():
    assert Convergent(2, 2, 5).as_fraction() == Fraction(2, 5)
    assert DirichletPoint(_POINT, 6, SQRT2M1, SQRT3M1).x == 5
    assert SearchOutcome((_CELL,), None, None).exhausted
    assert B3ScanReport((B3PairReport(**dict(RECORDS)[B3PairReport]),)).total_certificates == 0
    x, y, z = _POINT
    assert (x, y, z) == (5, 2, 4)


def test_replace_attaches_a_field_and_keeps_the_rest():
    line = ApproxLine(1, None, _ERR, _ERR)
    point = DirichletPoint(_POINT, 6, SQRT2M1, SQRT3M1)
    moved = line._replace(P0=point)
    assert (moved.n, moved.P0, moved.e_alpha, moved.e_beta) == (1, point, _ERR, _ERR)
    assert moved.x0 == 5 and line.P0 is None


def test_spec_equals_only_a_spec():
    spec = CFSpec.from_periodic([0], [2])
    assert spec == CFSpec(None, (0,), (2,)) and not spec != CFSpec(None, (0,), (2,))
    for other in [(None, (0,), (2,)), tuple(spec), BadProfile(0, 1, Fraction(1))]:
        assert spec != other and other != spec
        assert not spec == other and not other == spec
    assert len({spec, CFSpec(None, (0,), (2,))}) == 1


@pytest.mark.parametrize(
    "fields",
    [
        dict(),
        dict(preperiod=(0,)),
        dict(period=(2,)),
        dict(preperiod=(-1,), period=(2,)),
        dict(preperiod=(0, 0), period=(2,)),
        dict(preperiod=(0,), period=(1, 0)),
        dict(surd=SurdSum.sqrt(2) + SurdSum.sqrt(3)),
    ],
    ids=["nothing", "no-period", "no-a0", "a0-negative", "preperiod-0", "period-0", "two-surds"],
)
def test_spec_refuses_by_keyword(fields):
    with pytest.raises(CFError):
        CFSpec(**fields)


def test_replace_checks_what_construction_checks():
    spec = CFSpec.from_periodic([0], [2])
    assert spec._replace(period=(1, 2)) == CFSpec.from_periodic([0], [1, 2])
    with pytest.raises(CFError):
        spec._replace(period=())
    with pytest.raises(CFError):
        CFSpec._make((None, (0,), ()))
    profile = BadProfile(3, 16, Fraction(1, 10))
    assert profile._replace(C_estimate=Fraction(1, 5)) == BadProfile(3, 16, Fraction(1, 5))
    with pytest.raises(InternalInconsistencyError):
        profile._replace(lam=15)


def test_bad_profile_refuses_a_wrong_lambda():
    with pytest.raises(InternalInconsistencyError):
        BadProfile(M=3, lam=15, C_estimate=Fraction(1, 10))
    with pytest.raises(InternalInconsistencyError):
        BadProfile(2, 16, Fraction(1, 10))


def test_spec_memos_are_computed_once(monkeypatch):
    calls = []

    def count(name):
        real = getattr(cfrac, name)

        def spy(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(cfrac, name, spy)

    count("_cf_cycle")
    count("_periodic_value")
    spec = CFSpec.from_periodic([1], [1, 2])
    for _ in range(3):
        assert cf_expand(spec, 5) == [1, 1, 2, 1, 2]
        assert spec.value() == SurdSum.sqrt(3)
    assert sorted(calls) == ["_cf_cycle", "_periodic_value"]
    assert set(vars(spec)) == {"_cycle", "_value"}
    # a memo does not enter equality or hash
    assert spec == CFSpec.from_periodic([1], [1, 2])
    assert hash(spec) == hash(CFSpec.from_periodic([1], [1, 2]))


@pytest.mark.parametrize("alphas, combine", [((SQRT2M1,), "product"), ((SQRT2M1, SQRT3M1), "max")])
def test_resumed_residual_scan_gives_the_same_records(alphas, combine):
    whole = ResidualScan(alphas=alphas, combine=combine)
    records = residual_minima(whole, 5000)
    scan, pieces = ResidualScan(alphas, combine), []
    for stop in (1, 7, 100, 101, 4000, 5000):
        pieces += residual_minima(scan, stop)
    assert pieces == records
    assert scan == whole and scan.X == 5000
    assert repr(scan) == (
        f"ResidualScan(alphas={alphas!r}, combine={combine!r}, X=5000, bound={whole.bound!r}, "
        f"best={whole.best!r}, bits=64)"
    )
    scan.X = 0  # the one mutable record
    assert scan != whole
    with pytest.raises(TypeError):
        hash(scan)
