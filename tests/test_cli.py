"""CLI: number-spec parsing, exact rationals, CSV shape, determinism and
exit codes."""

import argparse
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from littlewood.cfrac import cf_expand
from littlewood.cli import build_parser, main
from littlewood.cone import ConeParams
from littlewood.csvio import format_decimal, render_csv
from littlewood.exactnum import SurdSum, certified_sign
from littlewood.numspec import (
    NumberSpecError,
    parse_exact_fraction,
    parse_number_spec,
)

from nums import CONE_HEADER, GOLDENM1, SQRT2M1, cone_rows_fraction, read_csv


# -- number specs ------------------------------------------------------------


def test_parse_sqrt_with_frac():
    spec = parse_number_spec("sqrt:2", frac=True)
    assert spec.value() == SQRT2M1


def test_parse_periodic_cf():
    spec = parse_number_spec("cf:[0;(2)]")
    assert spec.value() == SQRT2M1  # exact surd identity


def test_parse_quad_golden():
    spec = parse_number_spec("quad:1,1,2,5", frac=True)
    assert spec.value() == GOLDENM1


@pytest.mark.parametrize(
    "text, value",
    [
        ("sqrt:999983", SurdSum.sqrt(999983)),
        ("sqrt:12", SurdSum.sqrt(12)),
        ("sqrt:49", SurdSum.sqrt(49)),
        ("sqrt:0", SurdSum()),
        ("quad:1,1,2,12", SurdSum.sqrt(12, Fraction(1, 2)) + Fraction(1, 2)),
        ("quad:3,-2,7,999983", SurdSum.sqrt(999983, Fraction(-2, 7)) + Fraction(3, 7)),
        ("quad:1,1,1,4", SurdSum.from_rational(3)),
        ("quad:5,0,3,2", SurdSum.from_rational(Fraction(5, 3))),
        ("quad:2,7,1,0", SurdSum.from_rational(2)),
    ],
)
def test_parse_factors_each_radicand_once(monkeypatch, text, value):
    import littlewood.exactnum as exactnum
    import littlewood.numspec as numspec

    calls = []
    real = exactnum.squarefree_decompose

    def spy(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(exactnum, "squarefree_decompose", spy)
    monkeypatch.setattr(numspec, "squarefree_decompose", spy)
    spec = parse_number_spec(text)
    assert len(calls) == 1, calls
    assert (spec.value() - value).is_zero()


def test_parse_rational_and_finite_cf():
    assert parse_number_spec("rat:7/5").value() == Fraction(7, 5)
    assert parse_number_spec("rat:3").value() == Fraction(3)
    assert parse_number_spec("cf:[1;2,2]").value() == Fraction(7, 5)
    assert parse_number_spec("cf:[1;2,3(4,5)]").period == (4, 5)


def test_parse_mixed_preperiod_period_value():
    # cf:[1;2(3)] = 1 + 1/(2 + 1/[3;(3)]) type tail; round-trip via expansion
    spec = parse_number_spec("cf:[1;2(3)]")
    assert spec.preperiod == (1, 2) and spec.period == (3,)
    from littlewood.cfrac import cf_expand

    assert cf_expand(spec, 6) == [1, 2, 3, 3, 3, 3]


def test_parse_fractional_part_of_periodic_and_rational():
    from littlewood.cfrac import cf_expand

    whole = parse_number_spec("cf:[2;1,(3,1)]")
    frac = parse_number_spec("cf:[2;1,(3,1)]", frac=True)
    assert frac.surd is None
    assert frac.value() == whole.value() - 2
    assert cf_expand(frac, 12) == [0] + cf_expand(whole, 12)[1:]
    assert parse_number_spec("rat:7/3", frac=True).value() == Fraction(1, 3)
    assert parse_number_spec("rat:-7/3", frac=True).value() == Fraction(2, 3)


def test_parse_errors_carry_position():
    with pytest.raises(NumberSpecError) as exc:
        parse_number_spec("quad:1,2,0,5")
    assert exc.value.position == 5
    with pytest.raises(NumberSpecError):
        parse_number_spec("sqrt:abc")
    with pytest.raises(NumberSpecError):
        parse_number_spec("nope:1")
    with pytest.raises(NumberSpecError):
        parse_number_spec("cf:[1;2,3(]")


def test_nonsquarefree_radicand_normalized():
    spec = parse_number_spec("sqrt:8")
    v = spec.value()
    assert v.terms() == ((2, 2),)  # 2*sqrt(2)


def test_exact_fraction_parsing():
    assert parse_exact_fraction("1/1000") == Fraction(1, 1000)
    assert parse_exact_fraction("0.001") == Fraction(1, 1000)  # no float detour
    assert parse_exact_fraction("1e-3") == Fraction(1, 1000)
    with pytest.raises(NumberSpecError):
        parse_exact_fraction("0.1.2")


# -- decimal rendering -------------------------------------------------------


def test_format_decimal_directed():
    x = Fraction(1, 3)
    lo = format_decimal(x, direction=-1)
    hi = format_decimal(x, direction=1)
    assert Fraction(lo) <= x <= Fraction(hi)
    assert lo != hi
    assert format_decimal(Fraction(1, 4)) == "0.25"
    assert format_decimal(0) == "0"
    # toward -inf: the magnitude rounds up for negatives
    assert format_decimal(Fraction(-1, 3), direction=-1) == "-0.333333333333334"
    assert Fraction(format_decimal(Fraction(-1, 3), direction=-1)) <= Fraction(-1, 3)


def test_format_decimal_scientific():
    s = format_decimal(Fraction(1, 10**30))
    assert s == "1e-30"
    s = format_decimal(Fraction(12345678901234567890123))
    assert s.startswith("1.23456789012346e+22")


def test_format_decimal_fifteen_digits():
    val = Fraction(141421356237309504880168872420969808, 10**35)
    # nearest at 15 significant digits, trailing zero stripped
    assert format_decimal(val) == "1.4142135623731"


# -- end-to-end runs ---------------------------------------------------------


def _run(argv):
    return main(argv)


def test_liminf_csv_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["liminf", "--alpha", "sqrt:2", "--frac", "--beta", "sqrt:3",
            "--max-x", "2000"]
    assert _run(args + ["--out", str(out1)]) == 0
    assert _run(args + ["--out", str(out2)]) == 0
    a, b = read_csv(out1), read_csv(out2)
    assert a.header == ["x", "value_lo", "value_hi"]
    assert a.metadata["arg.out"] == str(out1)
    # outputs identical apart from the differing --out path line
    assert a.rows == b.rows
    strip = lambda table: [kv for kv in table.metadata.items() if kv[0] != "arg.out"]
    assert strip(a) == strip(b)
    assert a.rows[0]["x"] == "1"


def test_liminf_csv_encloses_the_exact_minima(tmp_path):
    out = tmp_path / "minima.csv"
    assert _run(["liminf", "--alpha", "sqrt:2", "--frac", "--beta", "sqrt:3",
                 "--max-x", "200000", "--out", str(out)]) == 0
    alpha = parse_number_spec("sqrt:2", frac=True).value()
    beta = parse_number_spec("sqrt:3").value()
    table = read_csv(out)
    assert table.header == ["x", "value_lo", "value_hi"]
    rows = [(int(r["x"]), r["value_lo"], r["value_hi"]) for r in table.rows]
    assert [x for x, _, _ in rows][-2:] == [41, 10864]
    for x, lo, hi in rows:
        value = x * (alpha * x).nearest()[1].abs() * (beta * x).nearest()[1].abs()
        assert certified_sign(value - Fraction(lo)) >= 0
        assert certified_sign(Fraction(hi) - value) >= 0


def test_same_path_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "same.csv"
    args = ["cone-check", "--alpha", "sqrt:2", "--frac", "--beta", "sqrt:3",
            "--N", "8", "--epsilon", "1/9", "--samples", "150", "--seed", "1",
            "--out", str(out)]
    assert _run(args) == 0
    first = out.read_bytes()
    assert _run(args) == 0
    assert out.read_bytes() == first


def test_cone_check_run(tmp_path):
    out = tmp_path / "c.csv"
    rc = _run([
        "cone-check", "--alpha", "sqrt:2", "--frac", "--beta", "sqrt:3",
        "--N", "9", "--epsilon", "1/8", "--samples", "300", "--seed", "5",
        "--out", str(out),
    ])
    assert rc == 0
    table = read_csv(out)
    assert table.header == CONE_HEADER
    assert len(table.rows) == 300 and table.metadata["samples"] == "300"
    assert all(r["verdict"] == "ok" for r in table.rows)


@pytest.mark.parametrize(
    "alpha, beta, N, eps, seed, samples",
    [
        ("sqrt:2", "sqrt:3", 10, "1/10", 3, 2 * 2048 + 301),
        ("quad:1,1,2,5", "sqrt:7", 50, "3/10000", 11, 2048 + 301),
        # 2*eps/N = 2: s = sqrt(2)*(N-x) shares the radicand of alpha = sqrt(2)/64,
        # so the y form merges two terms in sqrt(2), the shape that can cancel
        ("quad:0,1,64,2", "sqrt:3", 2, "2", 5, 2048 + 301),
        ("rat:2/7", "sqrt:5", 37, "0.0004", 2**40, 2048 + 301),
        # the benchmark's shape: radicands near 3000, N up to 199
        ("quad:1,1,2,2917", "quad:3,2,5,2963", 199, "7/10000", 7, 2048 + 301),
        # 2*eps/N = 1: sqrt(phi) = 1/7 is rational, so the rad-1 term of each
        # coordinate carries the s part
        ("sqrt:2", "sqrt:3", 8, "4", 2, 500),
        ("quad:1,1,2,5", "sqrt:7", 5, "1/10", 4, 500),
    ],
)
def test_cone_csv_matches_the_fraction_renderer(tmp_path, alpha, beta, N, eps, seed, samples):
    """The whole cone-check CSV, rows past chunk boundaries included, is the
    one the per-cell Fraction renderer gives for the same run."""
    out = tmp_path / "cone.csv"
    assert _run(["cone-check", "--alpha", alpha, "--beta", beta, "--frac", "--N", str(N),
                 "--epsilon", eps, "--samples", str(samples), "--seed", str(seed),
                 "--out", str(out)]) == 0
    table = read_csv(out)
    assert table.metadata["samples"] == str(samples) and table.metadata["violations"] == "0"
    alpha_v, beta_v = (parse_number_spec(s, frac=True).value() for s in (alpha, beta))
    params = ConeParams.make(N, parse_exact_fraction(eps))
    rows = cone_rows_fraction(alpha_v, beta_v, params, samples, seed)
    assert out.read_bytes() == render_csv(CONE_HEADER, rows, table.metadata).encode()


def test_cone_check_takes_roots_and_builds_renderers_once_per_run(tmp_path, monkeypatch):
    # the coordinate roots and the five column renderers are per-run work:
    # outside the cross-check, whose row count is fixed near 32, a run of
    # 3000 rows takes as many roots and builds as many renderers as a run
    # of 300
    from littlewood import cone, csvio, exactnum

    counts = {}
    inside = []
    real_sqrt, real_check = exactnum._sqrt_floor, cone.InclusionRun._crosscheck
    real_init = csvio.RatioRenderer.__init__

    def crosscheck(self, sample):
        inside.append(sample)
        try:
            return real_check(self, sample)
        finally:
            inside.pop()

    def sqrt_floor(d, bits):
        counts["roots"] += not inside
        return real_sqrt(d, bits)

    def init(self, *args):
        counts["renderers"] += not inside
        real_init(self, *args)

    monkeypatch.setattr(exactnum, "_sqrt_floor", sqrt_floor)
    monkeypatch.setattr(cone.InclusionRun, "_crosscheck", crosscheck)
    monkeypatch.setattr(csvio.RatioRenderer, "__init__", init)
    seen = []
    for samples in (300, 3000):
        counts.update(roots=0, renderers=0)
        assert _run(["cone-check", "--alpha", "quad:1,1,2,2917", "--beta", "sqrt:7", "--frac",
                     "--N", "40", "--epsilon", "1/1000", "--samples", str(samples),
                     "--out", str(tmp_path / "c.csv")]) == 0
        seen.append(dict(counts))
    assert seen[0] == seen[1] and seen[0]["roots"] > 0 and seen[0]["renderers"] == 5, seen


def test_entry_time_run(tmp_path):
    out = tmp_path / "e.csv"
    rc = _run([
        "entry-time", "--alpha", "sqrt:2", "--frac", "--beta", "sqrt:3",
        "--N", "51", "--epsilon", "0.01", "--n-max", "5", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,q2n_alpha,q2n_beta,t_n,tau_lo,tau_hi,transversal,verdict"
    assert lines[1].startswith("1,5,3,15,")
    assert "nontransversal" in lines[1]


def test_entry_time_reads_t_n_from_its_lines(tmp_path, monkeypatch, capsys):
    # the README command: the pair reads each t_n once, from the two
    # order-2n convergent denominators, which are the q_2n its line carries;
    # the CSV is the golden one
    from littlewood import lattice

    golden = Path(__file__).parent / "golden"
    calls = []
    convergent = lattice.convergent
    monkeypatch.setattr(lattice, "convergent", lambda *a: calls.append(a) or convergent(*a))
    monkeypatch.chdir(tmp_path)
    assert main([
        "entry-time", "--alpha", "sqrt:2", "--frac", "--beta", "sqrt:3",
        "--N", "51", "--epsilon", "0.01", "--n-max", "8", "--out", "entry.csv",
    ]) == 0
    assert capsys.readouterr().out == (golden / "entry.stdout").read_text()
    assert (tmp_path / "entry.csv").read_bytes() == (golden / "entry.csv").read_bytes()
    assert sorted(k for _, k in calls) == sorted(2 * [2 * n for n in range(1, 9)])
    for row in read_csv(tmp_path / "entry.csv").rows:
        assert int(row["t_n"]) == math.lcm(int(row["q2n_alpha"]), int(row["q2n_beta"]))


def test_certificate_prints_the_trivial_witness_at_its_tie(capsys):
    # beta = (1 + sqrt(2))/5, so ||alpha|| * ||beta|| = (sqrt(2) - 1)(sqrt(2) + 1)/5
    # = 1/5 exactly: the x = 1 point is a witness at eps = 1/5 and not below
    argv = ["certificate", "--alpha", "sqrt:2", "--frac", "--beta", "quad:1,1,5,2",
            "--n-max", "1", "--epsilon"]
    assert _run(argv + ["1/5"]) == 0
    assert "(1, 0, 0) is a trivial witness" in capsys.readouterr().out
    assert _run(argv + ["1/6"]) == 0
    assert "trivial witness" not in capsys.readouterr().out


def test_certificate_observes_the_quotients_once_per_pair(monkeypatch, capsys):
    # the README certificate run sweeps 50 cells of one pair; lambda is the
    # pair's, so each number's partial-quotient bound is read once
    from littlewood import lattice

    calls = []
    observed_M = lattice._observed_M
    monkeypatch.setattr(lattice, "_observed_M", lambda spec: calls.append(spec) or observed_M(spec))
    assert _run(["certificate", "--alpha", "sqrt:2", "--frac", "--beta", "sqrt:3",
                 "--epsilon", "1/1000", "--n-max", "10"]) == 0
    assert "searched 50 (n, N) cells" in capsys.readouterr().out
    assert len(calls) <= 2


def test_b3_scan_builds_each_error_term_once(tmp_path, monkeypatch, capsys):
    # the golden b3 run: one pair at three epsilons shares its order-2n
    # lines, so each (number, n) has its error term built once
    from littlewood import lattice

    calls = []
    error_term = lattice.error_term
    monkeypatch.setattr(lattice, "error_term",
                        lambda spec, k: calls.append((spec, k)) or error_term(spec, k))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pairs.txt").write_text("sqrt:2 sqrt:3\n")
    assert _run(["b3-scan", "--pairs", "pairs.txt", "--frac", "--epsilons",
                 "1/100,1/10000,1/1000000", "--u-points", "100"]) == 0
    assert "total certificates: 0" in capsys.readouterr().out
    assert len(calls) == len(set(calls)) == 8


def test_certificate_run_exhaustion(tmp_path):
    out = tmp_path / "cert.csv"
    rc = _run([
        "certificate", "--alpha", "sqrt:2", "--frac", "--beta", "sqrt:3",
        "--epsilon", "1/1000", "--n-max", "4", "--out", str(out),
    ])
    assert rc == 0  # exhaustion is success
    text = out.read_text()
    assert "transversality-fail" in text or "tau-too-large" in text
    assert "# exhausted = True" in text


def test_b3_scan_run(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("sqrt:2 sqrt:3\nquad:1,1,2,5 sqrt:2\n")
    out = tmp_path / "b3.csv"
    rc = _run([
        "b3-scan", "--pairs", str(pairs), "--frac",
        "--epsilons", "1/100,1/10000", "--u-points", "40", "--out", str(out),
    ])
    assert rc == 0
    text = out.read_text()
    assert "# certificates = 0" in text
    # the rows, the inequality keys and the summary lines carry each report's
    # own spec strings, pair-major with the epsilons inside
    labels = [(a, b, eps) for a, b in (("sqrt:2", "sqrt:3"), ("quad:1,1,2,5", "sqrt:2"))
              for eps in ("1/100", "1/10000")]
    table = read_csv(out)
    seen = [(r["alpha"], r["beta"], r["epsilon"]) for r in table.rows]
    assert list(dict.fromkeys(seen)) == labels
    keys = [k for k in table.metadata if k.startswith("inequality.")]
    assert keys == [f"inequality.{i}.{a}.{b}.{eps}" for i, (a, b, eps) in enumerate(labels)]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": n in")[0] for line in lines[:4]] == [
        f"pair ({a}, {b}), eps={eps}" for a, b, eps in labels]


def test_b3_scan_quotes_labels_that_hold_commas(tmp_path):
    # a cf: label holds commas, so its cells are quoted; the other cells of
    # the row, the empty x0 cells among them, are not
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("cf:[0;(1,2)] cf:[0;(2,3)]\n")
    out = tmp_path / "b3.csv"
    rc = _run(["b3-scan", "--pairs", str(pairs), "--frac", "--epsilons", "1/100",
               "--u-points", "10", "--out", str(out)])
    assert rc == 0
    lines = [ln for ln in out.read_text().splitlines()[1:] if not ln.startswith("#")]
    assert lines and all(ln.startswith('"cf:[0;(1,2)]","cf:[0;(2,3)]",1/100,') for ln in lines)
    table = read_csv(out)
    assert {(r["alpha"], r["beta"]) for r in table.rows} == {("cf:[0;(1,2)]", "cf:[0;(2,3)]")}
    empty = [r for r in table.rows if r["reason"] == "transversality-fail"]
    assert empty and all(r["x0"] == "" for r in empty)
    assert all(",," in ln for ln in lines if ln.endswith(",transversality-fail"))


def test_b3_scan_refuses_a_purely_periodic_quotient_above_3(tmp_path, capsys):
    # 2 + sqrt(5) = [4; 4, 4, ...]: its a_0 = 4 recurs, so the pair fails
    # the bounded-quotient gate before any cell runs
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("quad:2,1,1,5 quad:2,1,1,5\n")
    rc = _run(["b3-scan", "--pairs", str(pairs), "--epsilons", "1/100", "--u-points", "10"])
    assert rc == 2
    assert "partial quotient 4 > 3" in capsys.readouterr().err


def test_cartan_run(tmp_path):
    out = tmp_path / "ca.csv"
    rc = _run([
        "cartan", "--alpha", "sqrt:2", "--frac", "--beta", "sqrt:3",
        "--y0", "1", "--z0", "1", "--epsilon", "0.001", "--out", str(out),
    ])
    assert rc == 0
    table = read_csv(out)
    assert "monic_measure_lo" in table.header and len(table.rows) == 1


def test_cartan_with_a_tangency_at_the_level(tmp_path):
    # g = t (t - 3)^2 has its local maximum g(1) = 4 exactly at eps, so
    # g - eps = (t - 1)^2 (t - 4) has a double root; the sublevel set
    # {|g| <= 4} is [r, 4] with g(r) = -4, of measure 4.355301397608...
    out = tmp_path / "tan.csv"
    rc = _run([
        "cartan", "--alpha", "rat:1", "--beta", "rat:1", "--y0", "3",
        "--z0", "3", "--epsilon", "4", "--out", str(out),
    ])
    assert rc == 0
    (row,) = read_csv(out).rows
    lo, hi = float(row["monic_measure_lo"]), float(row["monic_measure_hi"])
    assert lo <= 4.355301397608 <= hi and hi - lo < 1e-9


def test_cartan_with_a_tiny_epsilon(tmp_path):
    # near the simple root t = 0 of g = t (t - 3)^2 the roots of g - eps
    # and g + eps lie 2 eps / 9 apart, far below the default tolerance
    out = tmp_path / "tiny.csv"
    rc = _run([
        "cartan", "--alpha", "rat:1", "--beta", "rat:1", "--y0", "3",
        "--z0", "3", "--epsilon", "1/10000000000000000000000000", "--out", str(out),
    ])
    assert rc == 0
    (row,) = read_csv(out).rows
    lo, hi = Fraction(row["monic_measure_lo"]), Fraction(row["monic_measure_hi"])
    # measure 3.6514837167013296...e-13 (mpmath, 80 digits), nearly all of
    # it the 2 sqrt(eps/3) around the double root t = 3
    assert lo <= Fraction(36514837167013296, 10**29) <= hi


def test_levy_run(tmp_path):
    out = tmp_path / "l.csv"
    rc = _run([
        "levy", "--alpha", "quad:1,1,2,5", "--frac", "--beta", "sqrt:2",
        "--n-max", "10", "--out", str(out),
    ])
    assert rc == 0
    assert "# levy_ae_reference = 1.186569110416" in out.read_text()


def test_levy_golden_csv_matches_mpmath_logs():
    # every cell of the golden levy.csv, re-parsed, against log(q_n)/n and
    # log(t_n)/n at 50 digits, t_n = lcm(q_2n(alpha), q_2n(beta)); the
    # denominators come from the exact partial quotients by the recurrence
    # q_n = a_n q_(n-1) + q_(n-2)
    import mpmath

    table = read_csv(Path(__file__).parent / "golden" / "levy.csv")
    meta = table.metadata
    n_max = int(meta["arg.n_max"])
    frac = meta["arg.frac"] == "True"
    qs = []
    for name in ("arg.alpha", "arg.beta"):
        quotients = cf_expand(parse_number_spec(meta[name], frac), 2 * n_max + 1)
        q = [1, quotients[1]]
        for a in quotients[2:]:
            q.append(a * q[-1] + q[-2])
        qs.append(q)
    qa, qb = qs
    assert [int(r["n"]) for r in table.rows] == list(range(1, n_max + 1))
    with mpmath.workdps(50):
        for row in table.rows:
            n = int(row["n"])
            t_n = math.lcm(qa[2 * n], qb[2 * n])
            for column, exact in (
                ("levy_alpha", mpmath.log(qa[n]) / n),
                ("levy_beta", mpmath.log(qb[n]) / n),
                ("log_tn_over_n", mpmath.log(t_n) / n),
            ):
                assert abs(mpmath.mpf(row[column]) - exact) <= mpmath.mpf(10) ** -12, (n, column)


def test_usage_errors_exit_2(tmp_path):
    assert _run(["liminf", "--alpha", "nope:1", "--beta", "sqrt:3",
                 "--max-x", "10"]) == 2
    assert _run(["cone-check", "--alpha", "sqrt:2", "--beta", "sqrt:3",
                 "--N", "1", "--epsilon", "1/8"]) == 2
    with pytest.raises(SystemExit) as exc:
        _run(["certificate", "--alpha", "sqrt:2"])  # missing required args
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["b3-scan", "--pairs", "PAIRS", "--frac", "--epsilons", "0", "--u-points", "10"],
        ["b3-scan", "--pairs", "PAIRS", "--frac", "--epsilons=-1/100", "--u-points", "10"],
        ["b3-scan", "--pairs", "PAIRS", "--frac", "--epsilons", "1/100", "--u-points", "0"],
        ["b3-scan", "--pairs", "PAIRS", "--frac", "--epsilons", "1/100", "--u-points=-5"],
        ["b3-scan", "--pairs", "PAIRS", "--frac", "--epsilons", "1/100", "--max-N", "0"],
        ["b3-scan", "--pairs", "PAIRS", "--frac", "--epsilons", "1/100", "--max-N=-4"],
        ["b3-scan", "--pairs", "PAIRS", "--frac", "--epsilons", "1/100", "--max-N", "1"],
        ["levy", "--alpha", "sqrt:2", "--beta", "sqrt:3", "--n-max", "0"],
        ["levy", "--alpha", "sqrt:2", "--n-max", "0"],
        ["entry-time", "--alpha", "sqrt:2", "--frac", "--beta", "sqrt:3", "--N", "51",
         "--epsilon", "0.01", "--n-max", "0"],
        ["certificate", "--alpha", "sqrt:2", "--frac", "--beta", "sqrt:3", "--epsilon", "1/10",
         "--n-max", "0"],
        ["certificate", "--alpha", "sqrt:2", "--frac", "--beta", "sqrt:3", "--epsilon", "1/10",
         "--n-max", "1", "--max-N", "1"],
        # a Dirichlet floor 1/(2 eps) above --max-N
        ["certificate", "--alpha", "sqrt:2", "--frac", "--beta", "sqrt:3", "--epsilon", "1/1000",
         "--n-max", "1", "--max-N", "100"],
        # finite continued fractions with a quotient below 1 after a0
        ["levy", "--alpha", "cf:[0;0]"],
        ["levy", "--alpha", "cf:[0;-1,2]"],
        # a quad spec with a zero denominator or a negative radicand
        ["levy", "--alpha", "quad:1,1,0,2"],
        ["levy", "--alpha", "quad:1,1,1,-2"],
        # square roots of 2 eps / N and of 2 eps whose radicands have a
        # cofactor too large to certify squarefree
        ["cone-check", "--alpha", "sqrt:2", "--frac", "--beta", "sqrt:3", "--N", "10",
         "--epsilon", "1/1000000000000000000000000000057"],
        ["b3-scan", "--pairs", "CF_PAIRS", "--frac",
         "--epsilons", "1000000000000000000057/100000000000000000000117"],
        # a negative seed would repeat the rows of its absolute value
        ["cone-check", "--alpha", "sqrt:2", "--frac", "--beta", "sqrt:3", "--N", "10",
         "--epsilon", "1/100", "--samples", "5", "--seed=-5"],
    ],
    ids=["b3-eps-0", "b3-eps-negative", "b3-u-points-0", "b3-u-points-negative",
         "b3-max-N-0", "b3-max-N-negative", "b3-max-N-1",
         "levy-n-max-0-pair", "levy-n-max-0", "entry-n-max-0",
         "certificate-n-max-0", "certificate-max-N-1",
         "certificate-floor-above-max-N",
         "cf-quotient-0", "cf-quotient-negative",
         "quad-denominator-0", "quad-radicand-negative",
         "cone-radicand-uncertified", "b3-radicand-uncertified", "cone-seed-negative"],
)
def test_bad_input_exits_2_with_a_message(tmp_path, capsys, argv):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("sqrt:2 sqrt:3\n")
    cf_pairs = tmp_path / "cf_pairs.txt"
    cf_pairs.write_text("cf:[0;(1,2)] cf:[0;(2,3)]\n")
    files = {"PAIRS": str(pairs), "CF_PAIRS": str(cf_pairs)}
    out = tmp_path / "out.csv"
    argv = [files.get(a, a) for a in argv] + ["--out", str(out)]
    assert _run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


# every option of every subcommand, --help left out; adding or removing an
# option is a deliberate edit of this table
OPTIONS = {
    "liminf": ["--alpha", "--beta", "--frac", "--max-x", "--out"],
    "cone-check": ["--alpha", "--beta", "--frac", "--N", "--epsilon", "--samples", "--seed",
                   "--out"],
    "entry-time": ["--alpha", "--beta", "--frac", "--N", "--epsilon", "--n-max", "--out"],
    "certificate": ["--alpha", "--beta", "--frac", "--epsilon", "--n-max", "--max-N", "--out"],
    "b3-scan": ["--pairs", "--frac", "--epsilons", "--u-points", "--max-N", "--out"],
    "cartan": ["--alpha", "--beta", "--frac", "--y0", "--z0", "--epsilon", "--out"],
    "levy": ["--alpha", "--beta", "--frac", "--n-max", "--out"],
}


def test_option_inventory():
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: [opt for action in sub._actions
               if not isinstance(action, argparse._HelpAction)
               for opt in action.option_strings]
        for name, sub in commands.choices.items()
    }
    assert found == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 45


@pytest.mark.parametrize(
    "text",
    ["cf:[0;(0)]", "cf:[0;1,0,(2)]", "cf:[0;()]", "cf:[-1;(2)]", "cf:0;1", "rat:1/0",
     "quad:1,2,3", "sqrt:-4", "nope"],
)
def test_malformed_number_spec_exits_2_naming_it(capsys, text):
    # each is refused by the spec parser, which names the spec and a position
    assert _run(["levy", "--alpha", text, "--n-max", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"in {text!r})" in err


def test_levy_never_needs_the_value_of_a_periodic_spec(tmp_path, capsys):
    # the value of this spec has the radicand 8516351466201618691560004,
    # which cannot be certified squarefree; the expansion does not need it
    period = ",".join(str(a) for a in range(1, 16))
    out = tmp_path / "levy.csv"
    assert _run(["levy", "--alpha", f"cf:[0;({period})]", "--n-max", "5",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert len(read_csv(out).rows) == 5


def test_certificate_max_N_past_2_to_the_32(tmp_path, capsys):
    # a rational pair is transversal at every N, so the geometric grid runs
    # to max_N = 10**10; each cell's Dirichlet point is exact (x0 = 3 or 7)
    out = tmp_path / "cert.csv"
    assert _run(["certificate", "--alpha", "rat:3/7", "--beta", "rat:2/7", "--epsilon", "1/10",
                 "--n-max", "1", "--max-N", "10000000000", "--out", str(out)]) == 0
    printed = capsys.readouterr()
    assert printed.err == "" and "searched 32 (n, N) cells" in printed.out
    rows = read_csv(out).rows
    assert len(rows) == 32 and rows[-1]["N"] == "10000000000"
    assert {row["x0"] for row in rows} == {"3", "7"}


def test_huge_epsilon_ends_in_the_exact_verdict(tmp_path, capsys):
    # float(eps) overflows at both epsilons; the verdicts are exact and the
    # displayed floats fall back to logarithms (cartan) or an infinity (b3)
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("sqrt:2 sqrt:3\n")
    cartan_csv, b3_csv = tmp_path / "cartan.csv", tmp_path / "b3.csv"
    assert _run(["cartan", "--alpha", "sqrt:2", "--frac", "--beta", "sqrt:3", "--y0", "1",
                 "--z0", "1", "--epsilon", "1e400", "--out", str(cartan_csv)]) == 0
    ((row,),) = [read_csv(cartan_csv).rows]
    assert row["monic_within_bound"] == "True"
    assert math.isclose(float(row["bound_2e_eps13"]), 2 * math.e * 10 ** (400 / 3))
    assert _run(["b3-scan", "--pairs", str(pairs), "--frac", "--epsilons", "1e100",
                 "--out", str(b3_csv)]) == 0
    out, err = capsys.readouterr()
    assert "(min margin inf)" in out and not err


def test_uncertifiable_radicand_exits_2(capsys):
    radicand = "1000000000000000012000000000000000027"
    assert _run(["levy", "--alpha", f"sqrt:{radicand}"]) == 2
    assert f"radicand {radicand}" in capsys.readouterr().err


def test_rational_without_order_2n_convergent_exits_2(capsys):
    argv = ["certificate", "--alpha", "rat:1/3", "--beta", "sqrt:3",
            "--epsilon", "1/100", "--n-max", "3"]
    assert _run(argv) == 2
    err = capsys.readouterr().err
    assert "alpha = 1/3" in err
    assert "order 2n = 2" in err
    # levy reads t_1 = lcm(q_2(alpha), q_2(beta)), and 1/3 = [0; 3] has no q_2
    assert _run(["levy", "--alpha", "sqrt:2", "--beta", "rat:1/3"]) == 2
    assert capsys.readouterr().err == (
        "error: expansion has only 2 quotients; convergent 2 does not exist\n"
    )


def test_help_exits_zero():
    for sub in ("liminf", "cone-check", "entry-time", "certificate",
                "b3-scan", "cartan", "levy"):
        with pytest.raises(SystemExit) as exc:
            _run([sub, "--help"])
        assert exc.value.code == 0


def test_no_subcommand_takes_threads(capsys):
    for sub in ("liminf", "cone-check", "entry-time", "certificate",
                "b3-scan", "cartan", "levy"):
        with pytest.raises(SystemExit):
            _run([sub, "--help"])
        assert "--threads" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        _run(["cone-check", "--alpha", "sqrt:2", "--frac", "--beta", "sqrt:3", "--N", "8",
              "--epsilon", "1/9", "--samples", "10", "--threads", "1"])
    assert exc.value.code == 2


NOTES = {
    "sqrt:8": "sqrt:8 normalized to 2*sqrt(2)\n",
    "quad:1,1,1,8": "quad radicand 8 normalized to squarefree 2\n",
}


def _note_argv(command, spec, tmp_path):
    nums = ["--alpha", spec, "--frac", "--beta", "sqrt:3", "--frac"]
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(f"{spec} sqrt:3\n")
    return {
        "liminf": ["liminf", *nums, "--max-x", "100"],
        "cone-check": ["cone-check", *nums, "--N", "10", "--epsilon", "1/10", "--samples", "10"],
        "entry-time": ["entry-time", *nums, "--N", "51", "--epsilon", "1/100", "--n-max", "2"],
        "certificate": ["certificate", *nums, "--epsilon", "1/1000", "--n-max", "2"],
        "b3-scan": ["b3-scan", "--pairs", str(pairs), "--frac", "--epsilons", "1/100"],
        "cartan": ["cartan", *nums, "--y0", "1", "--z0", "1", "--epsilon", "1/1000"],
        "levy": ["levy", "--alpha", "quad:1,1,2,5", "--frac", "--beta", spec, "--n-max", "3"],
    }[command]


@pytest.mark.parametrize("spec", NOTES)
@pytest.mark.parametrize("command", ["liminf", "cone-check", "entry-time", "certificate",
                                     "b3-scan", "cartan", "levy"])
def test_every_command_prints_the_radicand_note(command, spec, tmp_path, capsys):
    # the radicand note of every spec a command parses goes to stderr, one
    # line each; 2*sqrt(2) has a partial quotient 4, past b3-scan's bound 3
    code = main(_note_argv(command, spec, tmp_path))
    err = capsys.readouterr().err
    if command == "b3-scan":
        assert (code, err) == (2, NOTES[spec] + "error: pair has a partial quotient 4 > 3\n")
    else:
        assert (code, err) == (0, NOTES[spec])


def test_parsing_writes_nothing_and_hands_its_notes_to_the_caller():
    # a process that sends INFO logging to stderr still sees no note: the
    # library writes nothing itself, only to a `note` it is given
    probe = (
        "import logging; logging.basicConfig(level=logging.INFO); "
        "from littlewood.numspec import parse_number_spec; "
        "parse_number_spec('quad:1,1,1,8')"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    assert (done.stdout, done.stderr) == ("", "")
    notes = []
    for spec in NOTES:
        parse_number_spec(spec, note=notes.append)
    assert [note + "\n" for note in notes] == list(NOTES.values())
    parse_number_spec("quad:1,1,2,5", note=notes.append)
    assert len(notes) == 2
