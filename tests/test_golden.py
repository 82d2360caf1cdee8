"""Golden outputs of the seven README CLI examples at reduced sizes.

Each case runs ``cli.main`` in a fresh directory with the same relative
``--out`` the golden file was written with (the path is recorded in the
CSV's metadata block), then compares the CSV and stdout byte for byte and
the exit code exactly.  The files in ``tests/golden/`` were written by the
code before the integer-mantissa interval kernel; a change that keeps them
identical keeps every printed enclosure and verdict.
"""

import math
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from littlewood.cfrac import cf_expand, convergent, error_term
from littlewood.cli import main
from littlewood.cone import ConeParams, InclusionRun, sample_point_coordinates
from littlewood.csvio import format_decimal
from littlewood.entrytime import entry_time
from littlewood.lattice import Pair, cartan_measure
from littlewood.numspec import parse_number_spec

from nums import (
    dirichlet_search_chunked,
    infeasibility_grid_loop,
    read_csv,
    tau_vs_squared,
    transversality_check_surd,
)

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

NUMBERS = ["--alpha", "sqrt:2", "--frac", "--beta", "sqrt:3"]

# (name, argv, exit code); the CSV is <name>.csv, stdout <name>.stdout
CASES = [
    ("minima", ["liminf", "--alpha", "sqrt:2", "--frac", "--beta", "sqrt:3", "--frac",
                "--max-x", "20000"], 0),
    ("cone", ["cone-check", *NUMBERS, "--N", "10", "--epsilon", "1/10",
              "--samples", "300"], 0),
    ("entry", ["entry-time", *NUMBERS, "--N", "51", "--epsilon", "0.01",
               "--n-max", "8"], 0),
    ("cert", ["certificate", *NUMBERS, "--epsilon", "1/1000", "--n-max", "6"], 0),
    ("b3", ["b3-scan", "--pairs", "pairs.txt", "--frac",
            "--epsilons", "1/100,1/10000,1/1000000", "--u-points", "100"], 0),
    ("cartan", ["cartan", *NUMBERS, "--y0", "1", "--z0", "1", "--epsilon", "0.001"], 0),
    ("levy", ["levy", "--alpha", "quad:1,1,2,5", "--frac", "--beta", "sqrt:2",
              "--n-max", "40"], 0),
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_readme_example_matches_golden(name, argv, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    shutil.copy(GOLDEN / "pairs.txt", tmp_path / "pairs.txt")
    assert main([*argv, "--out", f"{name}.csv"]) == code
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.stdout").read_text()
    assert (tmp_path / f"{name}.csv").read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("seed", ["0", "98765"])
def test_readme_examples_do_not_depend_on_the_hash_seed(seed, tmp_path):
    """The seven cases, each in a fresh interpreter under a fixed
    PYTHONHASHSEED (the caches key on hashed numbers), write the golden
    stdout and CSV byte for byte."""
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
    shutil.copy(GOLDEN / "pairs.txt", tmp_path / "pairs.txt")
    for name, argv, code in CASES:
        proc = subprocess.run(
            [sys.executable, "-m", "littlewood.cli", *argv, "--out", f"{name}.csv"],
            cwd=tmp_path, env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == code, (name, proc.stderr)
        assert proc.stdout == (GOLDEN / f"{name}.stdout").read_bytes(), name
        assert (tmp_path / f"{name}.csv").read_bytes() == (GOLDEN / f"{name}.csv").read_bytes(), name


def _tau_rows(path):
    return [r for r in read_csv(path).rows if r["tau_lo"]]


@pytest.mark.parametrize("name", ["entry", "cert"])
def test_printed_tau_encloses_exact_entry_time(name, tmp_path, monkeypatch, capsys):
    """Every printed (tau_lo, tau_hi) pair encloses the exact entry time,
    decided by the exact comparator tau_vs on the re-parsed decimals."""
    monkeypatch.chdir(tmp_path)
    ((_, argv, code),) = [c for c in CASES if c[0] == name]
    assert main([*argv, "--out", f"{name}.csv"]) == code
    capsys.readouterr()
    pair = Pair(parse_number_spec("sqrt:2", True), parse_number_spec("sqrt:3", True))
    epsilon = Fraction(argv[argv.index("--epsilon") + 1])
    N_fixed = int(argv[argv.index("--N") + 1]) if "--N" in argv else None
    rows = _tau_rows(tmp_path / f"{name}.csv")
    assert len(rows) >= 5
    for row in rows:
        n, N = int(row["n"]), N_fixed or int(row["N"])
        line = pair.line(n)._replace(P0=pair.dirichlet_point(N))
        params = ConeParams.make(N, epsilon)
        rep = entry_time(line, params)
        lo, hi = Fraction(row["tau_lo"]), Fraction(row["tau_hi"])
        assert not tau_vs_squared(line, params, lo, strict=True)  # tau >= lo
        assert rep.tau_vs(hi)  # tau <= hi


def test_cone_csv_encloses_the_exact_rows(tmp_path, monkeypatch, capsys):
    """Each printed (margin_lo, margin_hi) and (f_lo, f_hi) pair of the cone
    CSV encloses the exact margin and f of the same row of an InclusionRun
    with the same seed, and x, y, z are the rendered sample coordinates."""
    monkeypatch.chdir(tmp_path)
    ((_, argv, code),) = [c for c in CASES if c[0] == "cone"]
    assert main([*argv, "--out", "cone.csv"]) == code
    capsys.readouterr()
    rows = read_csv(tmp_path / "cone.csv").rows
    # --frac applies to both numbers
    alpha, beta = (parse_number_spec(s, True).value() for s in ("sqrt:2", "sqrt:3"))
    params = ConeParams.make(int(argv[argv.index("--N") + 1]),
                             Fraction(argv[argv.index("--epsilon") + 1]))
    run = InclusionRun(alpha, beta, params, int(argv[argv.index("--samples") + 1]))
    samples = list(run)
    assert len(rows) == len(samples) == 300
    for row, smp in zip(rows, samples):
        for name, exact in (("margin", smp.margin), ("f", smp.f)):
            assert Fraction(row[f"{name}_lo"]) <= exact <= Fraction(row[f"{name}_hi"])
        y_iv, z_iv = sample_point_coordinates(run, smp)
        assert row["x"] == format_decimal(smp.x)
        assert row["y"] == format_decimal(y_iv.midpoint())
        assert row["z"] == format_decimal(z_iv.midpoint())
        assert row["verdict"] == "ok"


def test_cartan_csv_encloses_the_measures():
    """Each printed (lo, hi) pair of the golden cartan CSV contains the
    bounds cartan_measure gives at a root tolerance of 1e-30, for the monic
    measure and for the f measure."""
    ((_, argv, _),) = [c for c in CASES if c[0] == "cartan"]
    rows = read_csv(GOLDEN / "cartan.csv").rows
    assert len(rows) == 1
    alpha, beta = (parse_number_spec(s, True).value() for s in ("sqrt:2", "sqrt:3"))
    y0, z0 = (int(argv[argv.index(flag) + 1]) for flag in ("--y0", "--z0"))
    for row in rows:
        rep = cartan_measure(alpha, beta, y0, z0, Fraction(row["epsilon"]),
                             tol=Fraction(1, 10**30))
        for name in ("monic_measure", "f_measure"):
            assert Fraction(row[f"{name}_lo"]) <= getattr(rep, f"{name}_lo")
            assert getattr(rep, f"{name}_hi") <= Fraction(row[f"{name}_hi"])


def _expected_cell(alpha, beta, epsilon, n, N):
    """(x0, transversal, t_n, lambda, chain_ok, direct_ok, reason) of one
    (n, N) cell from the oracles: the SurdSum transversality check, the
    chunked Dirichlet scan, convergent denominators and the squared
    entry-time comparator."""
    M = max(max(cf_expand(spec, 40)[1:]) for spec in (alpha, beta))
    lam = (M + 1) ** 2
    e_a, e_b = error_term(alpha, 2 * n), error_term(beta, 2 * n)
    if not transversality_check_surd(N, epsilon, e_a, e_b):
        return None, False, None, lam, False, None, "transversality-fail"
    p0 = dirichlet_search_chunked(alpha.value(), beta.value(), N)
    t_n = math.lcm(convergent(alpha, 2 * n).q, convergent(beta, 2 * n).q)
    line = Pair(alpha, beta).line(n)._replace(P0=p0)
    params = ConeParams.make(N, epsilon)
    direct_ok = tau_vs_squared(line, params, t_n) and t_n < p0.x
    if not tau_vs_squared(line, params, 1 << (n - 1)):
        return p0.x, True, t_n, lam, False, direct_ok, "tau-too-large"
    if lam ** (2 * n) > p0.x - 2:
        return p0.x, True, t_n, lam, False, direct_ok, "x0-too-small"
    raise AssertionError("a golden cell passes the chain")


def _cell(x):
    return None if x == "" else (x == "True") if x in ("True", "False") else int(x)


def test_certificate_csv_columns_match_the_oracles():
    """The certificate CSV has no lo/hi pair besides tau (checked above);
    every other column of every row is recomputed independently."""
    ((_, argv, _),) = [c for c in CASES if c[0] == "cert"]
    alpha, beta = parse_number_spec("sqrt:2", True), parse_number_spec("sqrt:3", True)
    epsilon = Fraction(argv[argv.index("--epsilon") + 1])
    rows = read_csv(GOLDEN / "cert.csv").rows
    assert len(rows) == 10
    for row in rows:
        got = tuple(_cell(row[k]) for k in ("x0", "transversal", "t_n", "lambda",
                                              "chain_ok", "direct_ok"))
        want = _expected_cell(alpha, beta, epsilon, int(row["n"]), int(row["N"]))
        assert got + (row["reason"], row["verified"]) == want + ("",), row


def test_b3_rows_and_margins_match_the_oracles():
    """The b3 CSV has no lo/hi pair: each row's x0 and reason are
    recomputed independently, and each printed min margin is the least
    grid margin re-evaluated at 256 bits."""
    ((_, argv, _),) = [c for c in CASES if c[0] == "b3"]
    u_points = int(argv[argv.index("--u-points") + 1])
    alpha, beta = parse_number_spec("sqrt:2", True), parse_number_spec("sqrt:3", True)
    table = read_csv(GOLDEN / "b3.csv")
    assert len(table.rows) == 11
    x0_ref = {}
    for row in table.rows:
        assert (row["alpha"], row["beta"]) == ("sqrt:2", "sqrt:3")
        eps = Fraction(row["epsilon"])
        x0, *_, reason = _expected_cell(alpha, beta, eps, int(row["n"]), int(row["N"]))
        assert (_cell(row["x0"]), row["reason"]) == (x0, reason), row
        if x0 is not None:
            x0_ref[eps] = max(x0_ref.get(eps, 0), x0)
    stdout = (GOLDEN / "b3.stdout").read_text()
    margins = re.findall(r"eps=(\S+):.*\(min margin (\S+)\)", stdout)
    assert len(margins) == 3
    for eps_text, printed in margins:
        eps = Fraction(eps_text)
        x0 = x0_ref.get(eps) or dirichlet_search_chunked(
            alpha.value(), beta.value(), int(1 / (2 * eps)) + 1).x
        grid = infeasibility_grid_loop(2 * eps, x0, u_points, bits=256)
        assert grid.ok and f"{grid.min_margin:.3g}" == printed
