"""Command-line front end.

Subcommands mirror the library surface: `liminf` (running minima of
x*||x*a||*||x*b||), `cone-check` (inclusion sampling), `entry-time`,
`certificate` (the sufficient-condition search), `b3-scan` (the
bounded-quotient infeasibility sweep), `cartan` (cubic sublevel measure)
and `levy` (denominator growth).  Every run is deterministic: fixed seeds,
fixed iteration order, no timestamps, so identical configurations produce
byte-identical artifacts.

Exit codes: 0 success (an exhaustion report is success), 2 usage or
parameter error, 3 certification failure.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from . import __version__
from .cfrac import (
    CFError,
    _checked_lcm_time,
    _observed_M,
    lcm_growth_profile,
    levy_quotient,
    LEVY_AE_LOG,
)
from .certificate import b3_infeasibility_scan, certificate_search
from .cone import ConeParams, InclusionRun, sample_point_coordinates
from .csvio import format_decimal, format_ratio, format_ratio_bounds, write_csv
from .entrytime import approx_line, entry_time, transversality_check
from .lattice import (
    ParameterError,
    brute_min_scan,
    cartan_measure,
    dirichlet_search,
)
from .numspec import NumberSpecError, parse_exact_fraction, parse_number_spec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CERTIFICATION = 3


def _metadata(ns: argparse.Namespace, **extra) -> dict:
    md = {"tool": f"littlewood {__version__}", "command": ns.command}
    for key in sorted(vars(ns)):
        if key in ("command", "func"):
            continue
        md[f"arg.{key}"] = getattr(ns, key)
    md.update(extra)
    return md


def _spec(text: str, frac: bool):
    """Parse a number spec, printing its normalization notes to stderr."""
    return parse_number_spec(text, frac, note=lambda message: print(message, file=sys.stderr))


def _numbers(ns: argparse.Namespace):
    return _spec(ns.alpha, ns.frac), _spec(ns.beta, ns.frac)


def _cmd_liminf(ns: argparse.Namespace) -> int:
    alpha, beta = _numbers(ns)
    records = brute_min_scan(alpha.value(), beta.value(), ns.max_x)
    rows = [
        [r.x, format_decimal(r.lo, direction=-1), format_decimal(r.hi, direction=1)]
        for r in records
    ]
    write_csv(ns.out, ["x", "value_lo", "value_hi"], rows, _metadata(ns, records=len(rows)))
    last = records[-1]
    print(
        f"scanned x <= {ns.max_x}: {len(records)} running minima; "
        f"final x = {last.x}, value in "
        f"[{format_decimal(last.lo, direction=-1)}, {format_decimal(last.hi, direction=1)}]"
    )
    return EXIT_OK


def _cmd_cone_check(ns: argparse.Namespace) -> int:
    alpha, beta = (spec.value() for spec in _numbers(ns))
    params = ConeParams.make(ns.N, parse_exact_fraction(ns.epsilon))
    run = InclusionRun(alpha, beta, params, ns.samples, seed=ns.seed)

    def rows():  # streamed into write_csv, which asks for the counts at the end
        for smp in run:
            y_iv, z_iv = sample_point_coordinates(run, smp)
            yield [
                format_ratio(*smp.x_ratio),
                format_ratio(*y_iv.midpoint_ratio()),
                format_ratio(*z_iv.midpoint_ratio()),
                *format_ratio_bounds(*smp.margin_ratio),
                *format_ratio_bounds(*smp.f_ratio),
                "violation" if smp.violation else "ok",
            ]

    write_csv(
        ns.out,
        ["x", "y", "z", "margin_lo", "margin_hi", "f_lo", "f_hi", "verdict"],
        rows(),
        lambda: _metadata(ns, samples=run.samples, violations=len(run.violations),
                          crosschecked=run.crosschecked),
    )
    print(
        f"{run.samples} interior samples of the cone (N={ns.N}, eps={ns.epsilon}): "
        f"{len(run.violations)} violations of 0 < |f| <= eps; "
        f"{run.crosschecked} samples re-verified through the surd route"
    )
    return EXIT_CERTIFICATION if run.violations else EXIT_OK


def _cmd_entry_time(ns: argparse.Namespace) -> int:
    if ns.n_max < 1:
        raise ParameterError("n_max must be >= 1")
    alpha, beta = _numbers(ns)
    epsilon = parse_exact_fraction(ns.epsilon)
    params = ConeParams.make(ns.N, epsilon)
    p0 = dirichlet_search(alpha.value(), beta.value(), ns.N)
    lam = (max(_observed_M(alpha), _observed_M(beta)) + 1) ** 2
    rows = []
    for n in range(1, ns.n_max + 1):
        line = approx_line(alpha, beta, n, p0)
        qa, qb = line.e_alpha.q_n, line.e_beta.q_n
        t_n = _checked_lcm_time(qa, qb, n, lam)
        if not transversality_check(ns.N, epsilon, line.e_alpha, line.e_beta):
            rows.append([n, qa, qb, t_n, "", "", False, "nontransversal"])
            continue
        rep = entry_time(line, params)
        rows.append(
            [
                n,
                qa,
                qb,
                t_n,
                format_decimal(rep.tau.lo, direction=-1),
                format_decimal(rep.tau.hi, direction=1),
                True,
                rep.lattice_time_verdict(t_n, line.x0),
            ]
        )
    write_csv(
        ns.out,
        ["n", "q2n_alpha", "q2n_beta", "t_n", "tau_lo", "tau_hi", "transversal", "verdict"],
        rows,
        _metadata(ns, x0=p0.x),
    )
    print(f"entry times for n <= {ns.n_max} at N={ns.N}, eps={ns.epsilon} (x0={p0.x}); see output")
    return EXIT_OK


def _cmd_certificate(ns: argparse.Namespace) -> int:
    alpha, beta = _numbers(ns)
    epsilon = parse_exact_fraction(ns.epsilon)
    outcome = certificate_search(
        alpha, beta, epsilon, ns.n_max, strategy=ns.grid, max_N=ns.max_N
    )
    rows = []
    for c in outcome.cells:
        rows.append(
            [
                c.n,
                c.N,
                c.x0 if c.x0 is not None else "",
                c.transversal,
                format_decimal(c.tau.lo, direction=-1) if c.tau else "",
                format_decimal(c.tau.hi, direction=1) if c.tau else "",
                c.t_n if c.t_n is not None else "",
                c.lam,
                c.chain_ok,
                c.direct_ok if c.direct_ok is not None else "",
                c.reason or "certificate",
                c.verified if c.verified is not None else "",
            ]
        )
    md = _metadata(
        ns,
        cells=len(outcome.cells),
        exhausted=outcome.exhausted,
        trivial_witness=outcome.trivial_witness,
    )
    write_csv(
        ns.out,
        ["n", "N", "x0", "transversal", "tau_lo", "tau_hi", "t_n",
         "lambda", "chain_ok", "direct_ok", "reason", "verified"],
        rows,
        md,
    )
    counts = Counter(c.reason or "certificate" for c in outcome.cells)
    print(f"searched {len(outcome.cells)} (n, N) cells for eps = {ns.epsilon}:")
    for key in sorted(counts):
        print(f"  {key}: {counts[key]}")
    if outcome.trivial_witness:
        w = outcome.trivial_witness
        print(
            f"note: eps >= ||alpha||*||beta||, so ({w.x}, {w.y}, {w.z}) is a "
            f"trivial witness independent of the search"
        )
    if outcome.found:
        c = outcome.found
        print(f"CERTIFICATE at n={c.n}, N={c.N}: gamma_n(t_n) = {c.candidate}")
        return EXIT_OK
    print("no certificate in range (exhaustion report written)")
    bad = [c for c in outcome.cells if c.reason == "verify-fail"]
    return EXIT_CERTIFICATION if bad else EXIT_OK


def _cmd_b3_scan(ns: argparse.Namespace) -> int:
    pairs = []
    labels = []
    with open(ns.pairs) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParameterError(f"expected two number specs per line, got {line!r}")
            pairs.append((_spec(parts[0], ns.frac), _spec(parts[1], ns.frac)))
            labels.append((parts[0], parts[1]))
    epsilons = [parse_exact_fraction(tok) for tok in ns.epsilons.split(",")]
    report = b3_infeasibility_scan(pairs, epsilons, u_points=ns.u_points, max_N=ns.max_N)
    rows = []
    label_of = {id(p[0]): lab for p, lab in zip(pairs, labels)}
    for rep in report.reports:
        lab = label_of[id(rep.alpha)]
        for c in rep.cells:
            rows.append(
                [lab[0], lab[1], rep.epsilon, c.n, c.N,
                 c.x0 if c.x0 is not None else "", c.reason or "certificate"]
            )
    grid_meta = {}
    for i, rep in enumerate(report.reports):
        lab = label_of[id(rep.alpha)]
        outcome = (
            "empty-range" if rep.grid.empty_range
            else "infeasible" if rep.grid.ok
            else "FAILED"
        )
        grid_meta[f"inequality.{i}.{lab[0]}.{lab[1]}.{rep.epsilon}"] = outcome
    write_csv(
        ns.out,
        ["alpha", "beta", "epsilon", "n", "N", "x0", "reason"],
        rows,
        _metadata(ns, certificates=report.total_certificates, **grid_meta),
    )
    for rep in report.reports:
        lab = label_of[id(rep.alpha)]
        grid = rep.grid
        grid_msg = (
            "admissible u-range empty"
            if grid.empty_range
            else f"grid of {grid.points} points infeasible "
                 f"(min margin {grid.min_margin:.3g})"
            if grid.ok
            else "grid check FAILED"
        )
        print(
            f"pair ({lab[0]}, {lab[1]}), eps={rep.epsilon}: "
            f"n in [{rep.n_lo}, {rep.n_hi}], {len(rep.cells)} cells, "
            f"{len(rep.certificates)} certificates, reasons {rep.reason_counts}; "
            f"inequality argument: {grid_msg}"
        )
    print(f"total certificates: {report.total_certificates}")
    return EXIT_OK


def _cmd_cartan(ns: argparse.Namespace) -> int:
    alpha, beta = _numbers(ns)
    epsilon = parse_exact_fraction(ns.epsilon)
    rep = cartan_measure(alpha.value(), beta.value(), ns.y0, ns.z0, epsilon)
    rows = [
        [
            str(epsilon),
            format_decimal(rep.monic_measure_lo, direction=-1),
            format_decimal(rep.monic_measure_hi, direction=1),
            format_decimal(rep.f_measure_lo, direction=-1),
            format_decimal(rep.f_measure_hi, direction=1),
            f"{rep.bound:.15g}",
            rep.monic_within_bound,
            rep.f_within_bound,
        ]
    ]
    write_csv(
        ns.out,
        ["epsilon", "monic_measure_lo", "monic_measure_hi", "f_measure_lo",
         "f_measure_hi", "bound_2e_eps13", "monic_within_bound", "f_within_bound"],
        rows,
        _metadata(ns),
    )
    print(
        f"sublevel measures at (y0, z0) = ({ns.y0}, {ns.z0}), eps = {ns.epsilon}: "
        f"monic {format_decimal(rep.monic_measure, 6)} / "
        f"f {format_decimal(rep.f_measure, 6)} vs bound {rep.bound:.6g} "
        f"(monic within: {rep.monic_within_bound})"
    )
    return EXIT_OK if rep.monic_within_bound else EXIT_CERTIFICATION


def _cmd_levy(ns: argparse.Namespace) -> int:
    if ns.n_max < 1:
        raise ParameterError("n_max must be >= 1")
    alpha = _spec(ns.alpha, ns.frac)
    beta = _spec(ns.beta, ns.frac) if ns.beta else None
    header = ["n", "levy_alpha"]
    extra = {"levy_ae_reference": f"{LEVY_AE_LOG:.12f}"}
    if beta is not None:
        header += ["levy_beta", "log_tn_over_n"]
        profile = lcm_growth_profile(alpha, beta, ns.n_max)
    rows = []
    for n in range(1, ns.n_max + 1):
        row = [n, f"{levy_quotient(alpha, n):.12f}"]
        if beta is not None:
            row.append(f"{levy_quotient(beta, n):.12f}")
            row.append(f"{profile.quotients[n - 1]:.12f}")
        rows.append(row)
    if beta is not None:
        extra["log_tn_over_n_liminf_estimate"] = f"{profile.liminf_estimate:.12f}"
        extra["log_tn_over_n_limsup_estimate"] = f"{profile.limsup_estimate:.12f}"
    write_csv(ns.out, header, rows, _metadata(ns, **extra))
    print(
        f"log(q_n)/n up to n = {ns.n_max} "
        f"(almost-every-number reference {LEVY_AE_LOG:.4f}); see output"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="littlewood",
        description="Exact-arithmetic toolkit around the Littlewood conjecture: "
        "continued fractions, the cone inside {0 < |f| <= eps}, entry times, "
        "and the sufficient-condition certificate search.",
    )
    parser.add_argument("--version", action="version", version=f"littlewood {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_numbers(p, beta_required=True):
        p.add_argument("--alpha", required=True, help="number spec, e.g. sqrt:2 or cf:[0;(2)]")
        p.add_argument("--beta", required=beta_required, help="number spec")
        p.add_argument("--frac", action="store_true",
                       help="map numbers to their fractional part (unit interval)")

    def add_out(p):
        p.add_argument("--out", help="CSV output path (default: print nothing but the summary)")

    p = sub.add_parser("liminf", help="running minima of x*||x*alpha||*||x*beta||")
    add_numbers(p)
    p.add_argument("--max-x", type=int, required=True, dest="max_x")
    add_out(p)
    p.set_defaults(func=_cmd_liminf)

    p = sub.add_parser("cone-check", help="sample the cone and certify 0 < |f| <= eps")
    add_numbers(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    add_out(p)
    p.set_defaults(func=_cmd_cone_check)

    p = sub.add_parser("entry-time", help="entry times of the order-2n lines into the cone")
    add_numbers(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--n-max", type=int, default=8, dest="n_max")
    add_out(p)
    p.set_defaults(func=_cmd_entry_time)

    p = sub.add_parser("certificate", help="search (n, N) for the sufficient condition")
    add_numbers(p)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--grid", choices=("geometric", "full"), default="geometric")
    p.add_argument("--max-N", type=int, default=10**6, dest="max_N")
    add_out(p)
    p.set_defaults(func=_cmd_certificate)

    p = sub.add_parser("b3-scan", help="infeasibility sweep for bounded-quotient pairs")
    p.add_argument("--pairs", required=True, help="file with one 'alpha beta' spec pair per line")
    p.add_argument("--frac", action="store_true")
    p.add_argument("--epsilons", default="1/100,1/10000,1/1000000")
    p.add_argument("--u-points", type=int, default=1000, dest="u_points")
    p.add_argument("--max-N", type=int, default=10**6, dest="max_N")
    add_out(p)
    p.set_defaults(func=_cmd_b3_scan)

    p = sub.add_parser("cartan", help="sublevel measure of the cubic through (y0, z0)")
    add_numbers(p)
    p.add_argument("--y0", type=int, required=True)
    p.add_argument("--z0", type=int, required=True)
    p.add_argument("--epsilon", required=True)
    add_out(p)
    p.set_defaults(func=_cmd_cartan)

    p = sub.add_parser("levy", help="log(q_n)/n growth (and lcm-time growth for a pair)")
    add_numbers(p, beta_required=False)
    p.add_argument("--n-max", type=int, default=40, dest="n_max")
    add_out(p)
    p.set_defaults(func=_cmd_levy)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        return ns.func(ns)
    except (NumberSpecError, ParameterError, CFError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
