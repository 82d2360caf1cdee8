"""The four benchmark workloads: seeded inputs, the timed operation, and
the correctness check of its output.

Each workload is run in passes.  Pass ``i`` of seed ``s`` draws its inputs
from ``random.Random(f"{s}:{name}:{i}")`` with the generators below, so a
seed fixes every pass, and each pass brings new numbers (cold caches, as a
CLI call has).  A pass has three phases:

* ``prepare``: parse the number specs and detect their continued-fraction
  periods (the set-up a user pays on every call; not timed as ``run_s``);
* ``run``: the library calls, and nothing else (timed as ``run_s``);
* ``check``: verify every operation of the output exactly, count the
  failures, and render the output as canonical text for the digest.

The generators do not import the test suite, so editing tests cannot move
the benchmark, and the library sees only the generated inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from setup_probe import ready_numbers

TMP_DIR = ".bench_tmp"
B3_EPSILONS = (Fraction(1, 100), Fraction(1, 10**4), Fraction(1, 10**6))
CONE_HEADER = ["x", "y", "z", "margin_lo", "margin_hi", "f_lo", "f_hi", "verdict"]


# -- input generators ------------------------------------------------------------


def quad_spec(rng: random.Random) -> str:
    """``quad:a,b,c,d`` for (a + b*sqrt(d))/c with d not a square, so its
    fractional part is a unit-interval quadratic irrational.  Radicands run
    to 3000, so few draws share one."""
    d = rng.randrange(2, 3000)
    if math.isqrt(d) ** 2 == d:
        d += 1
    return f"quad:{rng.randrange(-20, 21)},{rng.randrange(1, 4)},{rng.randrange(1, 8)},{d}"


def bounded_cf_spec(rng: random.Random) -> str:
    """``cf:[0;pre(period)]`` with every partial quotient in {1, 2, 3}, a
    preperiod of 0 to 2 and a period of 1 to 4 quotients."""
    pre = "".join(f"{rng.randrange(1, 4)}," for _ in range(rng.randrange(0, 3)))
    period = ",".join(str(rng.randrange(1, 4)) for _ in range(rng.randrange(1, 5)))
    return f"cf:[0;{pre}({period})]"


def epsilon_k_over_10j(rng: random.Random, j_lo: int, j_hi: int) -> Fraction:
    """eps = k/10^j with k in [1, 999] and j in [j_lo, j_hi]."""
    return Fraction(rng.randrange(1, 1000), 10 ** rng.randrange(j_lo, j_hi + 1))


@dataclass
class Outcome:
    """What ``check`` found in one pass."""

    ops: int
    failed: int
    text: str  # canonical rendering of the output, for the digest


def pass_rng(seed: int, name: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{name}:{index}")


# -- workloads -------------------------------------------------------------------


class Certify:
    """``b3_infeasibility_scan`` on bounded-quotient pairs: the paper's
    negative result.  One op is one (pair, eps) unit, and a pass is one op:
    a fresh pair with eps drawn from the three levels.  (A pass of one pair
    at all three levels made ~13 passes a run, and the ~20 % of pairs whose
    admissible u-range is empty at one level, which skips a grid
    refutation, moved the median by 10 % from seed to seed.)"""

    name = "certify"

    def __init__(self, u_points: int = 1000, epsilons=B3_EPSILONS):
        self.u_points, self.epsilons = u_points, tuple(epsilons)

    def inputs(self, rng):
        return {
            "pairs": [(bounded_cf_spec(rng), bounded_cf_spec(rng))],
            "epsilons": [rng.choice(self.epsilons)],
        }

    def specs(self, inputs):
        return [s for pair in inputs["pairs"] for s in pair]

    def prepare(self, lw, inputs):
        numbers = ready_numbers(lw, self.specs(inputs))
        return list(zip(numbers[::2], numbers[1::2])), inputs["epsilons"]

    def run(self, lw, prepared):
        pairs, epsilons = prepared
        return lw.b3_infeasibility_scan(pairs, epsilons, u_points=self.u_points)

    def ops(self, inputs):
        return len(inputs["pairs"]) * len(inputs["epsilons"])

    def check(self, lw, inputs, prepared, report):
        from littlewood.certificate import FAIL_REASONS

        ops = self.ops(inputs)
        labels = [pair for pair in inputs["pairs"] for _ in inputs["epsilons"]]
        failed = ops - len(report.reports)
        lines = []
        for (a, b), rep in zip(labels, report.reports):
            ok = not rep.certificates and rep.grid.ok
            g = rep.grid
            lines.append(
                f"{a} {b} eps={rep.epsilon} n=[{rep.n_lo},{rep.n_hi}] x0={rep.x0_reference} "
                f"grid={g.ok},{g.points},{g.empty_range},{g.min_margin!r},{_iv(g.u_lo)},{_iv(g.u_hi)}"
            )
            for c in rep.cells:
                if c.verified:
                    ok = ok and lw.verify_certificate(
                        rep.alpha.value(), rep.beta.value(), c.epsilon, c.candidate
                    )
                elif c.reason not in FAIL_REASONS:
                    ok = False
                lines.append(
                    f"  {c.n},{c.N},{c.x0},{c.reason},{_iv(c.tau)},{c.t_n},"
                    f"{c.chain_ok},{c.direct_ok},{c.verified}"
                )
            failed += not ok
        return Outcome(ops, failed, "\n".join(lines))


class Cartan:
    """``cartan_measure`` at the default 1e-11 root tolerance on seeded
    configurations.  One op is one configuration."""

    name = "cartan"

    def __init__(self, configs: int = 2):
        self.configs = configs

    def inputs(self, rng):
        return {
            "configs": [
                {
                    "alpha": quad_spec(rng),
                    "beta": quad_spec(rng),
                    "y0": rng.randrange(0, 6),
                    "z0": rng.randrange(0, 6),
                    "eps": epsilon_k_over_10j(rng, 2, 6),
                }
                for _ in range(self.configs)
            ]
        }

    def specs(self, inputs):
        return [c[k] for c in inputs["configs"] for k in ("alpha", "beta")]

    def prepare(self, lw, inputs):
        numbers = ready_numbers(lw, self.specs(inputs))
        return [
            (a.value(), b.value(), c["y0"], c["z0"], c["eps"])
            for a, b, c in zip(numbers[::2], numbers[1::2], inputs["configs"])
        ]

    def run(self, lw, prepared):
        return [lw.cartan_measure(*config) for config in prepared]

    def ops(self, inputs):
        return len(inputs["configs"])

    def check(self, lw, inputs, prepared, reports):
        tol = Fraction(1, 10**9)
        failed = len(prepared) - len(reports)
        lines = []
        for c, rep in zip(inputs["configs"], reports):
            ok = (
                rep.monic_within_bound
                and rep.monic_measure_hi - rep.monic_measure_lo < tol
                and rep.f_measure_hi - rep.f_measure_lo < tol
            )
            failed += not ok
            lines.append(
                f"{c['alpha']} {c['beta']} {c['y0']} {c['z0']} {c['eps']}: "
                f"{rep.monic_measure_lo} {rep.monic_measure_hi} {rep.f_measure_lo} "
                f"{rep.f_measure_hi} {rep.monic_within_bound} {rep.f_within_bound}"
            )
        return Outcome(len(prepared), failed, "\n".join(lines))


class ConeReport:
    """``littlewood cone-check`` run in-process through ``cli.main``, with
    the CSV written inside the checkout.  One op is one sample row."""

    name = "cone-report"

    def __init__(self, samples: int = 1500):
        self.samples = samples

    def inputs(self, rng):
        return {
            "alpha": quad_spec(rng),
            "beta": quad_spec(rng),
            "N": rng.randrange(5, 200),
            "eps": epsilon_k_over_10j(rng, 1, 4),
            "seed": rng.randrange(0, 10**6),
        }

    def specs(self, inputs):
        return [inputs["alpha"], inputs["beta"]]

    def prepare(self, lw, inputs):
        os.makedirs(TMP_DIR, exist_ok=True)
        out = os.path.join(TMP_DIR, f"{self.name}.csv")  # relative: the CSV records it
        argv = [
            "cone-check", "--alpha", inputs["alpha"], "--beta", inputs["beta"], "--frac",
            "--N", str(inputs["N"]), "--epsilon", str(inputs["eps"]),
            "--samples", str(self.samples), "--seed", str(inputs["seed"]), "--out", out,
        ]
        return argv, out

    def run(self, lw, prepared):
        import littlewood.cli

        argv, _ = prepared
        with contextlib.redirect_stdout(io.StringIO()):
            return littlewood.cli.main(argv)

    def ops(self, inputs):
        return self.samples

    def check(self, lw, inputs, prepared, exit_code):
        _, out = prepared
        text = ""
        if os.path.exists(out):  # a usage error writes no CSV
            with open(out, newline="") as fh:
                text = fh.read()
            os.remove(out)
        body = [line for line in text.splitlines() if not line.startswith("#")]
        rows = list(csv.reader(body))
        good = 0
        if (
            exit_code == 0
            and rows[:1] == [CONE_HEADER]
            and len(rows) == self.samples + 1
            and "# violations = 0\n" in text
        ):
            for row in rows[1:]:
                good += (
                    len(row) == len(CONE_HEADER)
                    and row[-1] == "ok"
                    and Fraction(row[3]) <= Fraction(row[4])
                    and Fraction(row[5]) <= Fraction(row[6])
                )
        return Outcome(self.samples, self.samples - good, f"exit={exit_code}\n{text}")


class Scan:
    """The residual scans: a Dirichlet sweep over every N in a range, one
    large vectorised ``brute_min_scan`` and one exact ``bad_constant_scan``.
    One op is one scan call."""

    name = "scan"

    def __init__(self, n_max: int = 250, x_max: int = 2_500_000, q_max: int = 750):
        self.n_max, self.x_max, self.q_max = n_max, x_max, q_max

    def inputs(self, rng):
        return {"alpha": quad_spec(rng), "beta": quad_spec(rng)}

    def specs(self, inputs):
        return [inputs["alpha"], inputs["beta"]]

    def prepare(self, lw, inputs):
        return ready_numbers(lw, self.specs(inputs))

    def run(self, lw, prepared):
        a_spec, b_spec = prepared
        a, b = a_spec.value(), b_spec.value()
        points = [lw.dirichlet_search(a, b, N) for N in range(2, self.n_max + 1)]
        records = lw.brute_min_scan(a, b, self.x_max)
        bad = lw.cfrac.bad_constant_scan(a_spec, self.q_max)
        return points, records, bad

    def ops(self, inputs):
        return (self.n_max - 1) + 2

    def check(self, lw, inputs, prepared, output):
        from littlewood.exactnum import as_surdsum, certified_sign

        points, records, (bad_value, bad_q) = output
        a, b = (spec.value() for spec in prepared)
        ops = self.ops(inputs)
        failed = ops - len(points) - 2
        lines = []
        for N, p in zip(range(2, self.n_max + 1), points):
            x, y, z = p.point.x, p.point.y, p.point.z
            u = as_surdsum(a) * x - y
            v = as_surdsum(b) * x - z
            bound = Fraction(1, N)
            failed += not (
                p.N == N and 1 <= x <= N
                and certified_sign(u * u - bound) <= 0
                and certified_sign(v * v - bound) <= 0
            )
            lines.append(f"N={N}: {x},{y},{z}")
        ok = bool(records) and records[0].x == 1 and all(r.lo <= r.hi for r in records)
        for r, s in zip(records, records[1:]):
            ok = ok and certified_sign(s.value - r.value) < 0
        failed += not ok
        lines.extend(f"record {r.x}: {r.lo} {r.hi}" for r in records)
        # ||q*alpha|| from scratch: nearest integer from an enclosure, then
        # certified to be within 1/2
        qa = as_surdsum(a) * bad_q
        dist = qa - math.floor(qa.interval(128).midpoint() + Fraction(1, 2))
        if certified_sign(dist) < 0:
            dist = -dist
        failed += not (
            1 <= bad_q <= self.q_max
            and certified_sign(dist - Fraction(1, 2)) <= 0
            and certified_sign(bad_value) > 0
            and certified_sign(bad_q * dist - bad_value) == 0
        )
        lines.append(f"bad constant q={bad_q}: {bad_value!r}")
        return Outcome(ops, failed, "\n".join(lines))


def _iv(iv) -> str:
    return "-" if iv is None else f"[{iv.lo},{iv.hi}]"


WORKLOADS = {w.name: w for w in (Certify, Cartan, ConeReport, Scan)}
