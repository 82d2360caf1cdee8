"""Boundary mutants of the verdict code: flip one order comparison at a
time and see whether the tests notice.

    python tests/mutate.py [--timeout S] TARGET [TARGET ...] -- TESTFILE [TESTFILE ...]

for example

    python tests/mutate.py certificate:theorem_check lattice:Pair.line \\
        -- tests/test_certificate.py tests/test_lattice.py

A TARGET is MODULE:FUNCTION or MODULE:CLASS.METHOD of src/littlewood.
Within it, every ``<``, ``<=``, ``>`` and ``>=`` becomes in turn its
neighbour (``<`` <-> ``<=``, ``>`` <-> ``>=``), one operator per mutant.
Each mutant is written into a copy of src/, tests/ and pyproject.toml in a
temporary directory, so the working tree is never edited and the copy's
``pythonpath = ["src"]`` makes pytest import the mutant.  The test files
run there with -x and a timeout (by default five times the unmutated run,
at least 60 s; no bytecode is written, so a mutant never runs stale code),
and one line per mutant says killed, survived or timed out.  A survivor
listed in EQUIVALENT is reported as equivalent: no input can tell it from
the original, and its entry says why.

Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLIP = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}

# (target, comparison source, operator, mutated operator) -> why no input
# tells the mutant from the original
EQUIVALENT = {
    ("entrytime:EntryTimeReport.tau_vs", "certified_sign(slope) < 0", "<", "<="):
        "at slope = A k + B = 0 the next test reads B k + C = -D/(4A) < 0, "
        "so both forms return False",
    ("certificate:_geometric_grid", "N <= ceiling", "<=", "<"):
        "at N = ceiling the closing append adds the ceiling the loop no longer "
        "does, and an empty list falls back to [N0] = [ceiling]",
    ("csvio:format_ratio", "num < 0", "<", "<="):
        "num = 0 has returned \"0\" before the test",
    ("csvio:format_ratio_bounds", "num < 0", "<", "<="):
        "num = 0 has returned (\"0\", \"0\") before the test",
    ("csvio:format_ratio", "direction < 0", "<", "<="):
        "direction = 0 took the branch before, so direction is -1 or 1 here",
    ("csvio:_scaled", "shift >= 0", ">=", ">"):
        "at shift = 0 the other branch divides a by den * 10**0 = den: the same divmod",
    ("exactnum:DyadicInterval.of_surd_terms", "p > 0", ">", ">="):
        "only p = 0 tells the branches apart, and there t = r = 0, so both add 0 to "
        "both ends",
    ("cone:_sample_chunk", "r2 < one2", "<", "<="):
        "U*U + V*V = 4**53 has no solution with U and V nonzero (squares are 0 or 1 "
        "mod 4, so both are even, and halving both descends to a sum of 1)",
    ("cone:_sample_chunk", "M > 0", ">", ">="):
        "M = (r2 - one2) * (top - X)**2 * p with r2 < one2, p > 0 and "
        "X <= one + (N-1)*(2**53 - 1) < top, so M < 0 on every draw",
}


def _target_node(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    node: ast.AST = tree
    for part in qualname.split("."):
        node = next(
            n for n in node.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part
        )
    return node


def _char_col(lines: list[str], row: int, byte_col: int) -> int:
    """The character column of an ast byte offset on a 1-based row."""
    return len(lines[row - 1].encode()[:byte_col].decode())


def mutants(source: str, qualname: str) -> list[tuple[int, int, str, str, str]]:
    """(row, column, operator, mutated operator, comparison source) for
    every order operator in the function, in source order."""
    tree = ast.parse(source)
    lines = source.splitlines(keepends=True)
    ops = [
        (tok.start, tok.string)
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.OP and tok.string in FLIP
    ]
    found = []
    for node in ast.walk(_target_node(tree, qualname)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if type(op) not in (ast.Lt, ast.LtE, ast.Gt, ast.GtE):
                continue
            # the operator token lies between its two operands
            left, right = operands[i], operands[i + 1]
            lo = (left.end_lineno, _char_col(lines, left.end_lineno, left.end_col_offset))
            hi = (right.lineno, _char_col(lines, right.lineno, right.col_offset))
            ((row, col), text), = [(pos, s) for pos, s in ops if lo <= pos < hi]
            found.append((row, col, text, FLIP[text], ast.get_source_segment(source, node)))
    return sorted(found)


def run_tests(workdir: Path, tests: list[str], timeout: float) -> str:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=workdir, env=env, capture_output=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timed out"
    return "survived" if proc.returncode == 0 else "killed"


def main(argv: list[str]) -> int:
    timeout = None
    if argv[:1] == ["--timeout"]:
        timeout, argv = float(argv[1]), argv[2:]
    if "--" not in argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    split = argv.index("--")
    targets, tests = argv[:split], argv[split + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", work / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", work)
        start = time.perf_counter()
        baseline = run_tests(work, tests, timeout or 3600)
        if baseline != "survived":
            print(f"the unmutated tests did not pass ({baseline})", file=sys.stderr)
            return 1
        timeout = timeout or max(60.0, 5 * (time.perf_counter() - start))
        tally: dict[str, int] = {}
        for target in targets:
            module, qualname = target.split(":")
            path = work / "src" / "littlewood" / f"{module}.py"
            original = path.read_text()
            lines = original.splitlines(keepends=True)
            for row, col, op, new, expr in mutants(original, qualname):
                line = lines[row - 1]
                mutated = lines[: row - 1] + [line[:col] + new + line[col + len(op):]] + lines[row:]
                path.write_text("".join(mutated))
                try:
                    verdict = run_tests(work, tests, timeout)
                finally:
                    path.write_text(original)
                proof = EQUIVALENT.get((target, expr, op, new))
                if verdict == "survived" and proof:
                    verdict = "equivalent"
                tally[verdict] = tally.get(verdict, 0) + 1
                print(f"{verdict:<10} {target}:{row}  {expr}  [{op} -> {new}]"
                      + (f"  ({proof})" if verdict == "equivalent" else ""), flush=True)
    print("total: " + ", ".join(f"{n} {v}" for v, n in sorted(tally.items())))
    return 1 if tally.get("survived") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
