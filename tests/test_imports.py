"""Lint: every name a library module imports is used in that module,
every name in an ``__all__`` resolves and is read by the library, the
benchmark or a gate test, no library module imports typing or logging,
importing the library or its command-line module loads no typing,
logging, dataclasses, inspect or random (and the library no argparse), importing
the command-line module loads no process-pool machinery, and no command
loads numpy.

Pure stdlib ``ast``; ``from __future__`` imports and the re-exports a
module lists in ``__all__`` count as used.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "littlewood"
# the tests that gate the project's promises; the other tests do not keep a
# public name alive
GATES = (ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "test_golden.py")


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside an annotation, including quoted forward references."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _all_names(tree: ast.AST) -> set[str]:
    """The strings of a module's ``__all__`` list or tuple."""
    return {
        e.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        and isinstance(node.value, (ast.List, ast.Tuple))
        for e in node.value.elts
        if isinstance(e, ast.Constant)
    }


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    exported = _all_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used and name not in exported
    ]


def test_library_modules_have_no_unused_imports():
    offenders = {
        path.name: unused
        for path in sorted(SRC.glob("*.py"))
        if (unused := unused_imports(path.read_text()))
    }
    assert offenders == {}


def test_checker_flags_unused_and_accepts_used_names():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "from fractions import Fraction\n"
        "from typing import Sequence\n"
        "from .exactnum import SurdSum, certified_sign\n"
        "__all__ = ['certified_sign']\n"
        "def f(x: 'Sequence[int]') -> SurdSum:\n"
        "    return math.floor(x)\n"
    )
    assert unused_imports(source) == ["line 3: Fraction"]


def read_names(source: str) -> set[str]:
    """The names a source reads, as a ``Name`` or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def unread_exports(library: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` for each name in a library ``__all__`` that no
    library module (its own included) and no reader source reads."""
    read = set().union(*map(read_names, [*library.values(), *readers]))
    return sorted(
        f"{module}.{name}"
        for module, source in library.items()
        for name in _all_names(ast.parse(source))
        if name not in read
    )


def test_every_public_name_is_read():
    # a public name that no command, benchmark or gate reads is deleted, or
    # moved into the tests when one of them needs it as an oracle
    library = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = [path.read_text() for path in [*sorted((ROOT / "bench").glob("*.py")), *GATES]]
    assert unread_exports(library, readers) == []


def test_unread_export_checker_counts_reads_not_definitions():
    library = {
        "a": "__all__ = ['f', 'g', 'K']\nK = 1\ndef f(): return K\ndef g(): pass\n",
        "b": "from .a import g\n",
    }
    assert unread_exports(library, []) == ["a.f", "a.g"]
    assert unread_exports(library, ["import a\na.f()\n"]) == ["a.g"]


def test_every_name_in_all_resolves():
    missing = []
    for path in sorted(SRC.glob("*.py")):
        name = "littlewood" if path.stem == "__init__" else f"littlewood.{path.stem}"
        module = importlib.import_module(name)
        missing += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _fresh_python(probe: str) -> str:
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout


def test_cli_import_loads_no_process_pool():
    # every CLI call pays for what `import littlewood.cli` loads
    probe = (
        "import sys, littlewood.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    assert _fresh_python(probe) == "[]\n"


def test_no_library_module_imports_typing_or_logging():
    # records are collections.namedtuple subclasses, abstract types come from
    # collections.abc and notes go to a caller's callable, so neither module
    # is needed at any depth, a function body's import included
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("typing", "logging") for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_library_import_loads_no_record_or_logging_machinery():
    # every CLI call and every library user pays for what these imports
    # load; -S keeps site hooks from loading modules of their own.  Only
    # the cone sampler draws random numbers, and it loads random itself
    for module, unwanted in [
        ("littlewood", ("typing", "logging", "dataclasses", "inspect", "random", "argparse")),
        ("littlewood.cli", ("typing", "logging", "dataclasses", "inspect", "random")),
    ]:
        probe = (
            f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import {module}; "
            f"print(sorted(m for m in {unwanted!r} if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-S", "-c", probe], capture_output=True, text=True, check=True
        ).stdout
        assert out == "[]\n", module


def test_commands_never_load_numpy(tmp_path):
    # the residual scans run on Python integers: liminf, cone-check and
    # b3-scan (a Dirichlet search per cell) load no numpy, which only the
    # test oracles use
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("sqrt:2 sqrt:3\n")
    argvs = [
        ["liminf", "--alpha", "sqrt:2", "--frac", "--beta", "sqrt:3", "--frac",
         "--max-x", "100000", "--out", str(tmp_path / "minima.csv")],
        ["cone-check", "--alpha", "sqrt:2", "--frac", "--beta", "sqrt:3", "--N", "10",
         "--epsilon", "1/10", "--samples", "100", "--out", str(tmp_path / "cone.csv")],
        ["b3-scan", "--pairs", str(pairs), "--frac", "--epsilons", "1/100",
         "--out", str(tmp_path / "b3.csv")],
    ]
    probe = (
        "import sys, littlewood.cli; "
        f"codes = [littlewood.cli.main(argv) for argv in {argvs!r}]; "
        "print(codes, 'numpy' in sys.modules)"
    )
    assert _fresh_python(probe).splitlines()[-1] == "[0, 0, 0] False"
