"""Layer tracer for the littlewood benchmark.

The tracer wraps the public functions of every library module (its
``__all__``), plus a few named methods and non-exported entry points, and
records one span per call: its name, its duration and the span that called
it.  Spans are aggregated in memory per (name, parent) into a call count,
a total time and a self time (duration minus the time of wrapped children),
and turned into the per-layer metrics when the traced pass ends.

The library imports functions by name (``from .exactnum import
certified_sign``), so wrapping a function means rebinding every module
attribute that refers to it, and every class attribute for methods.
:meth:`Tracer.install` does that sweep and :meth:`Tracer.uninstall`
restores the originals.  A reference the sweep cannot see (a closure, a
dict of callbacks) would escape the tracer; ``selftest.py`` catches that by
comparing the tracer's counts with ``sys.setprofile`` call counts.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from contextlib import contextmanager

LAYERS = (
    "exactnum",
    "cfrac",
    "lattice",
    "cone",
    "entrytime",
    "certificate",
    "rootfind",
    "numspec",
    "csvio",
    "cli",
)

# Functions outside ``__all__`` that are layer boundaries in their own right.
EXTRA_FUNCTIONS = {
    "cone": ("sample_point_coordinates",),
    "cli": ("main",),
}

# Methods patched on their class.  The ring operations are exactnum's work
# even when another layer calls them, so they are spans of their own.
METHODS = {
    "exactnum": {
        "SurdSum": ("interval", "_sign_exact", "__add__", "__sub__", "__mul__", "__neg__"),
        "DyadicInterval": ("__mul__",),
    },
}

ROOT = "bench.root"

# Names used by the metric definitions below.
SIGN = "exactnum.certified_sign"
INTERVAL = "exactnum.SurdSum.interval"
SIGN_EXACT = "exactnum.SurdSum._sign_exact"
DYADIC_MUL = "exactnum.DyadicInterval.__mul__"
POLY_SIGN = "rootfind.poly_sign_at"
ISOLATE = "rootfind.isolate_roots"
DIRICHLET = "lattice.dirichlet_search"
BRUTE = "lattice.brute_min_scan"
CERT_SEARCH = "certificate.certificate_search"

# certificate.FAIL_REASONS of the library, spelled out because the metric
# names must be known without importing it
FAIL_REASONS = (
    "dirichlet-gap",
    "transversality-fail",
    "tau-too-large",
    "lcm-too-large",
    "x0-too-small",
    "verify-fail",
)
CELL_REASONS = FAIL_REASONS + ("certificate",)

# (metric name, unit); the order is the order of the report.
PER_LAYER_METRICS = (
    ("exactnum.certified_sign.calls", "count"),
    ("exactnum.certified_sign.self_s", "s"),
    ("exactnum.interval.calls", "count"),
    ("exactnum.interval.self_s", "s"),
    ("exactnum.interval.max_bits", "bits"),
    ("exactnum.sign_at_64_ratio", "1"),
    ("exactnum.sign_exact.calls", "count"),
    ("exactnum.dyadic_mul.calls", "count"),
    ("exactnum.self_s", "s"),
    ("rootfind.poly_sign_at.calls", "count"),
    ("rootfind.self_s", "s"),
    ("rootfind.probes_per_root", "1"),
    ("lattice.dirichlet_search.calls", "count"),
    ("lattice.dirichlet_search.self_s", "s"),
    ("lattice.dirichlet_confirms_per_call", "1"),
    ("lattice.brute_min_scan.self_s", "s"),
    ("lattice.brute_records_per_confirm", "1"),
    ("lattice.self_s", "s"),
    ("cfrac.self_s", "s"),
    ("cfrac.error_term.calls", "count"),
    ("cfrac.bad_constant_scan.self_s", "s"),
    ("entrytime.entry_time.calls", "count"),
    ("entrytime.self_s", "s"),
    ("certificate.theorem_check.calls", "count"),
    ("certificate.theorem_check.self_s", "s"),
    ("certificate.grid_check.self_s", "s"),
    ("certificate.self_s", "s"),
    *((f"certificate.cells.{reason}", "count") for reason in CELL_REASONS),
    ("cone.sample.self_s", "s"),
    ("cone.sample_point_coordinates.calls", "count"),
    ("cone.sample_point_coordinates.self_s", "s"),
    ("cone.self_s", "s"),
    ("csvio.format_decimal.calls", "count"),
    ("csvio.format_decimal.self_s", "s"),
    ("csvio.write_csv.self_s", "s"),
    ("csvio.bytes", "bytes"),
    ("csvio.self_s", "s"),
    ("numspec.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.run_s", "s"),
    ("trace.other_self_s", "s"),
    ("trace.overhead_ratio", "1"),
)


class Tracer:
    """One tracer per traced phase; install it, run inside :meth:`span`,
    uninstall it, then read :meth:`metrics`."""

    def __init__(self) -> None:
        self.agg: dict[tuple[str, str], list] = {}
        self.root_s = 0.0
        self.max_bits = 0
        self.sign_calls = 0
        self.sign_at_64 = 0
        self.confirms = {DIRICHLET: 0, BRUTE: 0}
        self.brute_records = 0
        self.roots = 0
        self.cells = dict.fromkeys(CELL_REASONS, 0)
        self.csv_bytes = 0
        # a frame is [time spent in wrapped children, name, auxiliary state]
        self._stack: list[list] = [[0.0, ROOT, None]]
        self._restore: list[tuple[object, str, object]] = []
        self.wrapped: dict[str, types.FunctionType] = {}

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary function and rebind all references to it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        targets: dict[int, tuple[str, types.FunctionType]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"littlewood.{layer}")
            names = tuple(getattr(mod, "__all__", ())) + EXTRA_FUNCTIONS.get(layer, ())
            for name in names:
                fn = getattr(mod, name)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    targets[id(fn)] = (f"{layer}.{name}", fn)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = vars(cls)[meth]
                    targets[id(fn)] = (f"{layer}.{cls_name}.{meth}", fn)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in targets.items()}
        self.wrapped = {name: fn for name, fn in targets.values()}

        holders: list[object] = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "littlewood" or n.startswith("littlewood."))
        ]
        for mod in list(holders):
            holders.extend(v for v in vars(mod).values()
                           if isinstance(v, type) and v.__module__ == mod.__name__)
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and targets[id(value)][1] is value:
                    self._restore.append((holder, attr, value))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._restore):
            setattr(holder, attr, value)
        self._restore.clear()

    def _wrap(self, name: str, fn: types.FunctionType):
        enter, leave = self._hooks(name)
        stack = self._stack
        agg = self.agg
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, name, None]
            if enter is not None:
                enter(frame, parent, args, kwargs)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[0] += dt
                key = (name, parent[1])
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
            if leave is not None:
                leave(frame, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def _hooks(self, name: str):
        """Entry and exit hooks that measure ratios where the work happens."""
        if name == SIGN:
            def enter(frame, parent, args, kwargs):
                self.sign_calls += 1
                frame[2] = [0, False]  # highest interval precision, exact path used

            def leave(frame, args, result):
                if frame[2][0] <= 64 and not frame[2][1]:
                    self.sign_at_64 += 1
            return enter, leave
        if name == INTERVAL:
            def enter(frame, parent, args, kwargs):
                bits = args[1] if len(args) > 1 else kwargs["bits"]
                if bits > self.max_bits:
                    self.max_bits = bits
                if parent[1] == SIGN and bits > parent[2][0]:
                    parent[2][0] = bits
            return enter, None
        if name == SIGN_EXACT:
            def enter(frame, parent, args, kwargs):
                if parent[1] == SIGN:
                    parent[2][1] = True
            return enter, None
        if name in self.confirms:
            def enter(frame, parent, args, kwargs):
                frame[2] = self.sign_calls

            def leave(frame, args, result):
                self.confirms[name] += self.sign_calls - frame[2]
                if name == BRUTE:
                    self.brute_records += len(result)
            return enter, leave
        if name == ISOLATE:
            def leave(frame, args, result):
                if self._stack[-1][1] != ISOLATE:  # outermost call only
                    self.roots += len(result)
            return None, leave
        if name == CERT_SEARCH:
            def leave(frame, args, result):
                for cell in result.cells:
                    reason = cell.reason or "certificate"
                    self.cells[reason] = self.cells.get(reason, 0) + 1
            return None, leave
        if name == "csvio.write_csv":
            def leave(frame, args, result):
                self.csv_bytes += len(result.encode())
            return None, leave
        return None, None

    # -- phases and results ----------------------------------------------------

    @contextmanager
    def span(self):
        """The root span of the traced phase (one per tracer); time inside
        it but outside every wrapped call is the benchmark's own remainder."""
        if self.root_s:
            raise RuntimeError("a tracer records a single root span")
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.root_s = time.perf_counter() - t0
            self.agg[(ROOT, "")] = [1, self.root_s, self.root_s - self._stack[0][0]]

    def calls(self, name: str) -> int:
        return sum(r[0] for (n, _), r in self.agg.items() if n == name)

    def self_s(self, name: str) -> float:
        return sum(r[2] for (n, _), r in self.agg.items() if n == name)

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(r[2] for (n, _), r in self.agg.items() if n.startswith(prefix))

    def closure_error(self) -> float:
        """|sum of all self times - root span time|; zero up to rounding."""
        return abs(sum(r[2] for r in self.agg.values()) - self.root_s)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the overhead ratio, which needs an
        untraced run to compare against."""
        sign_calls = self.calls(SIGN)
        dir_calls = self.calls(DIRICHLET)
        m = {
            "exactnum.certified_sign.calls": sign_calls,
            "exactnum.certified_sign.self_s": self.self_s(SIGN),
            "exactnum.interval.calls": self.calls(INTERVAL),
            "exactnum.interval.self_s": self.self_s(INTERVAL),
            "exactnum.interval.max_bits": self.max_bits,
            "exactnum.sign_at_64_ratio": _ratio(self.sign_at_64, sign_calls),
            "exactnum.sign_exact.calls": self.calls(SIGN_EXACT),
            "exactnum.dyadic_mul.calls": self.calls(DYADIC_MUL),
            "rootfind.poly_sign_at.calls": self.calls(POLY_SIGN),
            "rootfind.probes_per_root": _ratio(self.calls(POLY_SIGN), self.roots),
            "lattice.dirichlet_search.calls": dir_calls,
            "lattice.dirichlet_search.self_s": self.self_s(DIRICHLET),
            "lattice.dirichlet_confirms_per_call": _ratio(self.confirms[DIRICHLET], dir_calls),
            "lattice.brute_min_scan.self_s": self.self_s(BRUTE),
            "lattice.brute_records_per_confirm": _ratio(self.brute_records, self.confirms[BRUTE]),
            "cfrac.error_term.calls": self.calls("cfrac.error_term"),
            "cfrac.bad_constant_scan.self_s": self.self_s("cfrac.bad_constant_scan"),
            "entrytime.entry_time.calls": self.calls("entrytime.entry_time"),
            "certificate.theorem_check.calls": self.calls("certificate.theorem_check"),
            "certificate.theorem_check.self_s": self.self_s("certificate.theorem_check"),
            "certificate.grid_check.self_s": self.self_s("certificate.infeasibility_grid_check"),
            "cone.sample.self_s": self.self_s("cone.cone_inclusion_sample"),
            "cone.sample_point_coordinates.calls": self.calls("cone.sample_point_coordinates"),
            "cone.sample_point_coordinates.self_s": self.self_s("cone.sample_point_coordinates"),
            "csvio.format_decimal.calls": self.calls("csvio.format_decimal"),
            "csvio.format_decimal.self_s": self.self_s("csvio.format_decimal"),
            "csvio.write_csv.self_s": self.self_s("csvio.write_csv"),
            "csvio.bytes": self.csv_bytes,
            "trace.run_s": self.root_s,
            "trace.other_self_s": self.self_s(ROOT),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.layer_self_s(layer)
        for reason in CELL_REASONS:
            m[f"certificate.cells.{reason}"] = self.cells[reason]
        return m

    def table(self, limit: int = 25) -> list[str]:
        """The aggregated spans with the largest self time, one line each."""
        rows = sorted(self.agg.items(), key=lambda kv: -kv[1][2])[:limit]
        lines = [f"{'span':<44} {'parent':<44} {'calls':>9} {'total_s':>9} {'self_s':>9}"]
        for (name, parent), (count, total, self_s) in rows:
            lines.append(f"{name:<44} {parent:<44} {count:>9} {total:>9.4f} {self_s:>9.4f}")
        return lines


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
