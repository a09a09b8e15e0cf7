"""In-memory span tracer for the benchmark's traced run.

`Tracer.install` wraps the public functions of each lvglasso module, both the
module attribute and every name bound to the same object elsewhere in the
package (``from .symlin import eig_sym`` in ``solver``, ``model``,
``datagen`` and ``evalcv``, and the re-exports in ``lvglasso``). Two methods
are wrapped as well: ``SymMatrix.__init__`` (every symmetric-matrix
construction) and ``Dataset.take`` (fold splits).

``io_cli.main`` is recorded as ``io_cli.main.<subcommand>``; the ``cli_*``
functions and ``build_parser`` are its body and are left unwrapped, so a
subcommand's self time is the CLI's own work (argument parsing, manifests,
sha256 hashing) net of the library layers it calls.

Spans are (id, parent id, name, start, end, operation id) tuples kept in a
list and written out by `dump`. Only calls made while an operation is
active are recorded, so correctness gates run between operations cost one
attribute check per call and leave no spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

MODULES = ("symlin", "model", "solver", "datagen", "evalcv", "io_cli")

# Dispatch targets of io_cli.main; their time is main's self time.
_CLI_BODY = ("cli_generate", "cli_solve", "cli_glasso", "cli_cv", "cli_bench", "build_parser")


class Tracer:
    """Records nested spans of the wrapped lvglasso calls for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = None
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._next_id = 0

    # -- recording -----------------------------------------------------

    def _enter(self) -> tuple[int, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        return span_id, parent

    def _exit(self, span_id, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((span_id, parent, name, start, end, self.op_id))

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, fn, name, after=None, name_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            span_id, parent = tracer._enter()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(span_id, parent, name_of(args) if name_of else name, start)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    # -- installation --------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of every module in ``MODULES``."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        replacements = {}
        for mod_name, mod in modules.items():
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if attr in _CLI_BODY or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                replacements[obj] = self._wrap(obj, f"{mod_name}.{attr}", **self._hooks(attr))
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    setattr(mod, attr, replacements[obj])

        sym = modules["symlin"].SymMatrix
        sym.__init__ = self._wrap(sym.__init__, "symlin.SymMatrix", after=self._count_symmatrix)
        ds = modules["datagen"].Dataset
        ds.take = self._wrap(ds.take, "datagen.Dataset.take")

    def _hooks(self, attr):
        # Flop counts are computed from p, not measured: 9p^3 for a dense
        # symmetric eigendecomposition with vectors (Golub & Van Loan,
        # symmetric QR), 2p^3 + p^2 for V diag(w) V^T.
        if attr == "eig_sym":
            return {"after": lambda args, out: self._count_flop(
                "symlin.eig_sym", 9.0 * args[0].dim ** 3)}
        if attr == "eigen_reconstruct":
            return {"after": lambda args, out: self._count_flop(
                "symlin.eigen_reconstruct", 2.0 * out.dim ** 3 + out.dim ** 2)}
        if attr in ("solve_lvgg", "solve_glasso"):
            return {"after": self._count_solve}
        if attr == "write_matrix":
            return {"after": lambda args, out: self.count(
                "io_cli.write_matrix.bytes", os.path.getsize(out.path))}
        if attr == "read_matrix":
            return {"after": lambda args, out: self.count(
                "io_cli.read_matrix.bytes", os.path.getsize(args[0]))}
        if attr == "main":
            return {"name_of": lambda args: f"io_cli.main.{args[0][0]}"}
        return {}

    def _count_flop(self, key, flop):
        self.count(f"{key}.calls")
        self.count(f"{key}.flop_computed", flop)

    def _count_symmatrix(self, args, out):
        # Computed bytes: read X, read X^T, write the mirrored copy.
        p = args[0].dim
        self.count("symlin.SymMatrix.constructs")
        self.count("symlin.SymMatrix.bytes_computed", 3 * 8 * p * p)

    def _count_solve(self, args, out):
        result, records = out
        self.count("solver.solves")
        self.count("solver.sweeps", len(records))
        self.count("solver.converged", int(result.converged))

    # -- reduction -----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child_time: dict[int, float] = {}
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: dict[str, float] = {}
        for span_id, _, name, start, end, _ in self.spans:
            own = (end - start) - child_time.get(span_id, 0.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def durations(self, names) -> list[float]:
        return [end - start for _, _, name, start, end, _ in self.spans if name in names]

    def count_under(self, names, ancestor) -> int:
        """Spans named in ``names`` that have a span named ``ancestor`` above them."""
        by_id = {s[0]: s for s in self.spans}
        hits = 0
        for span in self.spans:
            if span[2] not in names:
                continue
            parent = span[1]
            while parent >= 0:
                if by_id[parent][2] == ancestor:
                    hits += 1
                    break
                parent = by_id[parent][1]
        return hits

    def dump(self, path) -> None:
        """Write spans (one JSON array per line) and counters to ``path``."""
        with open(path, "w") as f:
            f.write(json.dumps({"fields": ["id", "parent", "name", "start", "end", "op"],
                                "counters": self.counters}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
