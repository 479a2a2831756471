"""Span tracing and call counting inside the benchmark's child process.

The program is not edited.  Its functions are wrapped from outside, and each
wrapper is bound to every module-level name through which the function is
looked up (``cli.count_tables``, ``verify.build_category``, ...), since the
package imports functions by name.

SpanTracer records one span per call: name, start, end and parent span.  A
span's self time is its duration minus the part of it covered by its child
spans.  A span opened on a worker thread with nothing open on that thread is
parented to the main thread's innermost open span (``verify --threads N``
runs its checks on a pool while ``run_suite`` waits).

CallCounter counts Python function calls into enumeration.py during each
``count_tables`` call.  It uses cProfile, the C implementation of the
``sys.setprofile`` hook, and only there, because the hook slows the search
about threefold; its pass is run separately so it never inflates self times.
"""

from __future__ import annotations

import cProfile
import functools
import sys
import threading
import types
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Iterator

PACKAGE = "dynkin_tilting"


def _rebind(wrappers: dict[int, tuple[object, object]]) -> None:
    """Bind each wrapper to every module-level name that holds its original."""
    mods = [m for name, m in list(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]
    for mod in mods:
        for name, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, name, hit[1])


def _public_functions(mod: types.ModuleType) -> dict[str, types.FunctionType]:
    return {
        name: fn
        for name, fn in vars(mod).items()
        if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__ and not name.startswith("_")
    }


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[list] = []
        self.counts: Counter[str] = Counter()


class SpanTracer:
    """Records spans around the public functions of every layer."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent span or None]
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._main = self._state()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            self._states.append(st)
        return st

    def _open(self, name: str) -> tuple[_ThreadState, list]:
        st = self._state()
        if st.stack:
            parent = st.stack[-1]
        elif st is not self._main and self._main.stack:
            parent = self._main.stack[-1]
        else:
            parent = None
        rec = [name, perf_counter(), 0.0, parent]
        self.spans.append(rec)
        st.stack.append(rec)
        return st, rec

    @staticmethod
    def _close(st: _ThreadState, rec: list) -> None:
        rec[2] = perf_counter()
        st.stack.pop()

    def wrap(self, fn: Callable, name: str, on_result: Callable | None = None) -> Callable:
        """A span per call; `on_result(counts, span, result)` records counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st, rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(st, rec)
            if on_result is not None:
                on_result(st.counts, rec, result)
            return result

        return traced

    def wrap_generator(self, fn: Callable, name: str, count: str) -> Callable:
        """A span per resumption of the returned iterator, so the consumer's
        work between items is not charged to the producer."""

        def segments(it: Iterator) -> Iterator:
            while True:
                st, rec = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(st, rec)
                st.counts[count] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return segments(iter(fn(*args, **kwargs)))

        return traced

    def wrap_formula(self, fn: Callable, count: str | None) -> Callable:
        """Outermost calls only get a span; nested formula calls are counted."""
        traced = self.wrap(fn, "formulas")

        @functools.wraps(fn)
        def formula(*args, **kwargs):
            st = self._state()
            if count is not None:
                st.counts[count] += 1
            if st.stack and st.stack[-1][0] == "formulas":
                return fn(*args, **kwargs)
            return traced(*args, **kwargs)

        return formula

    def install(self) -> None:
        from dynkin_tilting import cli, diagrams, enumeration, formulas, homs, oeis, orbits, verify

        def add(counts, key, n):
            counts[key] += n

        def outermost_checks(counts, rec, result):
            parent = rec[3]
            while parent is not None:
                if parent[0].startswith("verify."):
                    return
                parent = parent[3]
            counts["verify.checks"] += len(result.checks)

        plan = {
            diagrams.build_cartan: self.wrap(diagrams.build_cartan, "diagrams.build_cartan"),
            diagrams.positive_roots: self.wrap(diagrams.positive_roots, "diagrams.positive_roots"),
            orbits.knit_category: self.wrap(
                orbits.knit_category, "orbits.knit_category", lambda c, s, r: add(c, "orbits.indecs", len(r.indecs))
            ),
            homs.build_matrices: self.wrap(
                homs.build_matrices, "homs.build_matrices", lambda c, s, r: add(c, "homs.pairs", len(r.indecs) ** 2)
            ),
            enumeration.count_tables: self.wrap(
                enumeration.count_tables, "enumeration.count_tables", lambda c, s, r: add(c, "enumeration.sets", r.total)
            ),
            enumeration.format_set: self.wrap(enumeration.format_set, "enumeration.format_set"),
            oeis.triangle_doc: self.wrap(
                oeis.triangle_doc, "oeis.triangle_doc", lambda c, s, r: add(c, "oeis.cells", sum(map(len, r.rows)))
            ),
            oeis.render_triangle: self.wrap(
                oeis.render_triangle, "oeis.render_triangle", lambda c, s, r: add(c, "oeis.bytes", len(r))
            ),
            oeis.reconcile: self.wrap(oeis.reconcile, "oeis.reconcile"),
            cli.run: self.wrap(cli.run, "cli.run"),
        }
        for fn in (enumeration.enumerate_antichains, enumeration.enumerate_support_tilting):
            plan[fn] = self.wrap_generator(fn, "enumeration.enumerate", "enumeration.sets")
        for name, fn in _public_functions(formulas).items():
            plan[fn] = self.wrap_formula(fn, "formulas.a_s.calls" if name == "a_s" else None)
        for name, fn in _public_functions(verify).items():
            returns_report = name.startswith("verify_") or name == "run_suite"
            plan[fn] = self.wrap(fn, f"verify.{name}", outermost_checks if returns_report else None)
        _rebind({id(fn): (fn, w) for fn, w in plan.items()})

    def summary(self) -> dict:
        """Self time per layer and the counts, summed over threads."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for rec in self.spans:
            if rec[3] is not None:
                children[id(rec[3])].append((rec[1], rec[2]))
        self_s: Counter[str] = Counter()
        for rec in self.spans:
            name, start, end, _ = rec
            covered = 0.0
            cursor = start
            for a, b in sorted(children.get(id(rec), ())):
                a, b = max(a, cursor), min(b, end)
                if b > a:
                    covered += b - a
                    cursor = b
            layer = "verify" if name.startswith("verify.") else name
            self_s[layer] += end - start - covered
        counts: Counter[str] = Counter()
        for st in self._states:
            counts.update(st.counts)
        return {"self_s": dict(self_s), "counts": dict(counts)}


class CallCounter:
    """Counts calls into enumeration.py and sets tallied, per statistic."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self._lock = threading.Lock()

    def install(self) -> None:
        from dynkin_tilting import enumeration

        fn = enumeration.count_tables
        filename = enumeration.__file__

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            kind = kwargs["kind"] if "kind" in kwargs else args[1]
            prof = cProfile.Profile()
            prof.enable()
            try:
                table = fn(*args, **kwargs)
            finally:
                prof.disable()
            calls = sum(
                e.callcount for e in prof.getstats() if not isinstance(e.code, str) and e.code.co_filename == filename
            )
            with self._lock:
                self.counts[f"enumeration.{kind}.calls"] += calls
                self.counts[f"enumeration.{kind}.sets"] += table.total
            return table

        _rebind({id(fn): (fn, counted)})

    def summary(self) -> dict:
        return {"self_s": {}, "counts": dict(self.counts)}
