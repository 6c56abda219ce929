"""Span tracing of qmt's layers, installed from outside the library.

The tracer replaces selected public functions with timing wrappers at every
name a caller looks up: the defining module, every ``qmt`` module that
imported the name, and the package namespace.  ``QuantumSystem.__init__`` is
wrapped on the class, so subclasses and ``compose`` are counted too.

Spans live in flat arrays (name id, start, end, parent, op id, size) and are
only turned into metrics or written to disk when the run ends.  Only calls
inside a benchmark op are recorded, and a span opened while another span of
the same name is active is not, so inclusive times never count a call twice.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from array import array


def _path_size(args, kwargs, result):
    return os.path.getsize(args[0])


# (span name, module, attribute, size of one call or None).  The size is
# the unit of work the per-layer counters sum: bytes, events, atoms, terms.
WRAPPED = (
    ("documents.read", "qmt.documents", "read_document", _path_size),
    ("documents.write", "qmt.documents", "write_document", _path_size),
    ("functional.sweep", "qmt.functional", "event_measures",
     lambda a, k, r: 1 << a[0].shape[0]),
    ("functional.axioms", "qmt.functional", "check_axioms", None),
    ("functional.sum_rule", "qmt.functional", "check_quantal_sum_rule", None),
    ("functional.eval_D", "qmt.functional", "eval_D", None),
    ("classify", "qmt.classify", "classify", None),
    ("classify.weak", "qmt.classify", "is_weakly_positive", None),
    ("classify.strong", "qmt.classify", "is_strongly_positive", None),
    ("compose.kron", "qmt.compose", "compose", lambda a, k, r: r.n),
    ("compose.self_compose", "qmt.compose", "self_compose", lambda a, k, r: r.n),
    ("compose.factored", "qmt.compose", "eval_composed_factored",
     lambda a, k, r: len(a[2]) * len(a[3])),
    ("witness.build", "qmt.witness", "build_witness", None),
    ("galois.probe", "qmt.galois", "probe_quadratic_form", None),
    ("gen.generate", "qmt.gen", "generate", None),
    ("algebra.embed", "qmt.algebra", "embed_product", None),
    ("algebra.cover", "qmt.algebra", "rectangle_cover", None),
    ("cli.build_parser", "qmt.cli", "build_parser", None),
)
CONSTRUCT = "functional.construct"
OP = "op"


class Tracer:
    """In-memory span recorder; one per traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("q")
        self._stack = [-1]
        self._active: dict[str, int] = {}
        self._op_id = -1
        self._restore: list[tuple[object, str, object]] = []
        # Ids of the spans a benchmark op wraps around itself (``cli.<command>``).
        self.whole_op: set[int] = set()

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.size.append(0)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name, fn, size, args, kwargs):
        if self._op_id < 0 or self._active.get(name):
            return fn(*args, **kwargs)
        self._active[name] = 1
        sid = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(sid)
            self._active[name] = 0
        if size is not None:
            self.size[sid] = size(args, kwargs, result)
        return result

    def run_op(self, op_id: int, name: str, fn):
        """Run one benchmark op under a root span, inside a `name` span if given."""
        self._op_id = op_id
        root = self._open(OP)
        whole = None
        if name:
            whole = self._open(name)
            self.whole_op.add(whole)
        try:
            return fn()
        finally:
            if whole is not None:
                self._close(whole)
            self._close(root)
            self._op_id = -1

    # -- installation ----------------------------------------------------

    def _wrap(self, name, fn, size):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, size, args, kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function at each ``qmt`` name bound to it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "qmt" or key.startswith("qmt.")) and m is not None]
        for name, module, attr, size in WRAPPED:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, size)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        system_cls = sys.modules["qmt.functional"].QuantumSystem
        init = system_cls.__init__
        self._restore.append((system_cls, "__init__", init))
        system_cls.__init__ = self._wrap(CONSTRUCT, init, None)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- analysis --------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Per-span self time: duration minus the time its children cover.

        Calls are sequential, so children of one span never overlap and
        their covered time is the sum of their durations.
        """
        out = [e - s for s, e in zip(self.start, self.end)]
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                out[parent] -= self.end[sid] - self.start[sid]
        return out

    def layer_coverage(self) -> tuple[list[int], list[int]]:
        """Per op: the time its layer spans cover, and its root span's time.

        Layer spans are the wrapped functions.  The root span and the span
        a benchmark op wraps around itself (``cli.<command>``) are not
        layers, so time no layer span covers (printing, code the tracer does
        not wrap) counts as uncovered.  Spans of one op nest, so the covered
        time is the sum of the layer spans' self times.
        """
        self_ns = self.self_ns()
        covered = [0] * (max(self.op, default=-1) + 1)
        op_ns = list(covered)
        for sid, nid in enumerate(self.name):
            if self.names[nid] == OP:
                op_ns[self.op[sid]] = self.end[sid] - self.start[sid]
            elif sid not in self.whole_op:
                covered[self.op[sid]] += self_ns[sid]
        return covered, op_ns

    def by_name(self) -> dict[str, list[int]]:
        spans: dict[str, list[int]] = {n: [] for n in self.names}
        for sid, nid in enumerate(self.name):
            spans[self.names[nid]].append(sid)
        return spans

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["name", "start_ns", "end_ns", "parent", "op", "size"],
                    "spans": [list(self.name), list(self.start), list(self.end),
                              list(self.parent), list(self.op), list(self.size)],
                },
                fh,
            )


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics of a traced phase, as totals per pass of the op list."""
    spans = tracer.by_name()
    self_ns = tracer.self_ns()
    per = 1.0 / passes

    def ids(name):
        return spans.get(name, [])

    def ms(name):
        return sum(tracer.end[i] - tracer.start[i] for i in ids(name)) / 1e6 * per

    def calls(name):
        return len(ids(name)) * per

    def size(name, weight=lambda x: x):
        return sum(weight(tracer.size[i]) for i in ids(name)) * per

    def median_ms(name, size_eq=None):
        d = [tracer.end[i] - tracer.start[i] for i in ids(name)
             if size_eq is None or tracer.size[i] == size_eq]
        return statistics.median(d) / 1e6 if d else 0.0

    out = {
        "documents.read.ms": ms("documents.read"),
        "documents.read.bytes": size("documents.read"),
        "documents.write.ms": ms("documents.write"),
        "documents.write.bytes": size("documents.write"),
        "functional.construct.ms": ms(CONSTRUCT),
        "functional.construct.calls": calls(CONSTRUCT),
        "functional.sweep.ms": ms("functional.sweep"),
        "functional.sweep.events": size("functional.sweep"),
        "functional.sweep.n20_ms": median_ms("functional.sweep", 1 << 20),
        "functional.axioms.ms": ms("functional.axioms"),
        "functional.sum_rule.ms": ms("functional.sum_rule"),
        "functional.eval_D.calls": calls("functional.eval_D"),
        "functional.eval_D.ms": ms("functional.eval_D"),
        "classify.ms": ms("classify"),
        "classify.calls": calls("classify"),
        "classify.weak.ms": ms("classify.weak"),
        "classify.strong.ms": ms("classify.strong"),
        "compose.kron.ms": ms("compose.kron"),
        "compose.kron.calls": calls("compose.kron"),
        "compose.kron.atoms": size("compose.kron"),
        "compose.kron.bytes": size("compose.kron", lambda a: 16 * a * a),
        "compose.self_compose.ms": ms("compose.self_compose"),
        "compose.factored.ms": ms("compose.factored"),
        "compose.factored.terms": size("compose.factored"),
        "witness.build.ms": ms("witness.build"),
        "witness.build.self_ms": sum(self_ns[i] for i in ids("witness.build")) / 1e6 * per,
        "galois.probe.ms": ms("galois.probe"),
        "galois.probe.calls": calls("galois.probe"),
        "gen.generate.ms": ms("gen.generate"),
        "gen.generate.calls": calls("gen.generate"),
        "algebra.embed.ms": ms("algebra.embed"),
        "algebra.embed.calls": calls("algebra.embed"),
        "algebra.cover.ms": ms("algebra.cover"),
    }
    for command in ("gen", "compose", "verify", "probe", "classify", "witness"):
        out[f"cli.{command}.ms"] = median_ms(f"cli.{command}")
    out["trace.spans"] = len(tracer.name) * per
    return out


def size_medians(tracer: Tracer) -> dict[str, dict[int, float]]:
    """Median span duration in ms per (layer, size), for sized layers."""
    groups: dict[str, dict[int, list[int]]] = {}
    for sid, nid in enumerate(tracer.name):
        if tracer.size[sid]:
            by_size = groups.setdefault(tracer.names[nid], {})
            by_size.setdefault(tracer.size[sid], []).append(tracer.end[sid] - tracer.start[sid])
    return {
        name: {size: statistics.median(d) / 1e6 for size, d in sorted(by_size.items())}
        for name, by_size in groups.items()
    }
