"""Spans recorded from outside the ``racah`` package.

A :class:`Tracer` replaces public functions and methods of the ``racah``
modules with thin wrappers, at the place their callers look them up (a
module global, or a class attribute).  Each call becomes one span
``(id, parent, name, start, end)`` kept in memory; :meth:`Tracer.uninstall`
puts every original object back.  Self time is a span's duration minus the
part of it its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (module, attribute path, span name).  An attribute path "Cls.meth" wraps
# a class attribute; a plain name wraps a module global.
TARGETS = (
    ("racah.representation", "SparseOperator.compose", "representation.compose"),
    ("racah.representation", "SparseOperator.linear_combination",
     "representation.linear_combination"),
    ("racah.representation", "SparseOperator.__init__", "representation.operator_init"),
    ("racah.representation", "OperatorContext.eval", "representation.eval"),
    ("racah.representation", "OperatorContext.__init__", "representation.context_init"),
    ("racah.representation", "build_operator", "representation.build_operator"),
    ("racah.representation", "to_contiguous", "core.to_contiguous"),
    ("racah.core", "build_rewrite_system", "core.compile"),
    ("racah.verifier", "relation", "core.relation"),
    ("racah.freealg", "RewriteSystem.reduce", "freealg.reduce"),
    ("racah.freealg", "RewriteSystem.__init__", "freealg.rewrite_system"),
    ("racah.symmetry", "verify_relation_invariance", "symmetry.invariance"),
    ("racah.symmetry", "closure_order", "symmetry.closure"),
    ("racah.verifier", "run_suite", "verifier.run_suite"),
    ("racah.cli", "run_suite", "verifier.run_suite"),
    ("racah.verifier", "run_jacobi", "verifier.run_jacobi"),
    ("racah.verifier", "substituted_defect", "verifier.substituted_defect"),
    ("racah.verifier", "emit_report", "verifier.emit"),
    ("racah.cli", "emit_report", "verifier.emit"),
    ("racah.cli", "main", "cli.main"),
)


def _resolve(module_name: str, path: str):
    """The object that owns the attribute, and the attribute's name."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def operator_stats(op) -> tuple[int, int, int, int]:
    """(nonzero entries, largest entry bit length, reliable states, states)
    of a ``SparseOperator``; entries are integers over ``op.den``."""
    nnz = 0
    bits = op.den.bit_length()
    for col in op.cols.values():
        nnz += len(col)
        for v in col.values():
            b = abs(v).bit_length()
            if b > bits:
                bits = b
    return nnz, bits, len(op.states) - len(op.leaky), len(op.states)


class Tracer:
    """In-memory span recorder plus the counters measured at the same
    boundaries.  Single-threaded: spans nest through one stack."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # each span is [name id, parent id (-1 for none), start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        # eval result statistics per scope (e.g. one sweep parameter set)
        self.scope = ""
        self.eval_scopes: dict[str, list[int]] = {}

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._name_id(name), parent, self.clock(), None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = self.clock()
        self._stack.pop()

    def span_tuples(self):
        """(id, parent, name, start, end) for every closed span."""
        return [(i, p, self.names[n], s, e)
                for i, (n, p, s, e) in enumerate(self.spans) if e is not None]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for row in self.span_tuples():
                fh.write(json.dumps(row) + "\n")

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        pre, post = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = pre(args) if pre is not None else None
            sid = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if post is not None:
                post(tracer, before, out)
            return out

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, path, name in self.targets:
            owner, attr = _resolve(module_name, path)
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
            else:
                raw = getattr(owner, attr)
                new = self._wrap(name, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# -- counters taken at the wrapped boundaries -----------------------------------

def _steps(args) -> tuple:
    rs = args[0]
    return rs, rs.steps


def _reduce_hook(tracer: Tracer, before, out) -> None:
    rs, steps = before
    tracer.counters["freealg.reduce.steps"] += rs.steps - steps
    if out.is_zero:
        tracer.counters["freealg.reduce.zero"] += 1


def _compile_hook(tracer: Tracer, before, out) -> None:
    tracer.counters["core.compile.rules"] += len(out.rules)


def _eval_hook(tracer: Tracer, before, out) -> None:
    nnz, bits, reliable, states = operator_stats(out)
    acc = tracer.eval_scopes.setdefault(tracer.scope, [0, 0, 0, 0, 0])
    acc[0] += 1
    acc[1] += nnz
    acc[2] = max(acc[2], bits)
    acc[3] += reliable
    acc[4] += states


# span name -> (read before the call from its arguments, update after it)
_HOOKS = {
    "freealg.reduce": (_steps, _reduce_hook),
    "core.compile": (None, _compile_hook),
    "representation.eval": (None, _eval_hook),
}


# -- self time --------------------------------------------------------------------

def self_times(spans) -> dict[int, float]:
    """Self time of each span in ``(id, parent, name, start, end)`` rows:
    its duration minus the union of its children's intervals, clipped to it."""
    kids: dict[int, list[tuple[float, float]]] = defaultdict(list)
    bounds = {}
    for sid, parent, _name, start, end in spans:
        bounds[sid] = (start, end)
        if parent >= 0:
            kids[parent].append((start, end))
    out = {}
    for sid, (start, end) in bounds.items():
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted(kids.get(sid, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[sid] = (end - start) - covered
    return out


# -- per-layer metrics ----------------------------------------------------------------

# spans reported as <name>.calls and <name>.self_s
TIMED = ("representation.compose", "representation.linear_combination",
         "representation.operator_init", "representation.eval",
         "representation.build_operator", "representation.context_init",
         "core.to_contiguous", "core.compile", "core.relation",
         "freealg.reduce", "symmetry.invariance", "symmetry.closure",
         "verifier.run_suite", "verifier.run_jacobi",
         "verifier.substituted_defect", "verifier.emit", "cli.main")


def aggregate(spans) -> dict[str, list]:
    """name -> [calls, self seconds, total seconds].  Total time counts a
    span only when its parent has another name, so direct recursion is
    not counted twice."""
    selfs = self_times(spans)
    names = {sid: name for sid, _p, name, _s, _e in spans}
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, parent, name, start, end in spans:
        acc = out[name]
        acc[0] += 1
        acc[1] += selfs[sid]
        if names.get(parent) != name:
            acc[2] += end - start
    return out


def eval_totals(scopes) -> dict[str, float]:
    """Mean nonzeros, largest entry bit length and reliable share over
    eval results, from per-scope [calls, nnz, bits, reliable, states]."""
    calls = sum(a[0] for a in scopes)
    states = sum(a[4] for a in scopes)
    return {
        "nnz": sum(a[1] for a in scopes) / calls if calls else 0.0,
        "max_entry_bits": max((a[2] for a in scopes), default=0),
        "reliable_frac": sum(a[3] for a in scopes) / states if states else 0.0,
    }


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, by metric name."""
    agg = aggregate(tracer.span_tuples())
    zero = [0, 0.0, 0.0]
    m: dict[str, float] = {}
    for name in TIMED:
        calls, self_s, _total = agg.get(name, zero)
        m[name + ".calls"] = calls
        m[name + ".self_s"] = self_s
    m["core.compile.total_s"] = agg.get("core.compile", zero)[2]
    m["core.compile.rules"] = tracer.counters["core.compile.rules"]
    inits = agg.get("freealg.rewrite_system", zero)
    m["freealg.rewrite_system.inits"] = inits[0]
    m["freealg.rewrite_system.init_s"] = inits[1]
    reduces = m["freealg.reduce.calls"]
    m["freealg.reduce.steps"] = tracer.counters["freealg.reduce.steps"]
    m["freealg.reduce.zero_frac"] = (
        tracer.counters["freealg.reduce.zero"] / reduces if reduces else 0.0)
    evals = m["representation.eval.calls"]
    m["representation.eval.hit_frac"] = (
        1 - m["representation.linear_combination.calls"] / evals
        if evals else 0.0)
    for key, value in eval_totals(tracer.eval_scopes.values()).items():
        m["representation." + key] = value
    return m
