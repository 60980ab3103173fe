"""Self time, span nesting, and complete removal of the tracer's wrappers."""

import importlib

import pytest

from perfbench.tracing import TARGETS, Tracer, aggregate, self_times


def test_self_time_nested():
    # root [0, 10] holds child [1, 4], which holds grandchild [2, 3]
    spans = [(0, -1, "root", 0.0, 10.0),
             (1, 0, "child", 1.0, 4.0),
             (2, 1, "grandchild", 2.0, 3.0)]
    got = self_times(spans)
    assert got == {0: 7.0, 1: 2.0, 2: 1.0}


def test_self_time_back_to_back():
    # two children that touch end to start, and a third after a gap
    spans = [(0, -1, "root", 0.0, 10.0),
             (1, 0, "a", 1.0, 3.0),
             (2, 0, "a", 3.0, 5.0),
             (3, 0, "b", 7.0, 8.0)]
    got = self_times(spans)
    assert got[0] == pytest.approx(5.0)
    assert (got[1], got[2], got[3]) == (2.0, 2.0, 1.0)


def test_self_time_overlapping_children_counted_once():
    spans = [(0, -1, "root", 0.0, 10.0),
             (1, 0, "a", 1.0, 6.0),
             (2, 0, "b", 4.0, 12.0)]   # overlaps a, and runs past the root
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_aggregate_does_not_count_direct_recursion_twice():
    spans = [(0, -1, "f", 0.0, 4.0), (1, 0, "f", 1.0, 3.0),
             (2, -1, "g", 5.0, 6.0)]
    agg = aggregate(spans)
    assert agg["f"] == [2, 4.0 - 2.0 + 2.0, 4.0]
    assert agg["g"] == [1, 1.0, 1.0]


def test_tracer_spans_with_a_fake_clock():
    ticks = iter(range(100))
    tr = Tracer(targets=(), clock=lambda: float(next(ticks)))
    outer = tr.open("outer")        # t=0
    inner = tr.open("inner")        # t=1
    tr.close(inner)                 # t=2
    tr.close(outer)                 # t=3
    rows = tr.span_tuples()
    assert rows == [(0, -1, "outer", 0.0, 3.0), (1, 0, "inner", 1.0, 2.0)]
    assert self_times(rows) == {0: 2.0, 1: 1.0}


def _snapshot():
    out = {}
    for module_name, path, _name in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        out[(module_name, path)] = raw
    return out


def test_wrappers_are_fully_removed():
    before = _snapshot()
    tr = Tracer()
    with tr:
        during = _snapshot()
        assert all(during[k] is not before[k] for k in before)
    after = _snapshot()
    assert all(after[k] is before[k] for k in before)


def test_traced_calls_nest_and_count():
    from racah import core, representation, verifier

    tr = Tracer()
    with tr:
        rs = core.build_rewrite_system(4)
        poly = verifier.relation(verifier.enumerate_relations(4, "central")[0])
        assert rs.reduce(poly).is_zero
        ctx = representation.OperatorContext(representation.generic_params(), 2)
        op = ctx.eval(poly)
        ctx.eval(poly)
    rows = {i: (p, name) for i, p, name, _s, _e in tr.span_tuples()}
    names = [name for _p, name in rows.values()]
    assert names.count("core.compile") == 1
    assert names.count("core.relation") == 1
    assert names.count("representation.eval") == 2
    assert names.count("representation.linear_combination") == 1
    # rewrite-system constructions and the saturation reductions inside
    # compile are its child spans; only the last reduce is outside it
    compile_id = names.index("core.compile")
    for kind in ("freealg.rewrite_system", "freealg.reduce"):
        parents = [p for p, n in rows.values() if n == kind]
        assert parents.count(compile_id) == len(parents) - (kind == "freealg.reduce")
    assert tr.counters["freealg.reduce.zero"] >= 1
    assert tr.counters["core.compile.rules"] == len(rs.rules)
    calls, nnz, bits, reliable, states = tr.eval_scopes[""]
    assert calls == 2 and states == 2 * len(op.states)
    assert reliable == 2 * (len(op.states) - len(op.leaky))
    assert nnz == 2 * sum(len(col) for col in op.cols.values())
    assert bits == max([op.den.bit_length()] + [abs(v).bit_length()
                       for col in op.cols.values() for v in col.values()])
