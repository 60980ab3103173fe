"""Window operators: coefficient spot values against hand evaluation,
lattice closure at the boundaries, centrality and diagonality, leak
semantics, and the evaluation homomorphism."""

import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import poly_strategy
from racah import core, representation as rep
from racah.core import gen_C, to_contiguous
from racah.freealg import HALF, AlgebraError, NCPoly, commutator
from racah.representation import (
    OperatorContext,
    ParamError,
    SparseOperator,
    build_operator,
    coeff,
    commutator_op,
    triangle_states,
    validate_params,
)
from racah.verifier import _SUITE_FAMILIES

P_INT = rep.integer_params()
P_GEN = rep.generic_params()


def test_validate_integer_window4_accepted():
    assert validate_params(P_INT, 4) == []


def test_validate_integer_window6_rejected():
    errors = validate_params(P_INT, 6)
    assert any("s=5" in e for e in errors)
    assert any("s=6" in e for e in errors)
    with pytest.raises(ParamError):
        OperatorContext(P_INT, 6)


def test_validate_generic_any_window():
    # non-integer total shift keeps every integer-shifted factor nonzero
    assert validate_params(P_GEN, 40) == []


# -- frozen spot values (independent hand evaluation of the closed forms) --

def test_coeff_east_stay_value():
    assert coeff("C23", 2, 1, P_INT)[(0, 0)] == 6          # (5-2)(5-3)


def test_coeff_west_value():
    assert coeff("C12", 1, 0, P_INT)[(-1, 0)] == -120      # (-1)(3)(4)(10)


def test_coeff_west_vanishes_on_diagonal():
    assert (-1, 0) not in coeff("C12", 2, 2, P_INT)


def test_coeff_diagonal_value():
    assert coeff("C123", 3, 1, P_INT)[(0, 0)] == 20        # 5*4
    assert coeff("C123", 7, 1, P_GEN)[(0, 0)] == \
        (P_GEN.n(1, 2, 3) - 1) * (P_GEN.n(1, 2, 3) - 2)


def test_coeff_east_burst_value():
    assert coeff("C234", 3, 0, P_INT)[(1, 0)] == Fraction(6, 5)
    # independent oracle: the raw product over the raw denominator
    assert coeff("C234", 3, 1, P_INT)[(1, -1)] == Fraction(264, 9900)
    assert Fraction(264, 9900) == Fraction(2, 75)


def test_coeff_boundary_zeros():
    low = coeff("C234", 3, 0, P_INT)
    assert (0, -1) not in low and (1, -1) not in low       # factor s
    top = coeff("C234", 2, 2, P_INT)
    assert (0, 1) not in top                               # factor (s-t)
    c34low = coeff("C34", 3, 0, P_INT)
    assert (0, -1) not in c34low and (-1, -1) not in c34low


def test_coeff_rejects_bad_state():
    with pytest.raises(Exception):
        coeff("C12", 1, 2, P_INT)


# -- operators ----------------------------------------------------------------

def test_scalar_operators(ctx_integer):
    c1 = ctx_integer.eval(gen_C(4, (1,)))
    assert c1.is_diagonal_on_reliable()
    assert c1.entry((2, 1), (2, 1)) == 0                   # c(c-1) at c=1
    top = ctx_integer.eval(gen_C(4, (1, 2, 3, 4)))
    assert all(top.entry(x, x) == 42 for x in top.states)  # 7*6


def test_c123_diagonal_in_s_only(ctx_integer):
    op = ctx_integer.eval(gen_C(4, (1, 2, 3)))
    assert op.is_diagonal_on_reliable()
    for (t, s) in op.states:
        assert op.entry((t, s), (t, s)) == (6 - s) * (5 - s)


def test_c23_action_on_origin(ctx_integer):
    op = ctx_integer.eval(gen_C(4, (2, 3)))
    assert op.column((0, 0)) == {(0, 0): Fraction(20), (1, 0): Fraction(1)}


def test_lattice_closure_at_boundaries():
    # every generator maps window states into the lattice; build_operator
    # raises if a nonzero coefficient ever points off-lattice
    for gen in ("C12", "C23", "C123", "C34", "C234"):
        build_operator(gen, P_GEN, 6)
    for gen in ("C12", "C34"):
        op = build_operator(gen, P_GEN, 6)
        for x, col in ((x, op.column(x)) for x in op.states):
            for (tt, ss) in col:
                assert 0 <= ss <= tt


def test_leak_flags():
    op = build_operator("C23", P_GEN, 5)
    assert all((t, s) in op.leaky for (t, s) in op.states if t == 5)
    assert all((t, s) not in op.leaky for (t, s) in op.states if t < 5)
    west = build_operator("C12", P_GEN, 5)
    assert not west.leaky


def test_commuting_pairs(ctx_generic):
    for a, b in (((1, 2), (3, 4)), ((2, 3), (2, 3, 4))):
        diff = commutator_op(ctx_generic.eval(gen_C(4, a)),
                             ctx_generic.eval(gen_C(4, b)))
        assert diff.is_zero_on_reliable()


def test_eval_unit_is_identity(ctx_integer):
    op = ctx_integer.eval(NCPoly.one(4))
    assert not op.leaky
    assert all(op.column(x) == {x: Fraction(1)} for x in op.states)


def test_eval_routes_noncontiguous(ctx_integer):
    # C14 evaluates through its decomposition and stays consistent
    direct = ctx_integer.eval(gen_C(4, (1, 4)))
    via = ctx_integer.eval(core.decompose_to_basis(4, (1, 4)))
    assert (direct - via).is_zero_on_reliable()


def _op_equal(a, b):
    return (a - b).is_zero_on_reliable()


@given(poly_strategy(max_words=2, max_len=2), poly_strategy(max_words=2, max_len=2))
@settings(max_examples=20)
def test_eval_homomorphism(ctx_integer, a, b):
    ea, eb = ctx_integer.eval(a), ctx_integer.eval(b)
    assert _op_equal(ctx_integer.eval(a * b), ea.compose(eb))
    assert _op_equal(ctx_integer.eval(a + b), ea + eb)


def test_margin_rule(ctx_generic):
    # a word of length L keeps every state with t <= window - L reliable
    poly = gen_C(4, (2, 3)) * gen_C(4, (2, 3, 4)) * gen_C(4, (2, 3))
    op = ctx_generic.eval(poly)
    W = ctx_generic.window
    for (t, s) in op.states:
        if t + 3 <= W:
            assert (t, s) not in op.leaky


def test_relations_hold_on_every_parameter_set(contexts):
    for name, ctx in contexts:
        for family in ("quad", "dd", "pdt", "omega_outer"):
            for rid in core.enumerate_relations(4, family)[:6]:
                op = ctx.eval(core.relation(rid))
                assert op.is_zero_on_reliable(), (name, family, rid.indices)


def test_rank1_slice():
    # the s = 0 chain: A = C23 acts east with raising coefficient exactly 1,
    # B = C12 acts west, D is half their commutator
    ctx = OperatorContext(P_INT, 4, rank=3)
    A = ctx.eval(gen_C(3, (2, 3)))
    D = ctx.eval(HALF * commutator(gen_C(3, (2, 3)), gen_C(3, (1, 2))))
    assert A.entry((0, 0), (1, 0)) == 1
    assert A.entry((0, 0), (0, 0)) == 20                   # (5-0)(5-1)
    assert D.column((0, 0))                                 # nonzero map
    rels, _ = core.presentation_rank1(3)
    for r in rels:
        assert ctx.eval(r).is_zero_on_reliable()
    assert ctx.eval(core.casimir_rank1(3)).is_zero_on_reliable()


def test_operator_arithmetic_exact():
    states = triangle_states(2)
    a = SparseOperator.scalar(states, Fraction(2, 3))
    b = SparseOperator.scalar(states, Fraction(1, 6))
    s = a + b
    assert s.entry((1, 0), (1, 0)) == Fraction(5, 6)
    assert (s * Fraction(6, 5)).entry((0, 0), (0, 0)) == 1
    assert (a - a).is_zero_on_reliable()
    assert a.compose(b).entry((2, 2), (2, 2)) == Fraction(1, 9)


def test_linear_combination_rejects_mixed_windows():
    small = SparseOperator.identity(triangle_states(2))
    large = SparseOperator.identity(triangle_states(3))
    with pytest.raises(AlgebraError, match="different windows"):
        SparseOperator.linear_combination(small.states, [(1, small), (1, large)])
    with pytest.raises(AlgebraError, match="different windows"):
        SparseOperator.linear_combination(small.states, [(2, large)])
    with pytest.raises(AlgebraError, match="different windows"):
        small - large


def test_randomized_params_deterministic():
    assert rep.randomized_params(12, 7) == rep.randomized_params(12, 7)
    assert validate_params(rep.randomized_params(12, 7), 12) == []


# -- scalar folding keeps every exact statement and only adds reliable states --

def _unfolded(ctx, p):
    """Reference evaluation: one composed operator per contiguous word, the
    scalar letters included."""
    parts = [(c, ctx._word_op(w)) for w, c in to_contiguous(p).terms.items()]
    return SparseOperator.linear_combination(ctx.states, parts)


def _assert_covers(ctx, p):
    got, ref = ctx.eval(p), _unfolded(ctx, p)
    assert got.leaky <= ref.leaky
    for x in ref.reliable_states():
        assert got.column(x) == ref.column(x), x
    return got, ref


def test_folding_covers_relations():
    ctx = OperatorContext(P_GEN, 6)
    gained = 0
    for suite in ("definitions", "lemmas"):
        for family in _SUITE_FAMILIES[suite]:
            for rid in core.enumerate_relations(4, family):
                got, ref = _assert_covers(ctx, core.relation(rid))
                gained += len(ref.leaky) - len(got.leaky)
    assert gained > 0


@given(poly_strategy(max_words=3, max_len=3))
@settings(max_examples=30)
def test_folding_covers_any_polynomial(ctx_generic, p):
    _assert_covers(ctx_generic, p)


def test_cancelling_raising_words_keep_full_coverage():
    C = lambda *s: gen_C(4, s)
    p = (C(1, 2) * C(1, 3) + C(1, 2) * C(2, 3)
         - C(1, 3) * C(1, 2) - C(2, 3) * C(1, 2))
    op = OperatorContext(P_GEN, 12).eval(p)
    assert len(op.reliable_states()) == len(op.states) == 91


def test_zero_scalar_word_adds_no_leak(ctx_integer):
    # c_i = 1 makes C_i = c_i(c_i - 1) act as 0
    C = lambda *s: gen_C(4, s)
    op = ctx_integer.eval(C(1) * C(2, 3) * C(2, 3, 4))
    assert not op.leaky and op.is_zero_on_reliable()
    plain = ctx_integer.eval(C(1, 2))
    with_zero = ctx_integer.eval(C(1, 2) + C(2, 3) * C(1))
    assert with_zero.leaky == plain.leaky
    assert all(with_zero.column(x) == plain.column(x) for x in plain.states)


def test_zero_coefficient_adds_no_leak():
    states = triangle_states(3)
    c23 = build_operator("C23", P_INT, 3)
    ident = SparseOperator.identity(states)
    assert c23.leaky == {x for x in states if x[0] == 3}
    total = SparseOperator.linear_combination(states, [(0, c23), (1, ident)])
    assert not total.leaky
    assert all(total.column(x) == {x: 1} for x in states)
    zero = 0 * c23
    assert not zero.leaky and zero.is_zero_on_reliable()
    assert len(zero.reliable_states()) == len(states)


# -- the position-keyed kernel against a plain Fraction reference --------------
# A reference operator is (cols, leak): cols maps a state to its image
# {state: Fraction} with no zero entry and no empty column, leak is a set of
# states whose columns no composition or sum reads.

def _ref_sum(parts):
    leak = set().union(*(b for c, (_, b) in parts if c))
    cols: dict = {}
    for c, (a, _) in parts:
        for x, col in a.items():
            if x in leak:
                continue
            dst = cols.setdefault(x, {})
            for y, v in col.items():
                dst[y] = dst.get(y, 0) + c * v
    return _ref_strip(cols), leak


def _ref_compose(states, left, right):
    (a, a_leak), (b, b_leak) = left, right
    leak, cols = set(b_leak), {}
    for x in states:
        mid = b.get(x, {})
        if x in leak or not mid:
            continue
        if a_leak & set(mid):
            leak.add(x)
            continue
        cols[x] = {}
        for y, v in mid.items():
            for z, w in a.get(y, {}).items():
                cols[x][z] = cols[x].get(z, 0) + v * w
    return _ref_strip(cols), leak


def _ref_strip(cols):
    cols = {x: {y: v for y, v in col.items() if v} for x, col in cols.items()}
    return {x: col for x, col in cols.items() if col}


def _ref_witness(states, ref):
    cols, leak = ref
    return next(((x, cols[x]) for x in states if x not in leak and x in cols),
                None)


def _kernel(states, ref):
    """The SparseOperator with the reference's entries and leaks."""
    cols, leak = ref
    pos = {x: i for i, x in enumerate(states)}
    den = math.lcm(1, *(v.denominator for col in cols.values()
                        for v in col.values()))
    return SparseOperator(
        states, den,
        {pos[x]: {pos[y]: int(v * den) for y, v in col.items()}
         for x, col in cols.items()},
        frozenset(pos[x] for x in leak))


def _assert_agrees(states, op, ref):
    cols, leak = ref
    assert op.leaky == leak
    for x in states:
        assert op.column(x) == cols.get(x, {}), x
        for y in states:
            assert op.entry(x, y) == cols.get(x, {}).get(y, 0)
    assert op.witness() == _ref_witness(states, ref)
    reliable = [x for x in states if x not in leak]
    assert op.reliable_states() == tuple(reliable)
    assert op.is_zero_on_reliable() == all(x not in cols for x in reliable)
    assert op.is_diagonal_on_reliable() == all(
        set(cols.get(x, {})) <= {x} for x in reliable)


_RATIONALS = st.fractions(-4, 4, max_denominator=9)
_COEFFS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1),
                           Fraction(1, 2), Fraction(-2, 3)]) | _RATIONALS


@st.composite
def _reference_ops(draw, count=3):
    states = triangle_states(draw(st.integers(0, 4)))
    pick = st.sampled_from(states)
    ops = []
    for _ in range(count):
        cols = _ref_strip(draw(st.dictionaries(
            pick, st.dictionaries(pick, _RATIONALS, max_size=3))))
        ops.append((cols, set(draw(st.frozensets(pick, max_size=3)))))
    return states, ops


@given(_reference_ops(), st.data())
@settings(max_examples=60)
def test_kernel_matches_fraction_reference(drawn, data):
    states, refs = drawn
    ops = [_kernel(states, r) for r in refs]
    for op, ref in zip(ops, refs):
        _assert_agrees(states, op, ref)
    for i, j in ((0, 1), (1, 0), (2, 2)):
        _assert_agrees(states, ops[i].compose(ops[j]),
                       _ref_compose(states, refs[i], refs[j]))
    # zero, repeated and mixed-denominator coefficients; an index may repeat
    picks = data.draw(st.lists(st.tuples(_COEFFS, st.integers(0, 2)),
                               max_size=5))
    _assert_agrees(
        states,
        SparseOperator.linear_combination(states,
                                          [(c, ops[k]) for c, k in picks]),
        _ref_sum([(c, refs[k]) for c, k in picks]))
    a, b = refs[0], refs[1]
    q = data.draw(_COEFFS)
    _assert_agrees(states, ops[0] + ops[1], _ref_sum([(1, a), (1, b)]))
    _assert_agrees(states, ops[0] - ops[1], _ref_sum([(1, a), (-1, b)]))
    _assert_agrees(states, -ops[0], _ref_sum([(-1, a)]))
    _assert_agrees(states, q * ops[0], _ref_sum([(q, a)]))
    _assert_agrees(states, ops[0] - ops[0], _ref_sum([(1, a), (-1, a)]))
    _assert_agrees(states, commutator_op(ops[0], ops[1]),
                   _ref_sum([(1, _ref_compose(states, a, b)),
                             (-1, _ref_compose(states, b, a))]))
