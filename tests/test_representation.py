"""Window operators: coefficient spot values against hand evaluation,
lattice closure at the boundaries, centrality and diagonality, leak
semantics, and the evaluation homomorphism."""

import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import poly_strategy
from racah import core, representation as rep
from racah.core import gen_C, to_contiguous
from racah.expr import parse_letter
from racah.freealg import HALF, AlgebraError, Gen, NCPoly, commutator
from racah.representation import (
    OperatorContext,
    ParamError,
    SparseOperator,
    build_operator,
    chain_part,
    commutator_op,
    triangle_states,
    validate_params,
)
from racah.verifier import _SUITE_FAMILIES, substituted_defect

P_INT = rep.integer_params()
P_GEN = rep.generic_params()


@pytest.mark.parametrize("field", range(5))
def test_params_reject_floats(field):
    # Fraction(0.1) would be 3602879701896397/36028797018963968, not 1/10
    values = [Fraction(1, 3), Fraction(1, 5), Fraction(2, 7), 1, 4]
    values[field] = 0.1
    with pytest.raises(AlgebraError, match="float"):
        rep.RepParams(*values)


def test_params_keep_ints_and_fractions_exact():
    p = rep.RepParams(1, Fraction(1, 5), Fraction(2, 7), Fraction(1, 2), 4)
    assert p.c1 == 1 and p.n(1, 2) == Fraction(26, 5)
    assert p.n(1, 2, 3, 4) == 4 + 1 + Fraction(1, 5) + Fraction(2, 7) + HALF
    assert p == rep.RepParams(Fraction(1), Fraction(1, 5), Fraction(2, 7),
                              HALF, Fraction(4))


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
# Each is read off the operator build_operator assembles, on an interior
# state of the integer set's window 4 unless named otherwise.

def _op(name, p=P_INT, window=rep.INTEGER_WINDOW):
    return build_operator(parse_letter(name), p, window)


def test_entry_east_stay_value():
    assert _op("C23").entry((2, 1), (2, 1)) == 6           # (5-2)(5-3)


def test_entry_west_value():
    assert _op("C12").entry((1, 0), (0, 0)) == -120        # (-1)(3)(4)(10)


def test_column_west_vanishes_on_diagonal():
    # (s-t) = 0: |2,2> has no west image |1,2>, which is off the lattice
    assert _op("C12").column((2, 2)) == {(2, 2): 6}        # (5-2)(5-2-1)


def test_entry_diagonal_value():
    assert _op("C123").entry((3, 1), (3, 1)) == 20         # 5*4
    assert _op("C123", P_GEN, 8).entry((7, 1), (7, 1)) == \
        (P_GEN.n(1, 2, 3) - 1) * (P_GEN.n(1, 2, 3) - 2)


def test_entry_east_burst_value():
    c234 = _op("C234")
    assert c234.entry((3, 0), (4, 0)) == Fraction(6, 5)
    # independent oracle: the raw product over the raw denominator
    assert c234.entry((3, 1), (4, 0)) == Fraction(264, 9900)
    assert Fraction(264, 9900) == Fraction(2, 75)


def test_column_boundary_zeros():
    # a factor that failed to vanish on a lattice edge would give a nonzero
    # entry off the lattice, and build_operator raises on that; in-lattice
    # images of the edge states stay
    c234 = _op("C234")
    assert set(c234.column((3, 0))) == {(3, 1), (4, 1), (3, 0), (4, 0)}
    # |2,2> lacks only its (s-t)-factor image |2,3>, which is off the lattice
    assert set(c234.column((2, 2))) == {(2, 1), (3, 1), (2, 2), (3, 2), (3, 3)}
    assert set(_op("C34").column((3, 0))) == {(2, 1), (3, 1), (2, 0), (3, 0)}


def test_letter_tables_cover_the_contiguous_letters():
    # each contiguous letter acts by exactly one of a stencil or a scalar
    stencils, scalars = set(rep._STENCILS), set(rep._SCALARS)
    assert not stencils & scalars
    assert stencils | scalars == {Gen("C", s) for s in core.CONTIGUOUS[4]}


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
    for gen in rep._STENCILS:
        build_operator(gen, P_GEN, 6)
    for gen in ("C12", "C34"):
        op = build_operator(parse_letter(gen), P_GEN, 6)
        for x, col in ((x, op.column(x)) for x in op.states):
            for (tt, ss) in col:
                assert 0 <= ss <= tt


def test_leak_flags():
    op = _op("C23", P_GEN, 5)
    assert all((t, s) in op.leaky for (t, s) in op.states if t == 5)
    assert all((t, s) not in op.leaky for (t, s) in op.states if t < 5)
    west = _op("C12", P_GEN, 5)
    assert not west.leaky


def test_commuting_pairs(ctx_generic):
    for a, b in (((1, 2), (3, 4)), ((2, 3), (2, 3, 4))):
        diff = commutator_op(ctx_generic.eval(gen_C(4, a)),
                             ctx_generic.eval(gen_C(4, b)))
        assert diff.is_zero_on_reliable()


def test_eval_unit_is_identity(ctx_integer):
    op = ctx_integer.eval(NCPoly.const(4, 1))
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
    # the s = 0 chain of the window: A = C23 acts east with raising
    # coefficient exactly 1, B = C12 acts west, D is half their commutator
    ctx = OperatorContext(P_INT, 4)
    A = chain_part(ctx.eval(gen_C(3, (2, 3))))
    D = chain_part(ctx.eval(HALF * commutator(gen_C(3, (2, 3)),
                                              gen_C(3, (1, 2)))))
    assert A.entry((0, 0), (1, 0)) == 1
    assert A.entry((0, 0), (0, 0)) == 20                   # (5-0)(5-1)
    assert D.column((0, 0))                                 # nonzero map
    for r in core.presentation_rank1(3):
        assert chain_part(ctx.eval(r)).is_zero_on_reliable()
    assert chain_part(ctx.eval(core.casimir_rank1(3))).is_zero_on_reliable()


def test_chain_part_is_the_s0_row_only():
    # the row view keeps the s = 0 columns and their leaks, marks every
    # other state unreliable, and leaves the context's operator as it was
    ctx = OperatorContext(P_INT, 3)
    # C34's s = 0 columns share a factor 840 with its denominator, which
    # the row divides out; C23 leaks at |3,0>
    for letters, reliable in (((3, 4), 4), ((2, 3), 3)):
        op = ctx.eval(gen_C(4, letters))
        before = (op.den, {x: dict(col) for x, col in op.cols.items()},
                  op.leaky)
        row = chain_part(op)
        assert (op.den, op.cols, op.leaky) == before
        assert row.reliable_states() == tuple((t, 0) for t in range(reliable))
        assert row.leaky == set(op.states) - set(row.reliable_states())
        for x in op.states:
            assert row.column(x) == (op.column(x) if x[1] == 0 else {})


def test_rank3_polynomial_needs_no_relabel(contexts):
    # a rank-4 context rewrites a rank-3 polynomial at its own rank, into
    # the same letters as its rank-4 copy
    for name, ctx in contexts:
        for p in (*core.presentation_rank1(3), core.casimir_rank1(3)):
            got, relabeled = ctx.eval(p), ctx.eval(NCPoly(4, p.terms))
            assert (got.den, got.cols, got.leaky) == \
                (relabeled.den, relabeled.cols, relabeled.leaky), name


def test_operator_arithmetic_exact():
    states = triangle_states(2)
    a = SparseOperator.scalar(states, Fraction(2, 3))
    b = SparseOperator.scalar(states, Fraction(1, 6))
    s = a + b
    assert s.entry((1, 0), (1, 0)) == Fraction(5, 6)
    assert (s * Fraction(6, 5)).entry((0, 0), (0, 0)) == 1
    assert (a - a).is_zero_on_reliable()
    assert a.compose(b).entry((2, 2), (2, 2)) == Fraction(1, 9)


# Fraction(0.1) would be 3602879701896397/36028797018963968, not 1/10

def test_scalar_operator_rejects_floats():
    states = triangle_states(2)
    with pytest.raises(AlgebraError, match="float"):
        SparseOperator.scalar(states, 0.1)
    assert SparseOperator.scalar(states, 3).entry((1, 0), (1, 0)) == 3


def test_linear_combination_rejects_float_coefficients():
    states = triangle_states(2)
    ident = SparseOperator.scalar(states, 1)
    with pytest.raises(AlgebraError, match="float"):
        SparseOperator.linear_combination(states, [(1, ident), (0.1, ident)])
    with pytest.raises(AlgebraError, match="float"):
        ident * 0.1
    with pytest.raises(AlgebraError, match="float"):
        0.1 * ident
    tenth = SparseOperator.linear_combination(
        states, [(Fraction(1, 10), ident), (2, ident)])
    assert tenth.entry((2, 1), (2, 1)) == Fraction(21, 10)


def test_linear_combination_rejects_mixed_windows():
    small = SparseOperator.scalar(triangle_states(2), 1)
    large = SparseOperator.scalar(triangle_states(3), 1)
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
    c23 = _op("C23", P_INT, 3)
    ident = SparseOperator.scalar(states, 1)
    assert c23.leaky == {x for x in states if x[0] == 3}
    total = SparseOperator.linear_combination(states, [(0, c23), (1, ident)])
    assert not total.leaky
    assert all(total.column(x) == {x: 1} for x in states)
    zero = 0 * c23
    assert not zero.leaky and zero.is_zero_on_reliable()
    assert len(zero.reliable_states()) == len(states)


# -- a word's operator is kept only while a later planned polynomial uses it --

def _composed(ctx, word, memo):
    """``word``'s operator on ``ctx``'s window, composed letter by letter
    from the right, as written (kept in ``memo``)."""
    if word not in memo:
        memo[word] = (
            SparseOperator.scalar(ctx.states, 1) if not word
            else build_operator(word[0], ctx.params, ctx.window,
                                ctx.states) if len(word) == 1
            else _composed(ctx, word[:1], memo).compose(
                _composed(ctx, word[1:], memo)))
    return memo[word]


def _per_word(ctx, words, memo):
    """Reference evaluation of the contiguous ``words`` of a polynomial:
    scalar letters folded into the coefficients, every word composed letter
    by letter from the right into its own operator (kept in ``memo``), and
    the words summed by ``linear_combination``."""
    scalars = {g: fn(ctx.params) for g, fn in rep._SCALARS.items()}
    terms = {}
    for word, c in words.items():
        for g in word:
            if g in scalars:
                c *= scalars[g]
        letters = tuple(g for g in word if g not in scalars)
        terms[letters] = terms.get(letters, 0) + c
    return SparseOperator.linear_combination(
        ctx.states,
        [(c, _composed(ctx, w, memo)) for w, c in terms.items()])


def _same_operator(a, b):
    return a.den == b.den and a.cols == b.cols and a.leaky == b.leaky


def _rank4_suite_polys():
    """Each polynomial a rank-4 run of definitions, lemmas, theorem_bigthm,
    casimirs and the Jacobi sample evaluates."""
    polys = [core.relation(rid)
             for suite in ("definitions", "lemmas", "theorem_bigthm")
             for family in _SUITE_FAMILIES[suite]
             for rid in core.enumerate_relations(4, family)]
    cas = core.casimir_rank1(4)
    polys += [cas, *(commutator(cas, g) for g in (
        gen_C(4, (1, 2)), gen_C(4, (2, 3)), core.d_poly(4, 1, 2, 3)))]
    polys += [core.casimir_frak(i) for i in range(5)]
    polys += [gen_C(4, s) for s in core.CONTIGUOUS[4]]
    triples = list(itertools.combinations(core.core_generators(4), 3))
    step = max(1, len(triples) // 8)
    return polys + [substituted_defect(4, *t) for t in triples[::step]]


def test_eval_equals_the_per_word_sum():
    # as in a run, each context is planned with the polynomials it will
    # evaluate, and each polynomial goes through every context in turn,
    # so it is rewritten once and not once per context
    polys = _rank4_suite_polys()
    sets = [("generic", P_GEN, w) for w in (0, 1, 3, 6, 12)]
    sets += [("randomized", rep.randomized_params(w), w) for w in (0, 1, 3, 6)]
    sets.append(("integer", P_INT, 4))
    contexts = [(f"{name}-w{w}", OperatorContext(params, w), {})
                for name, params, w in sets]
    for _, ctx, _ in contexts:
        ctx.plan(polys)
    for p in polys:
        words = to_contiguous(p).terms
        for name, ctx, memo in contexts:
            assert _same_operator(ctx.eval(p),
                                  _per_word(ctx, words, memo)), (name, p)


@given(st.lists(poly_strategy(max_words=4, max_len=3), min_size=1,
                max_size=3))
@settings(max_examples=25)
def test_eval_equals_the_per_word_sum_on_any_polynomials(polys):
    # no plan: every word is folded into its first letter's group
    ctx, memo = OperatorContext(P_GEN, 6), {}
    for p in [*polys, sum(polys, NCPoly.zero(4))]:
        assert _same_operator(
            ctx.eval(p), _per_word(ctx, to_contiguous(p).terms, memo)), p


def test_grouped_words_keep_their_own_leaks():
    # C12 and C123 commute, so the two suffixes cancel in the group sum,
    # but each word still reaches past the window through C23
    C = lambda *s: gen_C(4, s)
    p = C(2, 3) * C(1, 2) * C(1, 2, 3) - C(2, 3) * C(1, 2, 3) * C(1, 2)
    ctx = OperatorContext(P_GEN, 6)
    op = ctx.eval(p)
    assert op.is_zero_on_reliable()
    assert op.leaky == {x for x in ctx.states if x[0] == 6}
    assert _same_operator(op, _per_word(ctx, to_contiguous(p).terms, {}))


_WORD = tuple(Gen("C", s) for s in ((1, 2), (2, 3), (3, 4)))


def test_word_operator_kept_until_its_last_planned_use():
    p = NCPoly.from_word(4, _WORD)
    q = p + gen_C(4, (1, 2, 3))
    letters = {(g,) for g in _WORD}
    # the same polynomial planned twice is one use: the word is folded
    ctx = OperatorContext(P_GEN, 6)
    ctx.plan([p, p])
    ctx.eval(p)
    assert set(ctx._word_ops) == letters
    # a later planned polynomial holds the word: it is built at its first
    # use, kept through a memo hit and dropped after its last use
    ctx = OperatorContext(P_GEN, 6)
    ctx.plan([p, p, q])
    ctx.eval(p)
    assert _WORD in ctx._word_ops
    ctx.eval(p)
    assert _WORD in ctx._word_ops
    ctx.eval(q)
    assert _WORD not in ctx._word_ops and _WORD[1:] not in ctx._word_ops
    assert letters <= set(ctx._word_ops)


def test_plan_is_only_a_hint():
    p = NCPoly.from_word(4, _WORD)
    q = p + gen_C(4, (1, 2, 3))
    ctx = OperatorContext(P_GEN, 6)
    ctx.plan([p, q])
    ctx.eval(p)
    ctx.eval(q)
    assert _WORD not in ctx._word_ops
    # unplanned, and it holds the word past the word's last planned use
    r = gen_C(4, (2, 3)) * p - 2 * p + gen_C(4, (1, 2, 3, 4)) * p
    assert _same_operator(ctx.eval(r),
                          _per_word(ctx, to_contiguous(r).terms, {}))
    # built again, as the suffix of the folded word C23*C12*C23*C34
    assert _WORD in ctx._word_ops


def test_a_word_held_later_only_as_a_suffix_is_built_once(monkeypatch):
    calls = []
    compose = SparseOperator.compose
    monkeypatch.setattr(SparseOperator, "compose",
                        lambda a, b: calls.append(1) or compose(a, b))
    p = NCPoly.from_word(4, _WORD)
    r = gen_C(4, (2, 3)) * p
    ctx = OperatorContext(P_GEN, 6)
    ctx.plan([p, r])
    ctx.eval(p)
    # r holds the word only as a suffix: it is kept from its first use
    assert _WORD in ctx._word_ops
    op = ctx.eval(r)
    # C23*C34, then C12 after it; r's group composes C23 after the word
    assert len(calls) == 3
    assert _WORD not in ctx._word_ops
    assert _same_operator(op, _per_word(ctx, to_contiguous(r).terms, {}))


def test_a_cancelled_word_is_kept_for_a_later_polynomial():
    C = lambda *s: gen_C(4, s)
    q = C(2, 3) * C(1, 2, 3) - C(1, 2, 3) * C(2, 3)
    word = (_C["C123"], _C["C23"])
    ctx = OperatorContext(P_GEN, 6)
    ctx.plan([q, C(3, 4) * C(1, 2, 3) * C(2, 3)])
    op = ctx.eval(q)
    # the two orders are one canonical word whose coefficients cancel; a
    # later polynomial holds it as a suffix, so its operator is kept
    assert word in ctx._word_ops
    assert not op.cols
    assert op.leaky == {x for x in ctx.states if x[0] == 6}


def test_single_use_words_keep_no_operator():
    # D123|D124|D134 is the one sampled defect with words of five letters
    ctx = OperatorContext(P_GEN, 12)
    defect = substituted_defect(4, *(Gen("D", s) for s in
                                     ((1, 2, 3), (1, 2, 4), (1, 3, 4))))
    assert max(map(len, to_contiguous(defect).terms)) == 5
    assert ctx.eval(defect).is_zero_on_reliable()
    assert max(map(len, ctx._word_ops)) == 4


# -- canonical words and proportional polynomials -----------------------------

_C = {str(g): g for g in rep.DISPLACEMENT_LETTERS}


def _admitted(ctx):
    return {f"{a}*{b}" for a, b in itertools.combinations(
        rep.DISPLACEMENT_LETTERS, 2) if ctx.interchangeable(a, b)}


_TRIANGLE_PAIRS = {"C12*C123", "C23*C123", "C12*C34"}


@pytest.mark.parametrize("name,params,window", rep.default_param_sets(),
                         ids=[f"triangle-{name}"
                              for name, _, _ in rep.default_param_sets()])
def test_interchangeable_pairs_of_each_default_context(name, params, window):
    ctx = OperatorContext(params, window)
    assert _admitted(ctx) == _TRIANGLE_PAIRS
    # each pair is checked once, in either order
    assert all(ctx.interchangeable(b, a) == ctx.interchangeable(a, b)
               for a, b in itertools.combinations(rep.DISPLACEMENT_LETTERS, 2))
    assert not ctx.interchangeable(_C["C23"], _C["C23"])


@pytest.mark.parametrize("params", [P_GEN, rep.randomized_params(6)],
                         ids=("generic", "randomized"))
def test_swapping_an_admitted_pair_keeps_the_operator(params):
    ctx, memo = OperatorContext(params, 6), {}
    around = [()] + [(g,) for g in rep.DISPLACEMENT_LETTERS]
    pairs = [(a, b) for a, b in itertools.combinations(
        rep.DISPLACEMENT_LETTERS, 2) if ctx.interchangeable(a, b)]
    assert pairs
    for a, b in pairs:
        for u, v in itertools.product(around, repeat=2):
            assert _same_operator(_composed(ctx, u + (a, b) + v, memo),
                                  _composed(ctx, u + (b, a) + v, memo)), \
                (u, a, b, v)


def test_words_of_one_canonical_order_share_an_operator(ctx_generic):
    C = lambda *s: gen_C(4, s)
    pairs = ((C(2, 3) * C(1, 2, 3), C(1, 2, 3) * C(2, 3)),
             (C(3, 4) * C(1, 2) * C(1, 2, 3), C(3, 4) * C(1, 2, 3) * C(1, 2)))
    canonical = ((_C["C123"], _C["C23"]), (_C["C12"], _C["C34"], _C["C123"]))
    for (p, q), want in zip(pairs, canonical):
        for w in (p, q):
            assert ctx_generic._canonical(next(iter(w.terms))) == want
        assert ctx_generic.eval(p) is ctx_generic.eval(q)
    # C123 and C34 do not commute: no swap reaches C34*C12*C123 from here
    assert ctx_generic._canonical(
        (_C["C123"], _C["C12"], _C["C34"])) == (_C["C123"], _C["C12"],
                                                _C["C34"])


def test_a_perturbed_letter_loses_its_pair(monkeypatch):
    # move one C34 entry: C12 and C34 no longer commute, and every
    # evaluation still equals the per-word sum
    c34 = _C["C34"]
    stencil = rep._STENCILS[c34]

    def entries(p, t, s, trow, srow):
        out = stencil.entries(p, t, s, trow, srow)
        if (t, s) == (2, 1):
            out[0, 0] += Fraction(1, 7)
        return out

    monkeypatch.setitem(rep._STENCILS, c34,
                        rep.Stencil(stencil.t_row, stencil.s_row, entries))
    ctx, memo = OperatorContext(P_GEN, 6), {}
    assert _admitted(ctx) == _TRIANGLE_PAIRS - {"C12*C34"}
    polys = _rank4_suite_polys()
    ctx.plan(polys)
    for p in polys:
        assert _same_operator(ctx.eval(p),
                              _per_word(ctx, to_contiguous(p).terms, memo)), p


def test_eval_of_a_multiple_is_the_multiple():
    polys = [core.casimir_frak(0), core.casimir_rank1(4),
             core.relation(core.enumerate_relations(4, "quad")[0]),
             gen_C(4, (1,)) * gen_C(4, (2, 3)), NCPoly.zero(4)]
    for q in (Fraction(-3, 7), Fraction(2), Fraction(1)):
        for p in polys:
            # either one evaluated first
            first, later = OperatorContext(P_GEN, 6), OperatorContext(P_GEN, 6)
            ref = q * first.eval(p)
            assert _same_operator(first.eval(q * p), ref), (q, p)
            assert _same_operator(later.eval(q * p), ref), (q, p)
            assert _same_operator(later.eval(p), first.eval(p)), (q, p)


@given(poly_strategy(max_words=3, max_len=3),
       st.sampled_from([Fraction(-1), Fraction(5, 3), Fraction(-2, 9)]))
@settings(max_examples=20)
def test_eval_of_a_multiple_of_any_polynomial(ctx_generic, p, q):
    assert _same_operator(ctx_generic.eval(q * p), q * ctx_generic.eval(p))
    assert _same_operator(ctx_generic.eval(q * p),
                          _per_word(ctx_generic, to_contiguous(q * p).terms,
                                    {}))


# -- the merged integer rewrite ------------------------------------------------

def test_scalar_orders_merge_into_one_entry():
    C = lambda *s: gen_C(4, s)
    p = C(1) * C(2) * C(1, 2) + C(2) * C(1, 2) * C(1)
    assert rep._contiguous_words(p.key()) == (
        1, [((Gen("C", (1, 2)),), (Gen("C", (1,)), Gen("C", (2,))), 2)])


def _assert_merged_rewrite(p):
    """The entries are the rewrite's words summed by operator letters and
    sorted scalar letters, over a positive, gcd-normalised denominator."""
    den, entries = rep._contiguous_words(p.key())
    assert den > 0 and math.gcd(den, *(n for *_, n in entries)) == 1
    want = {}
    for word, c in to_contiguous(p).terms.items():
        letters = tuple(g for g in word if g not in rep._SCALARS)
        monomial = tuple(sorted((g for g in word if g in rep._SCALARS),
                                key=Gen.sort_key))
        want[letters, monomial] = want.get((letters, monomial), 0) + c
    got = {(letters, m): Fraction(n, den) for letters, m, n in entries}
    assert len(got) == len(entries) and 0 not in got.values()
    assert got == {k: c for k, c in want.items() if c}, p


def test_merged_rewrite_of_the_rank4_suites():
    for p in _rank4_suite_polys():
        _assert_merged_rewrite(p)


@given(poly_strategy(max_words=4, max_len=4,
                     coeffs=[Fraction(1, 3), Fraction(-5, 7), Fraction(3)]))
def test_merged_rewrite_of_any_polynomial(p):
    _assert_merged_rewrite(p)


def test_scalar_orders_that_cancel_leave_no_word(ctx_generic):
    C = lambda *s: gen_C(4, s)
    p = C(1) * C(1, 2) * C(2) - C(2) * C(1) * C(1, 2)
    assert rep._contiguous_words(p.key()) == (1, [])
    op = ctx_generic.eval(p)
    assert not op.cols and not op.leaky
    assert _same_operator(op, _per_word(ctx_generic, to_contiguous(p).terms,
                                        {}))


# One run of the rank-4 casimirs suite on the generic set at window 8:
# ``compose`` calls, inner products (per reliable column of the right
# operator whose image meets no leak of the left, the stored entries of the
# left operator's columns it reads), then the JSON report.
_COUNTED_CASIMIRS_RUN = r"""
import sys
from racah import representation as rep
from racah.verifier import SuiteConfig, emit_report, run_suite

counts = [0, 0]
compose = rep.SparseOperator.compose


def counted(self, other):
    counts[0] += 1
    counts[1] += sum(len(self.cols.get(y, ()))
                     for x, mid in other.cols.items()
                     if x not in other._leak and self._leak.isdisjoint(mid)
                     for y in mid)
    return compose(self, other)


rep.SparseOperator.compose = counted
report = emit_report(run_suite(SuiteConfig(
    4, (("generic", rep.generic_params(), 8),), ("casimirs",))))
sys.stdout.buffer.write(b"%d %d\n" % tuple(counts) + report)
"""


def test_representation_work_does_not_depend_on_the_hash_seed():
    # str hashes, and with them the iteration order of any set or dict keyed
    # by letters or words, change with PYTHONHASHSEED; the work of an eval
    # must not follow that order
    src = os.path.dirname(os.path.dirname(rep.__file__))
    runs = {subprocess.run([sys.executable, "-c", _COUNTED_CASIMIRS_RUN],
                           env=dict(os.environ, PYTHONHASHSEED=str(seed),
                                    PYTHONPATH=src),
                           capture_output=True, check=True).stdout
            for seed in (0, 1, 2)}
    assert len(runs) == 1
    counts, report = runs.pop().split(b"\n", 1)
    calls, products = map(int, counts.split())
    assert calls and products and json.loads(report)["instances"]


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


_spec = importlib.util.spec_from_file_location(
    "operator_digest",
    Path(__file__).parents[1] / "scripts" / "operator_digest.py")
_operator_digest_script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_operator_digest_script)
operator_digest = _operator_digest_script.operator_digest

# scripts/operator_digest.py digests of each letter's (den, cols, leak),
# recorded when every state's stencil was evaluated on its own
GOLDEN_OPERATOR_DIGESTS = {
    ("integer", 4, "triangle"): {
        "C12": "66e41358e7b4fb3c473598b9f04a3b9fb2489ea24af965fa04de633272e8c251",
        "C23": "9f0670d6a8469a31139bd3bc1d922bb5045adcc75ba660235597284167d6effb",
        "C123": "c3e5d3fde955bfe230c92e1ad9e690d17551db169c8f2014f869ca1c20574086",
        "C34": "a24c341ce08642a2df2bc772a4d0fd87faf6e1aaf71689fc8f67a99127d0555d",
        "C234": "6b4a9dc7c8dcfb56654f4359f81d683dee667cee69cd41ca25c6e6be52c077ff",
    },
    ("generic", 6, "triangle"): {
        "C12": "74a40f0abb23290858fb94519be8bb28af67fa5846c07a67695232f95433988e",
        "C23": "856f47bf9034d2e65bf6dae17a8c05dbb43d5025193375da59bf7c137770d1df",
        "C123": "fb790e9ba7a87bc944a4b678f3b8ce324ea5d165f16764b1e30aaf22b7298d3a",
        "C34": "e58c5b64e1445718f18e4581cb26911808e38df83302aa00b378bc435de5a6a0",
        "C234": "b51b58f1f409941aa71985b739d1b36615079482f5959ef3385d5f80b5d33f20",
    },
    ("generic", 12, "triangle"): {
        "C12": "9d36a8095b06e5c61e24e6d75ccd5673265d8678a7acecb400c47afa7ff4f040",
        "C23": "b888f9dba872c2989e9b43ffe4bfef5b3d82a5ed673381bd979ec3bf5cc6a963",
        "C123": "d5414d74b7e676ad30de5f4a47aa95a32bcadb979dc3145c2bb9fde9e02474d2",
        "C34": "19a32113138a2c24c09c0fa93148fb90fd83037e5ac5f99c10d92076c5a9bbd5",
        "C234": "1d65b8cfa28e6ee74baa758f2bb85a1e5ec6e054bb93ed01252533c7fa64b28b",
    },
    ("randomized", 12, "triangle"): {
        "C12": "38018106d7f4ad625a6c902547cec5472bd8f7239b38986d7dd6b71ad0ea5f6f",
        "C23": "a198609d7cd54c8c1e6f8048931c1f1913ad134eafc6b55509b98d1ed6bf4b5b",
        "C123": "1cca588c7a13feacce9a67d672c2c39f86398061787c99d9eabd16722215cf28",
        "C34": "5113b48ae253d7f326107e54a519f377f0a1277cbebbb465d2af1de1ea9f0787",
        "C234": "46278559be5a452f3961ce9ac0271c2e29053a76a8cf2a32c0bc781236d6b8fa",
    },
    ("generic", 12, "chain"): {
        "C12": "1288e2521b03ffb948354677b27634b04457d55f963ca542614a986afbfb07d9",
        "C23": "8f111304ba6a4e753ea23ec608f7cfddaec0282c1acb368001c256a9735226f4",
        "C123": "3dc47249a42c1c106eda560f3c3ff347b42bf73de29dc8203a94d0e0e03e091f",
        "C34": "326e37eedc40c5fbbea270b93b2837583fc3dd5a5efea59c62c971d016e97c14",
        "C234": "3648dd2d26b6a32029ba81c1f89c934b762b796c133445f61e69c0b007298006",
    },
    ("randomized", 12, "chain"): {
        "C12": "fb25102bbf1eda238ba73c7051a15d5e933b62583477e358cfb2207fee00ae37",
        "C23": "b464f0940ffac09b3c1bb98a891346c10b52b1795b91e9309252413a8ac6d5d5",
        "C123": "7be97bbafd65733226355e8bcdd58ebad6e03cf0eb17f41d442704e0aebc2614",
        "C34": "7b232d710b70fc4de3818db2f0412fbc03342b3b2adc813283bc256a2fa4972d",
        "C234": "7bff912962fb95e8ee0d08fca32f94dad8b2f2b3e085f21f6463f24b7ecf62b5",
    },
}
_DIGEST_PARAMS = {"integer": P_INT, "generic": P_GEN,
                  "randomized": rep.randomized_params(12, rep.DEFAULT_SEED)}


def test_operator_digest_script_prints_golden_digests(monkeypatch, capsys):
    # the script's own entry point: argparse, racah.cli's parameter and
    # window readers, and the integer set at its widest window by default
    monkeypatch.setattr("sys.argv", ["operator_digest.py"])
    _operator_digest_script.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert {row[0]: row[-1] for row in rows if row[-2] == "sha256"} == \
        GOLDEN_OPERATOR_DIGESTS[("integer", rep.INTEGER_WINDOW, "triangle")]


@pytest.mark.parametrize("case", sorted(GOLDEN_OPERATOR_DIGESTS),
                         ids=lambda c: "-".join(map(str, c)))
def test_operator_digests(case):
    name, window, shape = case
    # a chain case is built on the s = 0 states alone
    states = (triangle_states(window) if shape == "triangle"
              else tuple((t, 0) for t in range(window + 1)))
    got = {g: operator_digest(build_operator(parse_letter(g),
                                             _DIGEST_PARAMS[name], window,
                                             states))
           for g in GOLDEN_OPERATOR_DIGESTS[case]}
    assert got == GOLDEN_OPERATOR_DIGESTS[case]


# the letters of the rank-1 subalgebra: none of them moves s
_RANK1_LETTERS = tuple(Gen("C", s) for s in core.CONTIGUOUS[3])


_ROW_CASES = [(name, params, w) for name, params, window
              in rep.default_param_sets() for w in (window, 0)]


@pytest.mark.parametrize("name,params,window", _ROW_CASES,
                         ids=[f"{name}-w{w}" for name, _, w in _ROW_CASES])
def test_rank1_letters_keep_the_s0_row(name, params, window):
    # each rank-1 letter sends every s = 0 state to s = 0 states, and on
    # that row it is the operator built on the row alone, leaks included
    row = tuple((t, 0) for t in range(window + 1))
    for g in _RANK1_LETTERS:
        op = build_operator(g, params, window)
        chain = build_operator(g, params, window, states=row)
        for x in row:
            assert all(s == 0 for _, s in op.column(x)), (g, x)
            assert op.column(x) == chain.column(x), (g, x)
            assert (x in op.leaky) == (x in chain.leaky), (g, x)
        assert chain.leaky <= set(row)
