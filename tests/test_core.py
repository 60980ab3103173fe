"""Generator catalog: constructors, decomposition (against an independent
linear-system oracle), relation builders, and the central elements."""

import itertools
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import fraction_substitution, poly_strategy
from racah import core
from racah.core import (
    RelationId,
    casimir_frak,
    catalog_commutator,
    casimir_rank1,
    core_generators,
    d_poly,
    decompose_to_basis,
    enumerate_relations,
    expand_to_C,
    gen_C,
    gen_P,
    gen_P1,
    pentagon_poly,
    presentation_rank1,
    relation,
)
from racah.freealg import AlgebraError, Gen, NCPoly, commutator
from racah.verifier import substituted_defect


def test_gen_C_set_symmetry():
    assert gen_C(4, (2, 1)) == gen_C(4, (1, 2))
    assert gen_C(4, (3, 1, 2)) == gen_C(4, (1, 2, 3))


def test_gen_C_range_errors():
    with pytest.raises(AlgebraError):
        gen_C(4, (5,))
    with pytest.raises(AlgebraError):
        gen_C(4, ())


def test_maximal_element_is_central(rs3):
    top = gen_C(3, (1, 2, 3))
    for I in ((1,), (1, 2), (2, 3), (1, 3)):
        assert rs3.reduce(commutator(top, gen_C(3, I))).is_zero


def test_gen_P_symmetric_and_expansion():
    assert gen_P(4, 2, 1) == gen_P(4, 1, 2)
    assert expand_to_C(gen_P(4, 1, 2)) == \
        gen_C(4, (1, 2)) - gen_C(4, (1,)) - gen_C(4, (2,))
    assert expand_to_C(gen_P(4, 1, 1)) == -gen_C(4, (1,))
    assert gen_P(4, 3, 3) == gen_P1(4, 3)


def test_d_poly_signs():
    base = d_poly(4, 1, 2, 3)
    assert base == NCPoly.from_word(4, (Gen("D", (1, 2, 3)),))
    assert d_poly(4, 2, 1, 3) == -base
    # cyclic reorderings keep the sign, single flips negate it
    assert d_poly(4, 2, 3, 1) == d_poly(4, 3, 1, 2) == base
    assert d_poly(4, 1, 3, 2) == d_poly(4, 3, 2, 1) == -base
    assert d_poly(4, 4, 2, 3) == d_poly(4, 2, 3, 4) == -d_poly(4, 3, 2, 4)
    with pytest.raises(AlgebraError):
        d_poly(4, 1, 1, 2)


def test_pentagon_assignments():
    assert pentagon_poly(4, "Om", 4) == gen_C(4, (1, 2))
    assert pentagon_poly(4, "Om", 0) == gen_C(4, (2, 3))
    assert pentagon_poly(4, "om", 0) == gen_C(4, (1, 2, 3, 4))
    ga0 = pentagon_poly(4, "Ga", 0)
    c123, c234 = gen_C(4, (1, 2, 3)), gen_C(4, (2, 3, 4))
    assert ga0 == Fraction(1, 2) * (c123 * c234 - c234 * c123)
    with pytest.raises(AlgebraError):
        pentagon_poly(3, "Om", 0)
    with pytest.raises(AlgebraError):
        pentagon_poly(4, "Ga", 5)


def test_gamma_sum_reduces_to_zero(rs4):
    total = NCPoly.zero(4)
    for i in range(5):
        total = total + pentagon_poly(4, "Ga", i)
    assert rs4.reduce(total).is_zero


def _oracle_decomposition_table():
    """Independent route: solve the linear system of every decomposition
    instance over the 15-dimensional span of subset generators."""
    subsets = [tuple(s) for r in range(1, 5)
               for s in itertools.combinations((1, 2, 3, 4), r)]
    pos = {s: k for k, s in enumerate(subsets)}
    contiguous = set(core.CONTIGUOUS[4])

    rows = []
    seen = set()
    for rid in enumerate_relations(4, "decomposition"):
        I, J, K = rid.indices
        row = [Fraction(0)] * 15
        row[pos[tuple(sorted(I + J + K))]] += 1
        for pair in (I + J, J + K, I + K):
            row[pos[tuple(sorted(pair))]] -= 1
        for single in (I, J, K):
            row[pos[tuple(sorted(single))]] += 1
        rows.append(row)

    # eliminate the non-contiguous coordinates (full reduced echelon form)
    order = [pos[s] for s in subsets if s not in contiguous]
    pivots = {}
    for row in rows:
        row = list(row)
        changed = True
        while changed:
            changed = False
            for col in order:
                if row[col] and col in pivots:
                    f = row[col]
                    row = [a - f * b for a, b in zip(row, pivots[col])]
                    changed = True
        for col in order:
            if row[col]:
                f = row[col]
                pivots[col] = [a / f for a in row]
                break
    for col in list(pivots):
        for other, prow in pivots.items():
            if other == col or not prow[col]:
                continue
            f = prow[col]
            pivots[other] = [a - f * b for a, b in zip(prow, pivots[col])]
    table = {}
    for col, row in pivots.items():
        expansion = {}
        for k, v in enumerate(row):
            if k == col or v == 0:
                continue
            expansion[subsets[k]] = -v
        table[subsets[col]] = expansion
    return table


def test_decompose_against_linear_system_oracle():
    oracle = _oracle_decomposition_table()
    assert len(oracle) == 5  # exactly the interval-free subsets
    for I, expansion in oracle.items():
        got = decompose_to_basis(4, I)
        want = sum((c * gen_C(4, s) for s, c in expansion.items()),
                   NCPoly.zero(4))
        assert got == want, f"decomposition of C{I} disagrees with the oracle"


def test_decompose_examples():
    C = lambda *s: gen_C(4, s)
    assert decompose_to_basis(4, (1, 3)) == \
        C(1, 2, 3) - C(1, 2) - C(2, 3) + C(1) + C(2) + C(3)
    assert decompose_to_basis(4, (1, 4)) == \
        C(1, 2, 3, 4) - C(1, 2, 3) - C(2, 3, 4) + C(1) + C(2, 3) + C(4)
    assert decompose_to_basis(4, (1, 2)) == C(1, 2)


def test_decompose_idempotent_and_consistent():
    for I in [tuple(s) for r in range(1, 5)
              for s in itertools.combinations((1, 2, 3, 4), r)]:
        d = decompose_to_basis(4, I)
        again = d.substitute(
            lambda g: decompose_to_basis(4, g.indices))
        assert again == d
    # substituting into every decomposition instance gives exactly zero
    for rid in enumerate_relations(4, "decomposition"):
        poly = relation(rid)
        flat = poly.substitute(lambda g: decompose_to_basis(4, g.indices))
        assert flat.is_zero


def test_relation_pdt_shape():
    poly = relation(RelationId("pdt", 4, (4, 1, 2, 3)))
    # P_14 D_423 + P_24 D_431 + P_34 D_412 + 2 P_4 D_123, canonicalized
    assert poly.coeff((Gen("P", (1, 4)), Gen("D", (2, 3, 4)))) == 1
    assert poly.coeff((Gen("P", (2, 4)), Gen("D", (1, 3, 4)))) == -1
    assert poly.coeff((Gen("P", (3, 4)), Gen("D", (1, 2, 4)))) == 1
    assert poly.coeff((Gen("P", (4,)), Gen("D", (1, 2, 3)))) == 2
    assert len(poly.terms) == 4


def test_relation_omega_commute_is_pentagon_letters():
    # the labels name subset polynomials: [Om_{i-1}, Om_{i+1}] at i = 0
    poly = relation(RelationId("omega_commute", 4, (0,)))
    assert poly == commutator(pentagon_poly(4, "Om", 4), pentagon_poly(4, "Om", 1))


def test_quad_singleton_vs_interior_form(rs4):
    # the subset quadratic relation at singletons and the shift-generator
    # interior relation cut the same ideal element
    quad = relation(RelationId("quad", 4, ((1,), (2,), (3,))))
    inner = relation(RelationId("inner_P", 4, (1, 2, 3)))
    assert rs4.reduce(quad - inner).is_zero


def test_d_cyclic_lemma(rs4):
    for rid in enumerate_relations(4, "d_cyclic"):
        assert rs4.reduce(relation(rid)).is_zero


def test_presentation_matches_quadratic_relation_term_by_term():
    rels = presentation_rank1(3)
    A, B = gen_C(3, (2, 3)), gen_C(3, (1, 2))
    # [A, D] - ({A,B} + A^2 - dA + a) must literally be the negated
    # quadratic-relation instance once the interval-free subset is removed
    quad = relation(RelationId("quad", 3, ((1,), (2,), (3,))))
    flat = (-quad).substitute(lambda g: decompose_to_basis(3, g.indices))
    rel2 = expand_to_C(rels[1]).substitute(
        lambda g: decompose_to_basis(3, g.indices))
    assert rel2 == flat


def test_casimir_rank1_symbolically_central(rs3):
    cas = casimir_rank1(3)
    for g in (gen_C(3, (1, 2)), gen_C(3, (2, 3)), d_poly(3, 1, 2, 3)):
        assert rs3.reduce(commutator(cas, g)).is_zero


def test_casimir_frak2_matches_rank1():
    assert expand_to_C(casimir_frak(2)) == expand_to_C(casimir_rank1(4))


def test_instance_counts():
    want = {
        "central": 75, "decomposition": 10, "quad": 60, "quadB": 60,
        "d_cyclic": 60, "ddef": 12, "inner_P": 12, "outer_P": 12, "dd": 12,
        "pdt": 4, "pd_pair": 6, "pd_flip": 12, "pd_exchange": 12,
        "pd_cycle": 12, "pd_sum": 4, "gamma_def": 5, "gamma_sum": 1,
        "omega_central": 60, "omega_commute": 5, "omega_gamma_commute": 5, "omega_inner": 5,
        "omega_outer": 5, "pres_rank1": 3,
    }
    for family, count in want.items():
        assert len(enumerate_relations(4, family)) == count, family
    assert len(enumerate_relations(3, "central")) == 18
    assert len(enumerate_relations(3, "decomposition")) == 1
    assert len(enumerate_relations(3, "quad")) == 6
    assert len(enumerate_relations(5, "dd_one_overlap")) == 30
    assert len(enumerate_relations(5, "dd_disjoint")) == 0
    assert len(enumerate_relations(6, "dd_disjoint")) == 10


def test_families_exist_only_at_their_ranks():
    for family in ("gamma_def", "gamma_sum", "omega_central", "omega_inner"):
        for rank in (3, 5, 6):
            assert enumerate_relations(rank, family) == [], (family, rank)
    for rank in (3, 4):
        assert enumerate_relations(rank, "dd_one_overlap") == []
    with pytest.raises(AlgebraError):
        enumerate_relations(4, "nonsense")
    with pytest.raises(AlgebraError):
        core.relation(core.RelationId("nonsense", 4, ()))


def _reference_commutator_relation(rank, a, b):
    """The family instance holding [a, b], found by inverting the five
    families' index patterns, for pair or half-commutator letters with
    ``a`` after ``b``; None when the two commute."""
    A, B = set(a.indices), set(b.indices)
    shared = A & B
    if a.kind == "P" and b.kind == "P":
        if len(shared) != 1:
            return None
        (s,) = shared
        (u,) = A - shared
        (v,) = B - shared
        return core._rel_ddef(rank, u, s, v)
    if a.kind == "D" and b.kind == "P":
        if len(shared) == 2:
            # the pair sits inside the triple
            j, k = sorted(shared)
            (i,) = A - shared
            return core._rel_inner(rank, i, j, k)
        if len(shared) == 1:
            (s,) = shared
            (i,) = B - shared
            k, l = sorted(A - shared)
            return core._rel_outer(rank, i, s, k, l)
        return None
    if a.kind == "D" and b.kind == "D":
        if len(shared) == 2:
            j, k = sorted(shared)
            (i,) = B - shared
            (l,) = A - shared
            return core._rel_dd(rank, i, j, k, l, "left")
        if len(shared) == 1:
            (x,) = shared
            i, j = sorted(B - shared)
            l, m = sorted(A - shared)
            return core._rel_dd_one_overlap(rank, i, j, x, l, m)
        return None  # disjoint half-commutators commute
    raise AssertionError(f"not a pair of core letters: {a}, {b}")


def _reference_commutator(rank, a, b):
    if a == b or any(g.kind == "P" and len(g.indices) == 1 for g in (a, b)):
        return NCPoly.zero(rank)  # singletons are central
    if b.sort_key() > a.sort_key():
        return -_reference_commutator(rank, b, a)
    rel = _reference_commutator_relation(rank, a, b)
    if rel is None:
        return NCPoly.zero(rank)
    return core._orient(rel, (a, b)) - NCPoly.from_word(rank, (b, a))


# the forward instance table picks, for every ordered pair of core letters,
# the instance the inverted index patterns pick, up to its orientation
@pytest.mark.parametrize("rank", [3, 4, 5, 6])
def test_catalog_commutator_matches_inverted_patterns(rank):
    letters = core_generators(rank)
    for a, b in itertools.product(letters, repeat=2):
        assert catalog_commutator(rank, a, b) == \
            _reference_commutator(rank, a, b), (a, b)


def test_catalog_commutator_is_the_bracket():
    P = lambda *i: Gen("P", i)
    assert catalog_commutator(4, P(2, 3), P(1, 2)) == \
        -2 * d_poly(4, 1, 2, 3)
    assert catalog_commutator(4, P(1, 2), P(2, 3)) == 2 * d_poly(4, 1, 2, 3)
    assert catalog_commutator(4, P(1, 2), P(3, 4)).is_zero
    assert catalog_commutator(4, P(1,), Gen("D", (2, 3, 4))).is_zero


@pytest.mark.parametrize("pair", [
    (Gen("C", (1, 2)), Gen("P", (2, 3))),
    (Gen("D", (1, 2, 3)), Gen("C", (3, 4))),
    (Gen("P", (1,)), Gen("C", (1, 2, 3, 4))),
])
def test_catalog_commutator_rejects_subset_letters(pair):
    with pytest.raises(AlgebraError):
        catalog_commutator(4, *pair)


# -- the integer rewrite into the contiguous basis ----------------------------

def _assert_rewrite_is_the_substitution(p):
    got = core.to_contiguous(p)
    want = fraction_substitution(
        p.terms, lambda g: core._contiguous_image(p.rank, g).terms)
    # the term order too: the representation composes words in this order
    assert list(got.terms.items()) == list(want.items()), p


def test_to_contiguous_is_the_letter_substitution_on_the_catalog():
    polys = [relation(rid) for rank in (3, 4) for family in core.FAMILIES
             for rid in enumerate_relations(rank, family)]
    polys += [casimir_rank1(3), casimir_rank1(4)]
    polys += [casimir_frak(i) for i in range(5)]
    # the rank-4 Jacobi defects a representation run samples
    triples = list(itertools.combinations(core_generators(4), 3))
    sample = triples[::len(triples) // 8]
    assert len(sample) == 9
    polys += [substituted_defect(4, *t) for t in sample]
    for p in polys:
        _assert_rewrite_is_the_substitution(p)


_ODD_COEFFS = [Fraction(1, 3), Fraction(-5, 7), Fraction(7, 2),
               Fraction(-1), Fraction(4)]


@given(st.one_of(*(poly_strategy(rank=rank, max_words=4, coeffs=_ODD_COEFFS)
                   for rank in (3, 4))))
def test_to_contiguous_is_the_letter_substitution_on_any_polynomial(p):
    _assert_rewrite_is_the_substitution(p)
