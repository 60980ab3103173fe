"""Pentagon action, index relabeling, transport of expressions, closure."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import poly_strategy
from racah import core, symmetry as sym
from racah.core import (OMEGA_SETS, SMALL_OMEGA_SETS, casimir_frak, d_poly,
                        enumerate_relations, expand_to_C, gen_C, pentagon_poly,
                        relation)
from racah.freealg import AlgebraError, Gen, commutator
from racah.verifier import _SUITE_FAMILIES

_spec = importlib.util.spec_from_file_location(
    "symmetry_tables",
    Path(__file__).parents[1] / "scripts" / "symmetry_tables.py")
symmetry_tables = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(symmetry_tables)


def pent(kind, k):
    return pentagon_poly(4, kind, k)


def test_rotation_examples():
    r = sym.DihedralElement.rotation(1)
    assert sym.act(r, pent("Om", 0)) == pent("Om", 1)
    assert sym.act(r, gen_C(4, (2, 3))) == gen_C(4, (3, 4))
    r5 = sym.DihedralElement.rotation(5)
    assert r5 == sym.DihedralElement(False, 0)
    for I in ((1, 3), (2, 4), (1, 2, 4)):
        assert sym.act(r5, gen_C(4, I)) == gen_C(4, I)


def test_reflection_gamma_sign():
    refl = sym.DihedralElement.reflection(0)
    assert sym.act(refl, pent("Ga", 0)) == -pent("Ga", 0)
    assert sym.act(refl, pent("Ga", 1)) == -pent("Ga", 4)
    assert sym.act(refl, pent("om", 2)) == pent("om", 3)


def test_gamma_signs_come_from_the_commutators():
    # no sign table: substituting subset letters gives Ga_k -> +-Ga_{g(k)},
    # minus exactly for the reflections
    for g in sym.DihedralElement.all_elements():
        sign = -1 if g.reflected else 1
        for k in range(5):
            assert sym.act(g, pent("Ga", k)) == sign * pent("Ga", g.apply(k))


def test_axis_roundtrip():
    for a in range(5):
        refl = sym.DihedralElement.reflection(a)
        assert refl.axis == a
        assert refl.apply(a) == a


def test_permutation_examples(rs4):
    s12 = sym.IndexPermutation.transposition(4, 1, 2)
    assert sym.act(s12, gen_C(4, (1, 2))) == gen_C(4, (1, 2))
    assert sym.act(s12, gen_C(4, (2, 3))) == gen_C(4, (1, 3))
    # D123 = 1/2[C12, C23] goes to 1/2[C12, C13] = D213 = -D123: the
    # parity sign holds in the algebra, by the cyclic relation
    d123 = expand_to_C(d_poly(4, 1, 2, 3))
    assert sym.act(s12, d123) == \
        Fraction(1, 2) * commutator(gen_C(4, (1, 2)), gen_C(4, (1, 3)))
    assert rs4.reduce(sym.act(s12, d123) + d123).is_zero
    ident = sym.IndexPermutation((1, 2, 3, 4))
    p = gen_C(4, (1, 3)) * expand_to_C(d_poly(4, 2, 3, 4))
    assert sym.act(ident, p) == p


@pytest.mark.parametrize("g", [sym.IndexPermutation.transposition(4, 1, 2),
                               sym.DihedralElement.rotation(1)], ids=str)
def test_act_rejects_shift_and_half_letters(g):
    # P and D letters do not move as letters; expand_to_C them first
    for p in (d_poly(4, 1, 2, 3), core.gen_P(4, 1, 2), core.gen_P1(4, 3)):
        with pytest.raises(AlgebraError, match="expand_to_C"):
            sym.act(g, p)


def test_act_needs_four_indices():
    with pytest.raises(AlgebraError):
        sym.act(sym.IndexPermutation((2, 1, 3)), gen_C(4, (1, 2)))
    with pytest.raises(AlgebraError):
        sym.act(sym.DihedralElement.rotation(1), gen_C(3, (1, 2)))


_PENTAGON_LETTERS = [Gen("C", sets[k]) for sets in (OMEGA_SETS, SMALL_OMEGA_SETS)
                     for k in range(5)]
_SUBSET_LETTERS = [Gen("C", s) for s in
                   ((1,), (3,), (1, 2), (1, 4), (2, 3), (1, 2, 4), (1, 2, 3, 4))]


# the ten subset letters the pentagon labels Om and om name
@given(poly_strategy(max_words=2, max_len=2, alphabet=_PENTAGON_LETTERS),
       poly_strategy(max_words=2, max_len=2, alphabet=_PENTAGON_LETTERS))
@settings(max_examples=15)
def test_dihedral_is_algebra_homomorphism_pentagon(a, b):
    g = sym.DihedralElement(True, 3)
    assert sym.act(g, a * b) == sym.act(g, a) * sym.act(g, b)
    assert sym.act(g, a + b) == sym.act(g, a) + sym.act(g, b)


@given(poly_strategy(max_words=2, max_len=2, alphabet=_SUBSET_LETTERS),
       poly_strategy(max_words=2, max_len=2, alphabet=_SUBSET_LETTERS))
@settings(max_examples=15)
def test_dihedral_is_algebra_homomorphism_subsets(a, b):
    g = sym.DihedralElement(False, 2)
    assert sym.act(g, a * b) == sym.act(g, a) * sym.act(g, b)


@given(poly_strategy(max_words=2, max_len=2,
                     alphabet=[Gen("C", s) for s in
                               ((1,), (2,), (3,), (4,), (1, 2), (1, 3), (2, 3),
                                (3, 4), (1, 2, 3), (2, 3, 4), (1, 2, 3, 4))]),
       poly_strategy(max_words=2, max_len=2,
                     alphabet=[Gen("C", s) for s in ((1, 2), (2, 4), (1, 2, 4))]))
@settings(max_examples=15)
def test_permutation_is_algebra_homomorphism(a, b):
    s = sym.IndexPermutation((2, 3, 4, 1))
    assert sym.act(s, a * b) == sym.act(s, a) * sym.act(s, b)


def test_dihedral_group_action_on_polys():
    g = sym.DihedralElement.rotation(2)
    h = sym.DihedralElement.reflection(1)
    gh = sym.DihedralElement(True, 4)  # i -> 2 - i, then + 2
    assert all(gh.apply(i) == g.apply(h.apply(i)) for i in range(5))
    p = gen_C(4, (1, 4)) + 2 * pent("Ga", 3)
    assert sym.act(g, sym.act(h, p)) == sym.act(gh, p)


def test_subset_map_bijective():
    for g in sym.DihedralElement.all_elements():
        table = sym.dihedral_subset_map(g)
        assert len(set(table.values())) == 15


def test_casimir_transport():
    r = sym.DihedralElement.rotation(1)
    for i in range(5):
        assert sym.act(r, casimir_frak(i)) == casimir_frak((i + 1) % 5)


def test_group_orders():
    assert sym.dihedral_group_order() == 10
    assert sym.permutation_group_order() == 24
    assert sym.closure_order() == 120


def test_symmetry_tables_script(capsys):
    symmetry_tables.main()
    lines = capsys.readouterr().out.splitlines()
    assert "group orders: pentagon 10, relabeling 24, combined 120" in lines
    assert "  d5   ( 5): C12, C123, C23, C234, C34" in lines


def test_orbits():
    assert sym.orbit(Gen("C", (1, 2)), "d5") == \
        ["C12", "C123", "C23", "C234", "C34"]
    assert len(sym.orbit(Gen("C", (1, 2)), "p4")) == 6
    assert len(sym.orbit(Gen("C", (1, 2)), "both")) == 10
    assert len(sym.orbit(Gen("C", (1,)), "both")) == 5


def pentagon_suite():
    out = []
    for family in _SUITE_FAMILIES["pentagon"]:
        for rid in enumerate_relations(4, family):
            out.append((f"{family}[{rid.payload()}]", relation(rid)))
    return out


def test_rotation_maps_inner_to_next_inner():
    r = sym.DihedralElement.rotation(1)
    for i in range(5):
        img = sym.act(r, relation(core.RelationId("omega_inner", 4, (i,))))
        assert img == relation(core.RelationId("omega_inner", 4, ((i + 1) % 5,)))


def test_invariance_reports():
    suite = pentagon_suite()
    records = {group: sym.verify_relation_invariance(group, suite)
               for group in ("D5", "P4")}
    for recs in records.values():
        assert recs and all(r.ok for r in recs)
    # both groups have images that match a relation syntactically and images
    # that land inside the suite only up to reordering, which the reduce
    # fallback certifies
    for recs in records.values():
        assert {r.outcome.split()[0] for r in recs} == {"matched",
                                                        "reduces-to-zero"}


def test_quad_family_is_permutation_equivariant():
    sigma = sym.IndexPermutation((2, 1, 4, 3))
    for rid in enumerate_relations(4, "quad")[:12]:
        img = sym.act(sigma, relation(rid))
        I, J, K = (tuple(sorted(sigma.apply(i) for i in part))
                   for part in rid.indices)
        assert img == relation(core.RelationId("quad", 4, (I, J, K)))
