"""Pentagon action, index relabeling, transport of expressions, closure."""

import pytest
from hypothesis import given, settings

from conftest import poly_strategy
from racah import core, symmetry as sym
from racah.core import casimir_frak, d_poly, enumerate_relations, gen_C, relation
from racah.freealg import AlgebraError, Gen, NCPoly
from racah.verifier import _SUITE_FAMILIES


def pent(kind, k):
    return NCPoly.from_word(4, (Gen(kind, (k % 5,)),))


def test_rotation_examples():
    r = sym.DihedralElement.rotation(1)
    assert sym.act_dihedral(r, pent("Om", 0)) == pent("Om", 1)
    assert sym.act_dihedral(r, gen_C(4, (2, 3))) == gen_C(4, (3, 4))
    r5 = sym.DihedralElement.rotation(5)
    assert r5 == sym.DihedralElement.identity()
    for I in ((1, 3), (2, 4), (1, 2, 4)):
        assert sym.act_dihedral(r5, gen_C(4, I)) == gen_C(4, I)


def test_reflection_gamma_sign():
    refl = sym.DihedralElement.reflection(0)
    assert sym.act_dihedral(refl, pent("Ga", 0)) == -pent("Ga", 0)
    assert sym.act_dihedral(refl, pent("Ga", 1)) == -pent("Ga", 4)
    assert sym.act_dihedral(refl, pent("om", 2)) == pent("om", 3)


def test_dihedral_group_laws_exhaustive():
    els = sym.DihedralElement.all_elements()
    assert len(els) == 10
    for g in els:
        for h in els:
            gh = g.compose(h)
            assert all(gh.apply(i) == g.apply(h.apply(i)) for i in range(5))
            assert gh.gamma_sign == g.gamma_sign * h.gamma_sign


def test_axis_roundtrip():
    for a in range(5):
        refl = sym.DihedralElement.reflection(a)
        assert refl.axis == a
        assert refl.apply(a) == a


def test_permutation_examples():
    s12 = sym.IndexPermutation.transposition(4, 1, 2)
    assert sym.act_permutation(s12, gen_C(4, (1, 2))) == gen_C(4, (1, 2))
    assert sym.act_permutation(s12, gen_C(4, (2, 3))) == gen_C(4, (1, 3))
    assert sym.act_permutation(s12, d_poly(4, 1, 2, 3)) == -d_poly(4, 1, 2, 3)
    ident = sym.IndexPermutation.identity(4)
    p = gen_C(4, (1, 3)) * d_poly(4, 2, 3, 4)
    assert sym.act_permutation(ident, p) == p


def test_permutation_rejects_pentagon_labels():
    s = sym.IndexPermutation.transposition(4, 1, 2)
    with pytest.raises(AlgebraError):
        sym.act_permutation(s, pent("Om", 0))


_PENTAGON_LETTERS = [Gen(kind, (k,)) for kind in ("Om", "om", "Ga")
                     for k in range(5)]
_SUBSET_LETTERS = [Gen("C", s) for s in
                   ((1,), (3,), (1, 2), (1, 4), (2, 3), (1, 2, 4), (1, 2, 3, 4))]


@given(poly_strategy(max_words=2, max_len=2, alphabet=_PENTAGON_LETTERS),
       poly_strategy(max_words=2, max_len=2, alphabet=_PENTAGON_LETTERS))
@settings(max_examples=15)
def test_dihedral_is_algebra_homomorphism_pentagon(a, b):
    g = sym.DihedralElement(True, 3)
    assert sym.act_dihedral(g, a * b) == \
        sym.act_dihedral(g, a) * sym.act_dihedral(g, b)
    assert sym.act_dihedral(g, a + b) == \
        sym.act_dihedral(g, a) + sym.act_dihedral(g, b)


@given(poly_strategy(max_words=2, max_len=2, alphabet=_SUBSET_LETTERS),
       poly_strategy(max_words=2, max_len=2, alphabet=_SUBSET_LETTERS))
@settings(max_examples=15)
def test_dihedral_is_algebra_homomorphism_subsets(a, b):
    g = sym.DihedralElement(False, 2)
    assert sym.act_dihedral(g, a * b) == \
        sym.act_dihedral(g, a) * sym.act_dihedral(g, b)


@given(poly_strategy(max_words=2, max_len=2,
                     alphabet=[Gen("C", s) for s in
                               ((1,), (2,), (3,), (4,), (1, 2), (1, 3), (2, 3),
                                (3, 4), (1, 2, 3), (2, 3, 4), (1, 2, 3, 4))]
                     + [Gen("P", (1, 2)), Gen("D", (1, 2, 3))]),
       poly_strategy(max_words=2, max_len=2,
                     alphabet=[Gen("C", s) for s in ((1, 2), (2, 4), (1, 2, 4))]))
@settings(max_examples=15)
def test_permutation_is_algebra_homomorphism(a, b):
    s = sym.IndexPermutation((2, 3, 4, 1))
    assert sym.act_permutation(s, a * b) == \
        sym.act_permutation(s, a) * sym.act_permutation(s, b)


def test_dihedral_group_action_on_polys():
    g = sym.DihedralElement.rotation(2)
    h = sym.DihedralElement.reflection(1)
    p = gen_C(4, (1, 4)) + 2 * pent("Ga", 3)
    assert sym.act_dihedral(g, sym.act_dihedral(h, p)) == \
        sym.act_dihedral(g.compose(h), p)


def test_subset_map_bijective():
    for g in sym.DihedralElement.all_elements():
        table = sym.dihedral_subset_map(g)
        assert len(set(table.values())) == 15


def test_signed_map_consistent_on_gammas(rs4):
    # the label-level action agrees with transport of the commutator values
    g = sym.DihedralElement.reflection(2)
    table = sym.signed_generator_map(g)
    for k in range(5):
        img, sign = table[Gen("Ga", (k,))]
        lhs = sym.act_dihedral(g, core.expand_to_C(pent("Ga", k)))
        rhs = sign * core.expand_to_C(NCPoly.from_word(4, (img,)))
        assert rs4.reduce(core.expand_to_core(lhs - rhs)).is_zero


def test_casimir_transport():
    r = sym.DihedralElement.rotation(1)
    for i in range(5):
        assert sym.act_dihedral(r, casimir_frak(i)) == casimir_frak((i + 1) % 5)


def test_group_orders():
    assert sym.dihedral_group_order() == 10
    assert sym.permutation_group_order() == 24
    assert sym.closure_order() == 120


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
        img = sym.act_dihedral(r, relation(core.RelationId("omega_inner", 4, (i,))))
        assert img == relation(core.RelationId("omega_inner", 4, ((i + 1) % 5,)))


def test_invariance_reports():
    suite = pentagon_suite()
    records = {group: sym.verify_relation_invariance(group, suite)
               for group in ("D5", "P4")}
    for recs in records.values():
        assert recs and all(r.ok for r in recs)
    # reflections land inside the suite only up to reordering, which the
    # reduce fallback certifies; rotations match syntactically
    assert any(r.outcome.startswith("matched") for r in records["D5"])
    # P4 images are matched against the expanded sources they come from
    assert any(r.outcome.startswith("matched") for r in records["P4"])


def test_quad_family_is_permutation_equivariant():
    sigma = sym.IndexPermutation((2, 1, 4, 3))
    for rid in enumerate_relations(4, "quad")[:12]:
        img = sym.act_permutation(sigma, relation(rid))
        I, J, K = (tuple(sorted(sigma.apply(i) for i in part))
                   for part in rid.indices)
        assert img == relation(core.RelationId("quad", 4, (I, J, K)))
