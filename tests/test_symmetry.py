"""Pentagon action, index relabeling, transport of expressions, closure."""

import hashlib
import importlib.util
import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import poly_strategy
from racah import core, symmetry as sym
from racah.core import (FAMILIES, casimir_frak, d_poly, enumerate_relations,
                        expand_to_C, gen_C, pentagon_poly, relation)
from racah.freealg import AlgebraError, Gen, NCPoly, commutator
from racah.verifier import _SUITE_FAMILIES

_spec = importlib.util.spec_from_file_location(
    "symmetry_tables",
    Path(__file__).parents[1] / "scripts" / "symmetry_tables.py")
symmetry_tables = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(symmetry_tables)


def pent(kind, k):
    return pentagon_poly(4, kind, k)


def vertex(g, k):
    """The pentagon label (0..4) that ``g`` sends label ``k`` to: label k
    is the point k of {1..5}, with 5 for 0."""
    return g.apply(k or 5) % 5


ROTATIONS, REFLECTIONS = sym.PENTAGON[:5], sym.PENTAGON[5:]

# the subsets the labels Om_k and om_k name, as a table written out before
# the labels were read off the pentagon's edges and vertices
OMEGA_SETS = {0: (2, 3), 1: (3, 4), 2: (1, 2, 3), 3: (2, 3, 4), 4: (1, 2)}
SMALL_OMEGA_SETS = {0: (1, 2, 3, 4), 1: (1,), 2: (2,), 3: (3,), 4: (4,)}


def test_pentagon_labels_match_the_written_table():
    for k in range(5):
        assert pent("Om", k) == gen_C(4, OMEGA_SETS[k])
        assert pent("om", k) == gen_C(4, SMALL_OMEGA_SETS[k])


def test_pentagon_elements():
    assert [str(g) for g in sym.PENTAGON] == [
        "12345", "23451", "34512", "45123", "51234",
        "43215", "54321", "15432", "21543", "32154"]


def test_rotation_examples():
    r = sym.PENTAGON[1]
    assert sym.act(r, pent("Om", 0)) == pent("Om", 1)
    assert sym.act(r, gen_C(4, (2, 3))) == gen_C(4, (3, 4))
    # five turns are no turn at all
    for I in ((1, 3), (2, 4), (1, 2, 4)):
        p = gen_C(4, I)
        for _ in range(5):
            p = sym.act(r, p)
        assert p == gen_C(4, I) == sym.act(sym.PENTAGON[0], p)


def test_reflection_gamma_sign():
    refl = sym.PENTAGON[5]
    assert sym.act(refl, pent("Ga", 0)) == -pent("Ga", 0)
    assert sym.act(refl, pent("Ga", 1)) == -pent("Ga", 4)
    assert sym.act(refl, pent("om", 2)) == pent("om", 3)


def test_gamma_signs_come_from_the_commutators():
    # no sign table: substituting subset letters gives Ga_k -> +-Ga_{g(k)},
    # minus exactly for the reflections
    for g in sym.PENTAGON:
        sign = -1 if g in REFLECTIONS else 1
        for k in range(5):
            assert sym.act(g, pent("Ga", k)) == sign * pent("Ga", vertex(g, k))


def test_labels_move_with_their_vertex():
    for g in sym.PENTAGON:
        for k in range(5):
            assert sym.act(g, pent("om", k)) == pent("om", vertex(g, k))
            assert sym.act(g, pent("Om", k)) == pent("Om", vertex(g, k))


def test_reflection_fixes_one_vertex():
    fixed = [[i for i in range(1, 6) if g.apply(i) == i] for g in REFLECTIONS]
    assert all(len(points) == 1 for points in fixed)
    assert sorted(points[0] for points in fixed) == [1, 2, 3, 4, 5]
    assert all(g.apply(i) != i for g in ROTATIONS[1:] for i in range(1, 6))


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


@pytest.mark.parametrize("g", [sym.PENTAGON[1]], ids=["rot1"])
def test_act_rejects_shift_and_half_letters(g):
    # a permutation of {1..5} moves subset letters only at 4 indices: P and
    # D letters are no single subset word, so expand_to_C them first
    for p in (d_poly(4, 1, 2, 3), core.gen_P(4, 1, 2), core.gen_P1(4, 3)):
        with pytest.raises(AlgebraError, match="expand_to_C"):
            sym.act(g, p)


def test_relabeling_moves_shift_and_half_letters():
    s12 = sym.IndexPermutation.transposition(4, 1, 2)
    assert sym.act(s12, core.gen_P(4, 1, 3)) == core.gen_P(4, 2, 3)
    assert sym.act(s12, core.gen_P1(4, 1)) == core.gen_P1(4, 2)
    assert sym.act(s12, core.gen_P1(4, 3)) == core.gen_P1(4, 3)
    # D_ijk -> D_σ(i)σ(j)σ(k), which d_poly signs by its parity
    assert sym.act(s12, d_poly(4, 1, 2, 3)) == d_poly(4, 2, 1, 3) \
        == -d_poly(4, 1, 2, 3)
    assert sym.act(s12, d_poly(4, 1, 3, 4)) == d_poly(4, 2, 3, 4)
    assert sym.act(s12, d_poly(4, 1, 2, 3) * d_poly(4, 1, 2, 4)) == \
        d_poly(4, 1, 2, 3) * d_poly(4, 1, 2, 4)
    cycle = sym.IndexPermutation((3, 1, 5, 2, 4))
    for i, j, k in ((1, 2, 3), (2, 4, 5), (1, 3, 5)):
        assert sym.act(cycle, d_poly(5, i, j, k)) == \
            d_poly(5, cycle.apply(i), cycle.apply(j), cycle.apply(k))


def test_act_needs_four_indices():
    # a permutation of {1..n} acts at n indices, as a relabeling, and at
    # n-1, on subset letters up to complement; at any other rank it raises
    with pytest.raises(AlgebraError, match="acts at 3 or 2 indices, not 4"):
        sym.act(sym.IndexPermutation((2, 1, 3)), gen_C(4, (1, 2)))
    with pytest.raises(AlgebraError, match="acts at 5 or 4 indices, not 3"):
        sym.act(sym.PENTAGON[1], gen_C(3, (1, 2)))
    assert sym.act(sym.IndexPermutation((2, 1, 3)), gen_C(3, (1, 3))) == \
        gen_C(3, (2, 3))


def test_swap_with_the_extra_point_by_hand():
    # tau = (3 4) at 3 indices: {3} goes to {4}, read as its complement
    tau = sym.IndexPermutation.transposition(4, 3, 4)
    assert sym.act(tau, gen_C(3, (3,))) == gen_C(3, (1, 2, 3))
    assert sym.act(tau, gen_C(3, (1, 2, 3))) == gen_C(3, (3,))
    assert sym.act(tau, gen_C(3, (1, 2))) == gen_C(3, (1, 2))
    assert sym.act(tau, gen_C(3, (1, 3))) == gen_C(3, (2, 3))


@pytest.mark.parametrize("rank", [3, 4])
def test_swap_with_the_extra_point_keeps_every_relation(rank):
    # tau = (n n+1) on n+1 points, acting at n indices, maps every catalog
    # relation into the ideal: the subset letters up to complement carry
    # the symmetry of n+1 points, not only of n
    rs = core.rewrite_system(rank)
    tau = sym.IndexPermutation.transposition(rank + 1, rank, rank + 1)
    rids = [rid for family in FAMILIES
            for rid in enumerate_relations(rank, family)]
    assert len(rids) == {3: 46, 4: 452}[rank]
    for rid in rids:
        assert rs.reduce(sym.act(tau, expand_to_C(relation(rid)))).is_zero, rid


@pytest.mark.parametrize("rank", [4, 5])
def test_transpositions_map_rule_sources_into_the_ideal(rank):
    # the soundness precondition of one reduction per relabeling orbit:
    # each adjacent transposition maps every relation a swap or
    # elimination rule is solved from into the ideal
    rs = core.rewrite_system(rank)
    sources = (list(core._commutator_instances(rank).values())
               + enumerate_relations(rank, "pd_sum"))
    for a in range(1, rank):
        sigma = sym.IndexPermutation.transposition(rank, a, a + 1)
        for rid in sources:
            assert rs.reduce(sym.act(sigma, relation(rid))).is_zero, (sigma, rid)


def test_relabeling_letters_agree_with_their_subset_words(rs4):
    # the old route moved P and D through their expansion into C letters;
    # moving the letter itself must land on the same normal form
    for images in itertools.permutations(range(1, 5)):
        g = sym.IndexPermutation(images)
        for x in core.core_generators(4):
            p = NCPoly.from_word(4, (x,))
            assert rs4.reduce(sym.act(g, p)) == \
                rs4.reduce(sym.act(g, expand_to_C(p))), (g, x)


_PENTAGON_LETTERS = [Gen("C", sets[k]) for sets in (OMEGA_SETS, SMALL_OMEGA_SETS)
                     for k in range(5)]
_SUBSET_LETTERS = [Gen("C", s) for s in
                   ((1,), (3,), (1, 2), (1, 4), (2, 3), (1, 2, 4), (1, 2, 3, 4))]


# the ten subset letters the pentagon labels Om and om name
@given(poly_strategy(max_words=2, max_len=2, alphabet=_PENTAGON_LETTERS),
       poly_strategy(max_words=2, max_len=2, alphabet=_PENTAGON_LETTERS))
@settings(max_examples=15)
def test_dihedral_is_algebra_homomorphism_pentagon(a, b):
    g = sym.PENTAGON[8]  # i -> 3 - i
    assert sym.act(g, a * b) == sym.act(g, a) * sym.act(g, b)
    assert sym.act(g, a + b) == sym.act(g, a) + sym.act(g, b)


@given(poly_strategy(max_words=2, max_len=2, alphabet=_SUBSET_LETTERS),
       poly_strategy(max_words=2, max_len=2, alphabet=_SUBSET_LETTERS))
@settings(max_examples=15)
def test_dihedral_is_algebra_homomorphism_subsets(a, b):
    g = sym.PENTAGON[2]  # i -> i + 2
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
    g = sym.PENTAGON[2]   # i -> i + 2
    h = sym.PENTAGON[7]   # i -> 2 - i
    gh = sym.PENTAGON[9]  # i -> 2 - i, then + 2
    assert all(gh.apply(i) == g.apply(h.apply(i)) for i in range(1, 6))
    p = gen_C(4, (1, 4)) + 2 * pent("Ga", 3)
    assert sym.act(g, sym.act(h, p)) == sym.act(gh, p)


def test_letter_tables_bijective():
    # every permutation of {1..5} permutes the 15 subset letters at 4
    # indices, no two alike; one that fixes 5 moves them as the
    # relabeling of {1..4} does
    subset_letters = [Gen("C", I) for I in core.subsets(4)]
    tables = set()
    for g in map(sym.IndexPermutation, itertools.permutations(range(1, 6))):
        images, flips = g.letter_map(4)
        assert not flips
        assert sorted(images, key=str) == sorted(subset_letters, key=str)
        assert len(set(images.values())) == 15
        tables.add(tuple(images[x] for x in subset_letters))
        if g.apply(5) == 5:
            relabeling = sym.IndexPermutation(g.images[:4]).letter_map(4)[0]
            assert all(images[x] == relabeling[x] for x in subset_letters)
    assert len(tables) == 120


# each pentagon element's image of C1 C2 C3 C4 C12 C13 C14 C23 C24 C34 C123
# C124 C134 C234 C1234, as the lookup through the basis decomposition gave
# them before the pentagon became permutations of five points
PENTAGON_TABLES = {
    "12345": "1 2 3 4 12 13 14 23 24 34 123 124 134 234 1234",
    "23451": "2 3 4 1234 23 24 134 34 124 123 234 14 13 12 1",
    "34512": "3 4 1234 1 34 124 13 123 14 234 12 134 24 23 2",
    "45123": "4 1234 1 2 123 14 24 234 134 12 23 13 124 34 3",
    "51234": "1234 1 2 3 234 134 124 12 13 23 34 24 14 123 4",
    "43215": "4 3 2 1 34 24 14 23 13 12 234 134 124 123 1234",
    "54321": "1234 4 3 2 123 124 134 34 24 23 12 13 14 234 1",
    "15432": "1 1234 4 3 234 14 13 123 124 34 23 24 134 12 2",
    "21543": "2 1 1234 4 12 134 24 234 14 123 34 124 13 23 3",
    "32154": "3 2 1 1234 23 13 124 12 134 234 123 14 24 34 4",
}


@pytest.mark.parametrize("g", sym.PENTAGON, ids=str)
def test_pentagon_letter_tables(g):
    images = g.letter_map(4)[0]
    got = " ".join("".join(map(str, images[Gen("C", I)].indices))
                   for I in core.subsets(4))
    assert got == PENTAGON_TABLES[str(g)]


def test_casimir_transport():
    r = sym.PENTAGON[1]
    for i in range(5):
        assert sym.act(r, casimir_frak(i)) == casimir_frak((i + 1) % 5)


def test_group_orders():
    assert sym.closure_order("d5") == 10
    assert sym.closure_order("p4") == 24
    assert sym.closure_order("both") == 120
    with pytest.raises(AlgebraError, match="unknown group"):
        sym.closure_order("D5")


def test_group_elements():
    # every group is a set of permutations of {1..5}, identity first
    everything = set(map(sym.IndexPermutation,
                         itertools.permutations(range(1, 6))))
    groups = {name: sym.group_elements(name) for name in ("d5", "p4", "both")}
    for elements in groups.values():
        assert str(elements[0]) == "12345"
        assert len(set(elements)) == len(elements)
    assert set(groups["d5"]) == set(sym.PENTAGON)
    assert set(groups["p4"]) == {g for g in everything if g.apply(5) == 5}
    assert len(groups["p4"]) == 24
    assert set(groups["both"]) == everything
    with pytest.raises(AlgebraError, match="unknown group"):
        sym.group_elements("S5")


def test_images_must_be_a_tuple():
    # a list would pass the permutation check and then fail to hash in
    # the cached letter_map
    with pytest.raises(AlgebraError, match="tuple"):
        sym.IndexPermutation([2, 1, 3])
    with pytest.raises(AlgebraError, match="permutation of 1..n"):
        sym.IndexPermutation((2, 2, 3))


def test_symmetry_tables_script(capsys):
    symmetry_tables.main()
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert "group orders: pentagon 10, relabeling 24, combined 120" in lines
    assert "  d5   ( 5): C12, C123, C23, C234, C34" in lines
    # the whole printout, pinned before the pentagon became permutations
    # of five points
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "6430db81849f82a6b5cc714e3d2c08daf5a674a97339263be13dabb3ebe36451"


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
    r = sym.PENTAGON[1]
    for i in range(5):
        img = sym.act(r, relation(core.RelationId("omega_inner", 4, (i,))))
        assert img == relation(core.RelationId("omega_inner", 4, ((i + 1) % 5,)))


def test_invariance_reports():
    suite = pentagon_suite()
    records = {group: sym.verify_relation_invariance(group, suite)
               for group in ("d5", "p4")}
    for recs in records.values():
        assert recs and all(r.ok for r in recs)
    # both groups have images that match a relation syntactically and images
    # that land inside the suite only up to reordering, which the reduce
    # fallback certifies
    for recs in records.values():
        assert {r.outcome.split()[0] for r in recs} == {"matched",
                                                        "reduces-to-zero"}


def test_quad_family_is_permutation_equivariant():
    for sigma in (sym.IndexPermutation((2, 1, 4, 3)),
                  sym.IndexPermutation((3, 1, 5, 2, 4))):
        rank = len(sigma.images)
        for rid in enumerate_relations(rank, "quad")[:12]:
            img = sym.act(sigma, relation(rid))
            I, J, K = (tuple(sorted(sigma.apply(i) for i in part))
                       for part in rid.indices)
            assert img == relation(core.RelationId("quad", rank, (I, J, K)))
