"""Rewrite-engine contracts: worked reductions, idempotence, termination
accounting, and soundness of every compiled rule against the operators."""

import importlib.util
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import poly_strategy
from racah import core
from racah.core import build_rewrite_system, d_poly, gen_C, relation, RelationId
from racah.freealg import (NCPoly, RankMismatchError, RewriteSystem,
                           ScheduleError, UnknownGeneratorError, Gen)

_spec = importlib.util.spec_from_file_location(
    "rule_digest", Path(__file__).parents[1] / "scripts" / "rule_digest.py")
_rule_digest_script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_rule_digest_script)
rule_digest = _rule_digest_script.rule_digest

# scripts/rule_digest.py digests of the compiled rule lists, recorded when
# every saturation round still reduced all candidates on a fresh system
# (ranks 3-6) and when the compile began to replay the recorded schedule
# (ranks 7-9, equal to the search's digests then)
GOLDEN_RULE_DIGESTS = {
    3: "3d0e4967f79cec083729c01a97098377d118b7155565694351c65fdebbd3541c",
    4: "0cf30111edc50ae90c4ee8f7b484c40ff8e030d58e820c2e4231673aa635f5c8",
    5: "eabb103c4dcb6f7e1033269954e90dd67870d8f6f0d7ad0cb3f2234170ead8b6",
    6: "890d055fc1f4a86ba908988d44917c29aa1a4497bb527c846b70bc0d501ff165",
    7: "1d33bf6c98cfb224d46be720eea7b36b03823fabf6cd129860472ac390254861",
    8: "66f69f07b588924795810cb1f693727f9d10e6e975c200d0bad524b956482997",
    9: "404f8f3c2b6f372af3a1fbc4561f41539cafde3931a2ec04a0067ceceb2555be",
}


def searched_system(rank: int) -> tuple[RewriteSystem, list]:
    """The unsaturated system saturated by the schedule-free search, and
    the schedule that search found."""
    rs = core.base_rewrite_system(rank)
    return rs, rs.saturate(*core.saturation_seeds(rank))


def test_reduce_zero(rs3):
    assert rs3.reduce(NCPoly.zero(3)).is_zero


def test_reduce_halfcommutator_definition(rs3):
    # C23*C12 and C12*C23 - 2*D123 agree in the quotient
    lhs = gen_C(3, (2, 3)) * gen_C(3, (1, 2))
    rhs = gen_C(3, (1, 2)) * gen_C(3, (2, 3)) - 2 * d_poly(3, 1, 2, 3)
    assert rs3.reduce(lhs) == rs3.reduce(rhs)
    assert rs3.reduce(lhs - rhs).is_zero


def test_reduce_pd_pair_instance(rs4):
    poly = relation(RelationId("pd_pair", 4, (1, 2, 3, 4)))
    assert rs4.reduce(poly).is_zero


def test_reduce_is_linear(rs4):
    a = gen_C(4, (1, 3)) * gen_C(4, (2, 4))
    b = d_poly(4, 1, 2, 4) * gen_C(4, (1, 2))
    assert rs4.reduce(a + b) == rs4.reduce(a) + rs4.reduce(b)


@given(poly_strategy(max_words=3, max_len=3))
@settings(max_examples=20)
def test_reduce_idempotent(rs4, p):
    once = rs4.reduce(p)
    assert rs4.reduce(once) == once


def test_reduce_idempotent_on_relations(rs4):
    for family in ("quad", "dd", "pdt", "omega_outer"):
        for rid in core.enumerate_relations(4, family)[:4]:
            nf = rs4.reduce(relation(rid))
            assert rs4.reduce(nf) == nf


def test_unknown_symbol_rejected(rs3):
    pentagon = NCPoly.from_word(3, (Gen("Om", (0,)),))
    with pytest.raises(UnknownGeneratorError):
        rs3.reduce(pentagon)


def test_rank_mismatch_rejected(rs4):
    with pytest.raises(RankMismatchError):
        rs4.reduce(gen_C(3, (1, 2)))


def test_step_bound_and_counter():
    rs = build_rewrite_system(3)  # fresh, so the counter starts at zero
    poly = gen_C(3, (2, 3)) * gen_C(3, (1, 2)) * gen_C(3, (1, 3))
    bound = rs.step_bound(poly)
    nf, steps = rs.reduce_with_stats(poly)
    assert 0 < steps <= bound
    # a second pass over the same input is free (memoized) and stable
    nf2, steps2 = rs.reduce_with_stats(poly)
    assert steps2 == 0 and nf2 == nf


def test_every_step_decreases_measure():
    # the engine asserts the drop at every application; a violation would
    # raise, so surviving a nontrivial reduction is the real check
    rs, _ = searched_system(4)
    assert rs.steps == 754
    poly = core.casimir_frak(0) * gen_C(4, (1, 4))
    _, steps = rs.reduce_with_stats(poly)
    # the counts pin the rewrite order: a different choice of redex takes
    # a different number of steps
    assert steps == 11092


def test_rule_shapes(rs4):
    assert all(len(r.lhs) in (1, 2) for r in rs4.rules)
    kinds = {r.name for r in rs4.rules}
    assert kinds == {"swap", "expand", "eliminate"}


def test_rule_soundness_in_representation(rs4, ctx_integer):
    """rhs - lhs of every compiled rule is the zero operator: the reduction
    relation is contained in the kernel of the evaluation homomorphism."""
    for rule in rs4.rules:
        diff = rule.rhs - NCPoly.from_word(4, rule.lhs)
        op = ctx_integer.eval(diff)
        assert op.is_zero_on_reliable(), f"unsound rule {rule.name}: {rule.lhs}"


def test_generator_order_is_total(rs4):
    gens = core.alphabet(4)
    orders = [rs4.generator_order(g) for g in gens]
    assert len(set(orders)) == len(gens)
    # within the core: pair shifts, then singleton shifts, then
    # half-commutators
    assert rs4.generator_order(Gen("P", (3, 4))) < rs4.generator_order(Gen("P", (1,)))
    assert rs4.generator_order(Gen("P", (4,))) < rs4.generator_order(Gen("D", (1, 2, 3)))


def test_degree_grading():
    assert Gen("P", (1, 2)).degree == 1
    assert Gen("P", (1,)).degree == 1
    assert Gen("D", (1, 2, 3)).degree == 2
    assert Gen("C", (1, 2, 3, 4)).degree == 1


# saturation steps of the search on an unsaturated system: the same rules
# found by a different redex order, or by reducing more or fewer candidates,
# change the count
GOLDEN_SATURATION_STEPS = {3: 0, 4: 754, 5: 6937, 6: 32767}
# steps of the compile, which replays the recorded schedule: it reduces each
# derived rule's seed product once, with the rules of the earlier rounds
GOLDEN_REPLAY_STEPS = {3: 0, 4: 133, 5: 1019, 6: 4344}


@pytest.mark.parametrize("rank", sorted(GOLDEN_SATURATION_STEPS))
def test_compiled_rules_match_golden_digest(rank):
    rs = build_rewrite_system(rank)
    assert rule_digest(rs.rules) == GOLDEN_RULE_DIGESTS[rank]
    assert rs.steps == GOLDEN_REPLAY_STEPS[rank]
    # the search finds the same rules, and the schedule the table holds
    searched, schedule = searched_system(rank)
    assert rule_digest(searched.rules) == GOLDEN_RULE_DIGESTS[rank]
    assert searched.steps == GOLDEN_SATURATION_STEPS[rank]
    assert schedule == core.saturation_schedule(rank)


@pytest.mark.parametrize("rank", [3, 4, 5, 6] + [
    pytest.param(rank, marks=pytest.mark.slow) for rank in (7, 8, 9)])
def test_replayed_system_is_a_fixpoint(rank):
    # the completeness check the compile leaves out: a search over the
    # replayed system adopts no rule, so the schedule missed none
    rs = build_rewrite_system(rank)
    assert rule_digest(rs.rules) == GOLDEN_RULE_DIGESTS[rank]
    rules = rs.rules
    assert rs.saturate(*core.saturation_seeds(rank)) == []
    assert rs.rules == rules


def test_fixpoint_check_sees_a_dropped_seed_product():
    schedule = core.saturation_schedule(5)
    _, lhs = schedule[-1].pop()
    rs = core.base_rewrite_system(5)
    seeds = core.saturation_seeds(5)
    rs.saturate(*seeds, schedule=schedule)
    assert lhs not in {r.lhs for r in rs.rules}
    found = rs.saturate(*seeds)
    assert lhs in {w for entries in found for _, w in entries}


def test_stale_schedule_entry_raises():
    schedule = core.saturation_schedule(5)
    i, lhs = schedule[0][3]
    schedule[0][3] = (i, lhs[::-1])
    with pytest.raises(ScheduleError, match=(
            rf"rank 5 saturation round 1: product {i} .* yields"
            rf" {lhs[0]}\*{lhs[1]}, not the scheduled {lhs[1]}\*{lhs[0]}")):
        core.base_rewrite_system(5).saturate(
            *core.saturation_seeds(5), schedule=schedule)


def test_rule_digest_script_prints_golden_digest(monkeypatch, capsys):
    # the script's own entry point, argparse and racah.cli's rank reader
    monkeypatch.setattr("sys.argv", ["rule_digest.py", "--rank", "3"])
    _rule_digest_script.main()
    lines = capsys.readouterr().out.splitlines()
    assert f"sha256 {GOLDEN_RULE_DIGESTS[3]}" in lines
    assert f"steps {GOLDEN_REPLAY_STEPS[3]}" in lines


def test_rule_digest_script_checks_the_table_by_search(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv",
                        ["rule_digest.py", "--rank", "4", "--search"])
    _rule_digest_script.main()
    lines = capsys.readouterr().out.splitlines()
    assert f"sha256 {GOLDEN_RULE_DIGESTS[4]}" in lines
    assert f"steps {GOLDEN_SATURATION_STEPS[4]}" in lines
    assert "schedule matches the table" in lines


def test_schedule_table_is_the_script_rendering():
    # the committed table is exactly what --write renders from it
    from racah import saturation_schedules

    table = Path(saturation_schedules.__file__)
    assert table.read_text() == _rule_digest_script.render_table(
        saturation_schedules.SCHEDULES)


# the script reads --rank as the CLI does: ASCII digits, and 3..9 only
@pytest.mark.parametrize("rank, message", [
    ("10", "3..9"), ("2", "3..9"), ("\u0663", "not an integer"),
    ("1_000", "not an integer"),
])
def test_rule_digest_script_rejects_bad_rank(monkeypatch, capsys, rank, message):
    monkeypatch.setattr("sys.argv", ["rule_digest.py", "--rank", rank])
    with pytest.raises(SystemExit) as exc:
        _rule_digest_script.main()
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def _up_to_scale(p: NCPoly) -> tuple:
    # p divided by the coefficient of its first word in the printed order
    first = min(p.terms, key=lambda w: (len(w), [g.sort_key() for g in w]))
    return (p * (1 / p.terms[first])).key()


@pytest.mark.parametrize("rank", [3, 4, 5])
def test_base_rules_are_catalog_relations_solved_for_their_word(rank):
    # every elimination rule, and every base swap rule that is more than the
    # plain swap, is one family instance solved for its left-hand side; the
    # derived rules come from reduced products and are not single instances
    instances = {_up_to_scale(relation(rid))
                 for family in ("ddef", "inner_P", "outer_P", "dd",
                                "dd_one_overlap", "pdt")
                 for rid in core.enumerate_relations(rank, family)}
    checked = 0
    for rule in build_rewrite_system(rank).rules:
        if rule.name == "expand" or rule.grade_drop == "word order at equal degree":
            continue
        lhs = NCPoly.from_word(rank, rule.lhs)
        if rule.rhs == NCPoly.from_word(rank, rule.lhs[::-1]):
            continue
        assert _up_to_scale(lhs - rule.rhs) in instances, rule
        checked += 1
    assert checked


def test_saturated_memo_matches_fresh_system():
    # the memo carried through saturation, by search or by replay, holds
    # only normal forms a system compiled from the final rules would compute
    # from scratch
    searched, _ = searched_system(5)
    assert searched.steps == 6937
    replayed = build_rewrite_system(5)
    assert replayed.steps == 1019
    fresh = RewriteSystem(5, core.alphabet(5), searched.rules)
    for rs in (searched, replayed):
        assert rs._nf
        for w, nf in rs._nf.items():
            assert fresh._normal_form(w) == nf
        # each reducible entry keeps the words of the step the redex search
        # takes now; an irreducible one keeps none
        assert rs._kids.keys() <= rs._nf.keys()
        for w in rs._nf:
            redex = rs._find_redex(w)
            if redex is None:
                assert w not in rs._kids
            else:
                prefix, (_, body), suffix = redex
                assert rs._kids[w] == tuple(prefix + rw + suffix for rw in body)


@pytest.mark.parametrize("word, prefix, suffix", [
    # the singleton P1 after its partner D234, then before it; the other
    # letters keep their order around the body
    ("P12 D234 P13 P1 P34", "P12", "P13 P34"),
    ("P12 P1 P13 D234 P34", "P12 P13", "P34"),
])
def test_elimination_splices_body_in_place_of_partner(word, prefix, suffix):
    rs = RewriteSystem(4, core.alphabet(4),
                       [r for r in core.rewrite_system(4).rules
                        if r.name == "eliminate"])
    body = core.singleton_elimination(4, 1, Gen("D", (2, 3, 4)))

    def poly(text):
        return NCPoly.from_word(4, (Gen(t[0], tuple(int(i) for i in t[1:]))
                                    for t in text.split()))

    assert rs.reduce(poly(word)) == poly(prefix) * body * poly(suffix)


def test_memo_entries_are_canonical_integer_pairs():
    # one (den, {word: int}) pair per rational map: den > 0, no common
    # factor with the numerators, no zero numerator
    rs = core.rewrite_system(5)
    bodies = [*rs._adjacent.values(), *rs._elim.values()]
    assert rs._nf and bodies
    for den, terms in [*rs._nf.values(), *bodies]:
        assert den > 0 and gcd(den, *terms.values()) == 1
        assert all(type(n) is int and n for n in terms.values())


def test_adopt_drops_exactly_the_affected_entries(rs4):
    base = [r for r in rs4.rules if r.grade_drop != "word order at equal degree"]
    rule = next(r for r in rs4.rules if r not in base)
    rs = RewriteSystem(4, core.alphabet(4), base)
    # the products saturation reduces, spelled as NCPoly products
    members, letters = core.saturation_seeds(4)
    products = [q for m in members for u in letters
                for q in (NCPoly.from_word(4, (u,)) * m,
                          m * NCPoly.from_word(4, (u,)))]
    for q in products:
        rs.reduce(q)
    before = dict(rs._nf)
    pair = tuple(rs.generator_order(g) for g in rule.lhs)

    visits: dict = {}

    def visits_pair(w):
        # does the derivation of w pass through a word holding the pair?
        if w not in visits:
            redex = rs._find_redex(w)
            visits[w] = pair in zip(w, w[1:]) or (redex is not None and any(
                visits_pair(redex[0] + rw + redex[2]) for rw in redex[1][1]))
        return visits[w]

    holders = {w for w in before if pair in zip(w, w[1:])}
    affected = {w for w in before if visits_pair(w)}
    dropped = rs._adopt({pair: rs._intern(rule.rhs)})

    assert dropped == affected
    assert holders and affected > holders      # the holders and their ancestors
    kept = before.keys() - affected
    assert any(w not in before[w][1] for w in kept)   # a reducible bystander
    assert rs._nf.keys() == kept
    assert all(rs._nf[w] is before[w] for w in kept)
    fresh = RewriteSystem(4, core.alphabet(4), base + [rule])
    for q in products:
        assert rs.reduce(q) == fresh.reduce(q)


@pytest.mark.parametrize("rank", [4, 5])
def test_saturation_is_a_fixed_point(rank):
    # every product's residual is already a rule or no two-letter word, and
    # every product's normal form is memoized: a second search adopts
    # nothing and takes no step
    rs, _ = searched_system(rank)
    rules, steps, adjacent = rs.rules, rs.steps, dict(rs._adjacent)
    assert rs.saturate(*core.saturation_seeds(rank)) == []
    assert rs.rules == rules and rs.steps == steps
    assert rs._adjacent == adjacent


def _tuple_measure(rs: RewriteSystem, w: tuple) -> tuple:
    # the measure spelled out: foreign letters, degree, length, singletons,
    # then the word
    gens = [rs._id2gen[i] for i in w]
    return (sum(g.kind not in ("P", "D") for g in gens),
            sum(g.degree for g in gens),
            len(w),
            sum(g.kind == "P" and len(g.indices) == 1 for g in gens),
            w)


_id_word = st.lists(st.integers(0, len(core.alphabet(4)) - 1),
                   max_size=6).map(tuple)


@given(_id_word, _id_word)
@settings(max_examples=300)
def test_packed_measure_orders_words_as_the_tuple_does(rs4, a, b):
    def cmp(x, y):
        return (x > y) - (x < y)

    assert cmp(rs4._measure(a), rs4._measure(b)) == cmp(
        _tuple_measure(rs4, a), _tuple_measure(rs4, b))
