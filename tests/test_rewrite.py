"""Rewrite-engine contracts: worked reductions, idempotence, termination
accounting, and soundness of every compiled rule against the operators."""

import importlib.util
import itertools
import re
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import poly_strategy
from racah import core
from racah.core import build_rewrite_system, d_poly, gen_C, relation, RelationId
from racah.freealg import (AlgebraError, NCPoly, RankMismatchError,
                           RewriteSystem, ScheduleError,
                           UnknownGeneratorError, Gen)
from racah.verifier import _SUITE_FAMILIES

_spec = importlib.util.spec_from_file_location(
    "rule_digest", Path(__file__).parents[1] / "scripts" / "rule_digest.py")
_rule_digest_script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_rule_digest_script)
rule_digest = _rule_digest_script.rule_digest

# scripts/rule_digest.py digests of the compiled rule lists, recorded when
# every saturation round still reduced all candidates on a fresh system
# (ranks 3-6) and when the compile began to replay a recorded schedule
# (ranks 7-9, equal to the search's digests then; those ranks now compile
# by relabelling the derived rules of ranks 4-6)
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
    assert rs.steps == GOLDEN_SATURATION_STEPS[4]
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


# saturation steps of the search on an unsaturated system, which reduces
# every seed product in every round with a memo emptied at each round: the
# same rules found by a different redex order, or by reducing more or fewer
# candidates, change the count
GOLDEN_SATURATION_STEPS = {3: 0, 4: 1177, 5: 17364, 6: 111294}
# steps of the compile, which replays the recorded schedule: it reduces each
# derived rule's seed product once, with the rules of the earlier rounds and
# a memo emptied at each round (ranks 7-9 relabel and take no step)
GOLDEN_REPLAY_STEPS = {3: 0, 4: 133, 5: 1051, 6: 4650}


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


def _support(word) -> set[int]:
    return {i for g in word for i in g.indices}


def _rule_key(rule, table=None, rank=None) -> tuple:
    """A hashable rule, or its image along a ``core.relabel_table`` table if
    given."""
    lhs, rhs = rule.lhs, rule.rhs
    if table is not None:
        lhs = tuple(table[0][g] for g in lhs)
        rhs = core.relabel(rhs, table, rank)
    return rule.name, rule.grade_drop, lhs, rhs.key()


@pytest.mark.parametrize("rank", [3, 4, 5, 6, 7])
def test_rule_bodies_stay_inside_the_lhs_support(rank):
    # so reducing a word uses only rules inside the word's own indices
    for rule in build_rewrite_system(rank).rules:
        lhs = _support(rule.lhs)
        assert all(_support(w) <= lhs for w in rule.rhs.nums), rule


@pytest.mark.parametrize("k", [3, 4, 5, 6] + [
    pytest.param(k, marks=pytest.mark.slow) for k in (7, 8)])
def test_base_rules_are_natural(k):
    # every order-preserving image of a rank-k base rule is a rank k+1 base
    # rule, and every rank k+1 base rule that misses an index is an image
    upper = {_rule_key(r) for r in core.base_rules(k + 1)}
    rules = core.base_rules(k)
    images = {_rule_key(r, table, k + 1)
              for ix in itertools.combinations(range(1, k + 2), k)
              for table in [core.relabel_table(ix)] for r in rules}
    assert images <= upper
    assert {r for r in upper if len(_support(r[2])) <= k} <= images


def test_order_preserving_relabelling_keeps_letter_order():
    for k in range(3, 10):
        letters = sorted(core.alphabet(k), key=Gen.sort_key)
        for n in range(k, 10):
            alphabet = set(core.alphabet(n))
            for ix in itertools.combinations(range(1, n + 1), k):
                table, flips = core.relabel_table(ix)
                assert not flips
                images = [table[g] for g in letters]
                assert set(images) <= alphabet
                keys = [g.sort_key() for g in images]
                assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("injected", ["repeated image", "base rule image"])
def test_relabelled_rules_refuse_a_repeated_lhs(monkeypatch, injected):
    rules = core._full_support_rules()
    extra = (rules[0] if injected == "repeated image" else
             (4, (next(r for r in core.base_rules(4)
                       if r.name == "swap" and len(_support(r.lhs)) == 4),)))
    monkeypatch.setattr(core, "_full_support_rules", lambda: rules + (extra,))
    with pytest.raises(AlgebraError,
                       match="rank 7: a relabelled rule repeats an lhs"):
        build_rewrite_system(7)


def test_relabelled_compile_builds_one_rewrite_system(monkeypatch):
    # the base rules are interned once, with the images, not first into a
    # base system of their own
    core._full_support_rules()
    built = []
    init = RewriteSystem.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(RewriteSystem, "__init__", counted)
    rs = build_rewrite_system(7)
    assert built == [7]
    assert rule_digest(rs.rules) == GOLDEN_RULE_DIGESTS[7]


# every family whose payload is made of indices: not the rank-1
# presentation, whose payload picks a relation, nor the pentagon labels
INDEX_FAMILIES = [f for f in core.FAMILIES
                  if f not in _SUITE_FAMILIES["pentagon"] + ("pres_rank1",)]


def _relabel_payload(x, ix: tuple[int, ...]):
    # an index, an index set, or the dd family's orientation word
    if isinstance(x, int):
        return ix[x - 1]
    if isinstance(x, tuple):
        return tuple(ix[i - 1] for i in x)
    return x


@pytest.mark.parametrize("k", [3, 4, pytest.param(5, marks=pytest.mark.slow)])
def test_family_builders_are_natural(k):
    # each order-preserving image of a rank-k instance is a rank k+1
    # instance, and the relabelled polynomial is the builder's on it
    tables = {ix: core.relabel_table(ix)
              for ix in itertools.combinations(range(1, k + 2), k)}
    for family in INDEX_FAMILIES:
        upper = {rid.indices for rid in core.enumerate_relations(k + 1, family)}
        for rid in core.enumerate_relations(k, family):
            poly = relation(rid)
            for ix, table in tables.items():
                payload = tuple(_relabel_payload(x, ix) for x in rid.indices)
                assert payload in upper, (rid, ix)
                image = RelationId(family, k + 1, payload)
                assert core.relabel(poly, table, k + 1) == relation(image), (
                    rid, ix)


def test_no_schedule_is_recorded_above_rank_6():
    with pytest.raises(AlgebraError, match="at rank 7"):
        core.saturation_schedule(7)


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


@pytest.mark.parametrize("past_end", [True, False],
                         ids=["past-the-end", "negative"])
def test_schedule_index_outside_the_products_raises(past_end):
    members, letters = core.saturation_seeds(5)
    n = 2 * len(members) * len(letters)
    schedule = core.saturation_schedule(5)
    _, lhs = schedule[1][0]
    i = n if past_end else -1
    schedule[1][0] = (i, lhs)
    with pytest.raises(ScheduleError, match=(
            rf"rank 5 saturation round 2: entry {i}:{lhs[0]}\*{lhs[1]} names"
            rf" no product; there are {n}$")):
        core.base_rewrite_system(5).saturate(members, letters,
                                             schedule=schedule)


@pytest.mark.parametrize("entry, message", [
    ("7:D123*D167", "names D167, no letter of rank 4"),
    ("x7:D123*D124", "has no product index"),
], ids=["unknown-letter", "no-index"])
def test_schedule_table_entry_of_no_product_raises(
        monkeypatch, capsys, entry, message):
    from racah import cli, saturation_schedules

    table = saturation_schedules.SCHEDULES
    monkeypatch.setitem(table, 4, f"\n{entry}\n" + table[4])
    with pytest.raises(ScheduleError, match=(
            rf"^rank 4 saturation round 1: entry {re.escape(entry)}"
            rf" {message}$")):
        core.saturation_schedule(4)
    # the CLI compiles afresh and exits 2, an input error, not 1, a FAILED
    # record
    monkeypatch.setattr(cli, "rewrite_system", build_rewrite_system)
    assert cli.main(["reduce", "--rank", "4", "C12"]) == 2
    assert capsys.readouterr().err == (
        f"error: rank 4 saturation round 1: entry {entry} {message}\n")


def test_rule_digest_script_prints_golden_digest(monkeypatch, capsys):
    # the script's own entry point, argparse and racah.cli's rank reader
    monkeypatch.setattr("sys.argv", ["rule_digest.py", "--rank", "3"])
    _rule_digest_script.main()
    lines = capsys.readouterr().out.splitlines()
    assert f"sha256 {GOLDEN_RULE_DIGESTS[3]}" in lines
    assert f"steps {GOLDEN_REPLAY_STEPS[3]}" in lines
    # the compile time and its two halves, and the peak memory in MB
    assert {"base_s", "replay_s", "compile_s"} <= {
        line.split()[0] for line in lines}
    (peak,) = [line.split()[1] for line in lines
               if line.startswith("peak_rss_mb ")]
    assert float(peak) > 0


def test_rule_digest_script_checks_the_table_by_search(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv",
                        ["rule_digest.py", "--rank", "4", "--search"])
    _rule_digest_script.main()
    lines = capsys.readouterr().out.splitlines()
    assert f"sha256 {GOLDEN_RULE_DIGESTS[4]}" in lines
    assert f"steps {GOLDEN_SATURATION_STEPS[4]}" in lines
    assert "schedule matches the table" in lines


def test_rule_digest_script_relabels_above_rank_6(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["rule_digest.py", "--rank", "7"])
    _rule_digest_script.main()
    lines = capsys.readouterr().out.splitlines()
    assert f"sha256 {GOLDEN_RULE_DIGESTS[7]}" in lines
    assert "steps 0" in lines
    assert [line.split()[0] for line in lines
            if line.split()[0].endswith("_s")] == [
                "base_s", "images_s", "compile_s"]
    assert any(line.startswith("peak_rss_mb ") for line in lines)


def test_rule_digest_script_checks_a_search_above_rank_6_by_digest(
        monkeypatch, capsys):
    # a search without seed members adopts nothing, so its digest is the
    # base system's, not the compiled one's
    monkeypatch.setattr(_rule_digest_script, "saturation_seeds",
                        lambda rank: ([], core.saturation_seeds(rank)[1]))
    monkeypatch.setattr("sys.argv",
                        ["rule_digest.py", "--rank", "7", "--search"])
    with pytest.raises(SystemExit) as exc:
        _rule_digest_script.main()
    assert exc.value.code == 1
    lines = capsys.readouterr().out.splitlines()
    assert "digest differs from the compiled system" in lines


@pytest.mark.slow
def test_rule_digest_script_search_matches_the_compiled_system(
        monkeypatch, capsys):
    monkeypatch.setattr("sys.argv",
                        ["rule_digest.py", "--rank", "7", "--search"])
    _rule_digest_script.main()
    lines = capsys.readouterr().out.splitlines()
    assert f"sha256 {GOLDEN_RULE_DIGESTS[7]}" in lines
    assert "digest matches the compiled system" in lines


def test_rule_digest_script_writes_no_table_above_rank_6(monkeypatch, capsys):
    from racah import saturation_schedules

    table = Path(saturation_schedules.__file__)
    before = table.read_text()
    monkeypatch.setattr("sys.argv", ["rule_digest.py", "--rank", "7",
                                     "--search", "--write"])
    with pytest.raises(SystemExit) as exc:
        _rule_digest_script.main()
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "ranks 3-6 only" in captured.err
    assert table.read_text() == before


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
    # the memo the search ends with, that of its last round, holds only
    # normal forms a system compiled from the final rules would compute from
    # scratch; the replay ends with an empty memo and reduces the same words
    # to the same forms
    searched, _ = searched_system(5)
    assert searched.steps == GOLDEN_SATURATION_STEPS[5]
    replayed = build_rewrite_system(5)
    assert replayed.steps == GOLDEN_REPLAY_STEPS[5]
    assert not replayed._nf
    fresh = RewriteSystem(5, core.alphabet(5), searched.rules)
    assert searched._nf
    for w, nf in searched._nf.items():
        assert fresh._normal_form(w) == nf
        assert replayed._normal_form(w) == nf


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
    rs = build_rewrite_system(5)
    for rid in core.enumerate_relations(5, "quad")[:30]:
        rs.reduce(relation(rid))
    bodies = [*rs._adjacent.values(), *rs._elim.values()]
    assert any(den > 1 for den, _ in rs._nf.values()) and bodies
    for den, terms in [*rs._nf.values(), *bodies]:
        assert den > 0 and gcd(den, *terms.values()) == 1
        assert all(type(n) is int and n for n in terms.values())


@pytest.mark.parametrize("rank", [4, 5])
def test_every_search_round_reduces_every_product(monkeypatch, rank):
    rounds: dict[int, list] = {}
    residual_rule = RewriteSystem._residual_rule

    def spy(self, product, new):
        # a round adopts its rules at its end, so the size of the rule table
        # tells the rounds apart
        rounds.setdefault(len(self._adjacent), []).append(id(product))
        return residual_rule(self, product, new)

    monkeypatch.setattr(RewriteSystem, "_residual_rule", spy)
    members, letters = core.saturation_seeds(rank)
    schedule = core.base_rewrite_system(rank).saturate(members, letters)
    # the last round adopts nothing
    assert len(rounds) == len(schedule) + 1 >= 2
    first, *rest = rounds.values()
    assert len(set(first)) == len(first) == 2 * len(members) * len(letters)
    assert all(products == first for products in rest)


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
