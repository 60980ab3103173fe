"""Suite runner: determinism, serialization, config handling, enumeration."""

import hashlib
import itertools
import json
import os
import signal
import threading
import time
import weakref

import pytest

from racah import representation as rep
from racah import verifier
from racah.core import (CONTIGUOUS, FAMILIES, casimir_frak, casimir_rank1,
                        core_generators, d_poly, enumerate_relations, gen_C,
                        presentation_rank1, relation, rewrite_system)
from racah.cli import main
from racah.freealg import AlgebraError, commutator
from racah.verifier import (
    SUITE_NAMES,
    _SUITE_FAMILIES,
    _triple_orbits,
    ConfigError,
    SuiteConfig,
    VerificationReport,
    emit_report,
    params_from_config,
    parse_config,
    parse_rational,
    relation_catalog,
    run_suite,
)

SMALL = (("integer", rep.integer_params(), 4),)


def test_empty_suite_selection():
    report = run_suite(SuiteConfig(rank=3, suites=()))
    assert report.records == []
    assert report.exit_code == 0
    doc = json.loads(emit_report(report, "json"))
    assert doc["instances"] == []


def test_definitions_rank3():
    report = run_suite(SuiteConfig(rank=3, param_sets=SMALL,
                                   suites=("definitions",)))
    assert not report.failed
    statuses = {r.status for r in report.records}
    assert statuses == {"proved-zero", "zero-on-window"}
    # every instance appears under both methods
    symbolic = [r for r in report.records if r.method == "symbolic-reduce"]
    in_rep = [r for r in report.records if r.method == "representation-eval"]
    assert len(symbolic) == 18 + 1 + 6
    assert len(in_rep) == len(symbolic)


def test_symbolic_only_at_high_rank():
    report = run_suite(SuiteConfig(rank=5, suites=("theorem_rn",)))
    assert not report.failed
    assert all(r.method == "symbolic-reduce" for r in report.records)
    assert all(r.status == "proved-zero" for r in report.records)


def test_invalid_params_abort_before_running():
    with pytest.raises(ConfigError):
        SuiteConfig(rank=4, param_sets=(("integer", rep.integer_params(), 12),),
                    suites=("definitions",))


def test_negative_window_rejected():
    with pytest.raises(ConfigError, match="negative window"):
        SuiteConfig(rank=4, param_sets=(("generic", rep.generic_params(), -1),),
                    suites=("casimirs",))
    with pytest.raises(ConfigError, match="window must be >= 0"):
        parse_config("window = -1")
    # "--5" and superscript two passed a digit test, then int() raised; an
    # Arabic-Indic three was read as 3
    for text in ("--5", "\u00b2", "\u0663", "1_000"):
        with pytest.raises(ConfigError, match="window must be an integer"):
            parse_config(f"window = {text}")


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        SuiteConfig(rank=4, suites=("nonsense",))
    with pytest.raises(ConfigError, match="named twice"):
        SuiteConfig(rank=3, suites=("definitions", "definitions"))


def test_report_determinism():
    cfg = SuiteConfig(rank=3, param_sets=SMALL,
                      suites=("definitions", "rank1"))
    first = emit_report(run_suite(cfg), "json")
    second = emit_report(run_suite(cfg), "json")
    assert first == second


def test_report_human_format():
    report = run_suite(SuiteConfig(rank=3, suites=("symmetry",)))
    # the symmetry suite is pentagon-specific; at rank 3 it is empty
    text = emit_report(report, "human").decode()
    assert "summary:" in text
    with pytest.raises(ConfigError):
        emit_report(report, "yaml")


def test_failed_record_drives_exit_code():
    report = VerificationReport(4, ("definitions",), ())
    report.add("definitions", "quad", "x", "a", "representation-eval",
               "integer", "FAILED", "state |0,0> -> 1|1,1>")
    assert report.finish().exit_code == 1
    assert json.loads(emit_report(report, "json"))["summary"]["FAILED"] == 1


@pytest.mark.parametrize("records", [0, 1, 3])
def test_json_report_is_one_dump_of_the_document(records):
    # emit_report encodes one record at a time, into the bytes a single
    # json.dumps of the whole document gives
    report = VerificationReport(4, ("definitions", "casimirs"),
                                (("integer", "c1=1 N=4", 4),))
    fields = [("definitions", "quad", "13,2,4", "\u00bd[C_JK, C_IJ] \"q\"",
               "symbolic-reduce", "", "proved-zero", ""),
              ("casimirs", "casimir", "C\\12", "line\nbreak",
               "representation-eval", "integer", "FAILED", "state |0> -> 1"),
              ("definitions", "central", "", "", "symbolic-reduce", "",
               "inconclusive", "\t")]
    for row in fields[:records]:
        report.add(*row)
    doc = {"rank": 4, "suites": ["definitions", "casimirs"],
           "param_sets": [["integer", "c1=1 N=4", 4]],
           "summary": report.summary(),
           "instances": [dict(zip(("suite", "family", "payload", "anchor",
                                   "method", "context", "status", "witness"),
                                  row)) for row in fields[:records]]}
    assert emit_report(report, "json") == (
        json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def test_jacobi_suite_rank3():
    report = run_suite(SuiteConfig(rank=3, suites=("jacobi",)))
    assert len(report.records) == 35              # C(7,3) generator triples
    assert all(r.status == "proved-zero" for r in report.records)


def _triple_orbit_key(rank: int, triple) -> tuple:
    """The least image of ``triple`` over all rank! relabelings."""
    best = None
    for images in itertools.permutations(range(1, rank + 1)):
        def mv(g):
            idx = tuple(sorted(images[i - 1] for i in g.indices))
            return (g.kind, idx)
        key = tuple(sorted(mv(g) for g in triple))
        if best is None or key < best:
            best = key
    return best


@pytest.mark.parametrize("rank", [3, 4, 5])
def test_triple_orbits_match_brute_force(rank):
    triples = list(itertools.combinations(core_generators(rank), 3))
    seen = {}
    for triple in triples:
        key = _triple_orbit_key(rank, triple)
        if key in seen:
            seen[key][1] += 1
        else:
            seen[key] = [triple, 1]
    # same representatives, in the same order, with the same sizes
    assert list(_triple_orbits(rank, triples)) == [
        (first, size) for first, size in seen.values()]


def test_triple_orbits_rank6():
    triples = list(itertools.combinations(core_generators(6), 3))
    sizes = [size for _, size in _triple_orbits(6, triples)]
    assert len(sizes) == 64 and sum(sizes) == len(triples) == 10660


def test_relation_catalog_rows():
    rows = relation_catalog(4)
    assert {"family", "payload", "anchor"} == set(rows[0])
    assert any(r["family"] == "pdt" for r in rows)
    assert len([r for r in rows if r["family"] == "pdt"]) == 4


def test_suite_families_match_the_catalog():
    run = {f for families in _SUITE_FAMILIES.values() for f in families}
    assert run <= set(FAMILIES)
    assert set(FAMILIES) <= run
    assert set(_SUITE_FAMILIES) <= set(SUITE_NAMES)


def test_parse_rational_rejects_decimals():
    assert parse_rational(" 2/7 ") == parse_rational("2/7")
    with pytest.raises(ConfigError):
        parse_rational("0.5")
    with pytest.raises(ConfigError):
        parse_rational("1/0")


def test_parse_config():
    cfg = parse_config("""
        # a comment
        c1 = 1/3
        c2 = 1/5
        c3 = 2/7
        c4 = 1/2
        N = 4
        window = 6
    """)
    params = params_from_config(cfg)
    assert params == rep.generic_params()
    assert cfg["window"] == 6
    with pytest.raises(ConfigError, match="--suites"):
        parse_config("suites = definitions, casimirs")
    with pytest.raises(ConfigError):
        parse_config("c1 = 0.25")
    # one ASCII grammar, p or p/q: Fraction() also took exponents, digit
    # separators and non-ASCII digits
    for text in ("1e-3", "2E2", "1_000", "\u0663", "\u00b2", "--5", "1/-2"):
        with pytest.raises(ConfigError, match="bad rational"):
            parse_config(f"c1 = {text}")
    assert parse_config("c1 = -3/4\nc2 = +2")["c2"] == 2
    with pytest.raises(ConfigError):
        parse_config("mystery = 3")
    with pytest.raises(ConfigError):
        params_from_config(parse_config("c1 = 1/2"))
    # a repeated key is an error, not a silent override by the last line
    with pytest.raises(ConfigError, match="line 2: key 'window'"):
        parse_config("window = 6\nwindow = 2")
    with pytest.raises(ConfigError, match="line 3: key 'N'"):
        parse_config("N = 4\nc1 = 1/3\nN = 5")


def test_records_sorted():
    cfg = SuiteConfig(rank=3, param_sets=SMALL, suites=("definitions",))
    report = run_suite(cfg)
    keys = [r.sort_key() for r in report.records]
    assert keys == sorted(keys)


def test_methods_never_disagree():
    # proved-zero symbolically implies zero on every window
    cfg = SuiteConfig(rank=3, param_sets=SMALL,
                      suites=("definitions", "lemmas", "rank1"))
    report = run_suite(cfg)
    proved = {(r.family, r.payload) for r in report.records
              if r.method == "symbolic-reduce" and r.status == "proved-zero"}
    for r in report.records:
        if r.method == "representation-eval" and (r.family, r.payload) in proved:
            assert r.status == "zero-on-window"


def test_window_without_reliable_state_is_inconclusive():
    # at window 0 the one state |0,0> leaks under every word that raises
    # it, so some relations are covered by no reliable state at all
    sets = rep.default_param_sets(0)
    report = run_suite(SuiteConfig(rank=4, param_sets=sets,
                                   suites=("definitions",)))
    contexts = {name: rep.OperatorContext(p, w) for name, p, w in sets}
    rids = {(rid.family, rid.payload()): rid
            for family in ("central", "decomposition", "quad")
            for rid in enumerate_relations(4, family)}
    uncovered = 0
    for r in report.records:
        if r.method != "representation-eval":
            continue
        op = contexts[r.context].eval(relation(rids[r.family, r.payload]))
        if op.reliable_states():
            assert r.status == "zero-on-window", r
        else:
            assert r.status == "inconclusive", r
            uncovered += 1
    assert uncovered


def test_window_zero_raising_check_is_inconclusive():
    # the east coefficient is read on |0,0>, which leaks at window 0
    sets = (("generic", rep.generic_params(), 0),)
    report = run_suite(SuiteConfig(rank=4, param_sets=sets, suites=("rank1",)))
    assert not report.failed
    (raising,) = [r for r in report.records if r.family == "raising_normalized"]
    assert raising.status == "inconclusive"


def test_one_contiguous_rewrite_per_polynomial(monkeypatch):
    # with two workers the runner rewrites every queued polynomial before
    # it forks, so a forked worker, which would raise the failed assertion
    # here, rewrites none
    parent = os.getpid()
    rewrite = rep.to_contiguous

    def counting(p):
        assert os.getpid() == parent
        keys.append(p.key())
        return rewrite(p)

    monkeypatch.setattr(rep, "to_contiguous", counting)
    suites = ("definitions", "rank1")
    cfg = SuiteConfig(rank=4, param_sets=rep.default_param_sets(4),
                      suites=suites)
    # the rank1 suite's chain records evaluate rank-3 polynomials
    chain = [gen_C(3, (2, 3)), *presentation_rank1(3), casimir_rank1(3)]
    distinct = {relation(rid).key() for suite in suites
                for family in _SUITE_FAMILIES[suite]
                for rid in enumerate_relations(4, family)}
    distinct |= {p.key() for p in chain}
    for workers in (1, 2):
        monkeypatch.setattr(verifier, "_workers", lambda: workers)
        keys = []
        # an entry left by an earlier test would hide one call
        rep._contiguous_words.cache_clear()
        run_suite(cfg)
        assert len(keys) == len(set(keys)) == len(distinct)
        assert set(keys) == distinct
        # a second run rewrites every polynomial again: run_suite clears
        # the rewrites when its run ends
        run_suite(cfg)
        assert len(keys) == 2 * len(distinct)


def test_rewrites_do_not_outlive_the_run(monkeypatch):
    cfg = SuiteConfig(rank=4, param_sets=rep.default_param_sets(2),
                      suites=("definitions",))
    # every context queues these, and its plan rewrites them all before
    # its first evaluation
    queued = {relation(rid).key() for family in _SUITE_FAMILIES["definitions"]
              for rid in enumerate_relations(4, family)}
    run_suite(cfg)
    assert rep._contiguous_words.cache_info().currsize == 0
    # and when an evaluation raises, with rewrites already cached
    evaluate, cached = rep.OperatorContext.eval, []

    def failing(self, p):
        evaluate(self, p)
        cached.append(rep._contiguous_words.cache_info().currsize)
        raise RuntimeError("evaluation failed")

    monkeypatch.setattr(rep.OperatorContext, "eval", failing)
    with pytest.raises(RuntimeError, match="evaluation failed"):
        run_suite(cfg)
    assert cached == [len(queued)]
    assert rep._contiguous_words.cache_info().currsize == 0


# Three contexts: the integer and generic sets on window 2, the randomized
# set on window 3, of sizes (jobs times states) in the ratio 6 : 6 : 10.
# Dealt largest first to the least loaded worker, two workers take the
# randomized set here and the integer and generic sets in one child; three
# take the randomized set here, the integer set in the first child and the
# generic set in the second.  Either way a child holds a context that comes
# before this process's in queue order.
DEALT = SuiteConfig(rank=3, param_sets=(
    ("integer", rep.integer_params(), 2), ("generic", rep.generic_params(), 2),
    ("randomized", rep.randomized_params(3), 3)), suites=("rank1",))
INTEGER, GENERIC, RANDOMIZED = (p for _, p, _ in DEALT.param_sets)


def test_contexts_are_evaluated_one_at_a_time(monkeypatch):
    # each context is built after the previous one is freed, and only the
    # newest context evaluates.  A forked worker checks the same on its own
    # share, and its failed assertion is raised here; the references this
    # process keeps are to its own share's contexts
    init, evaluate = rep.OperatorContext.__init__, rep.OperatorContext.eval

    def tracked_init(self, params, window):
        assert all(ref() is None for ref in refs)
        init(self, params, window)
        refs.append(weakref.ref(self))
        built.append(params)

    def tracked_eval(self, p):
        assert [ref() for ref in refs] == [None] * (len(refs) - 1) + [self]
        return evaluate(self, p)

    monkeypatch.setattr(rep.OperatorContext, "__init__", tracked_init)
    monkeypatch.setattr(rep.OperatorContext, "eval", tracked_eval)
    # with two workers this process builds the randomized set, the child
    # the rest (see DEALT)
    for workers, mine in ((1, [INTEGER, GENERIC, RANDOMIZED]),
                          (2, [RANDOMIZED])):
        monkeypatch.setattr(verifier, "_workers", lambda: workers)
        refs, built = [], []
        report = run_suite(DEALT)
        assert built == mine
        assert all(ref() is None for ref in refs)
        assert not report.failed


# -- contexts dealt to forked worker processes -------------------------------

def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_worker_count_keeps_the_report(monkeypatch, capsysbinary, workers):
    # the three rank-4 contexts dealt to 1, 2 or 3 workers give one report
    forks, fork = [], os.fork

    def counted():
        forks.append(workers)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(verifier, "_workers", lambda: workers)
    assert main(["verify", "--rank", "4", "--suites", "all",
                 "--format", "json"]) == 0
    out = capsysbinary.readouterr().out
    assert hashlib.sha256(out).hexdigest() == (
        "b0ccb103e2c5bde72160b0b6777803947a3755ddf5ae3c79e8ff55e8537f3d0c")
    assert len(forks) == workers - 1
    _no_children()


def test_contexts_are_dealt_largest_first():
    # the queue of verify --rank 4: 546 jobs on each of the integer window
    # 4 and the generic and randomized window 12.  The two window-12
    # contexts go to different workers, and each share stays in queue order
    queued = [((name, None, window), [None] * 546)
              for name, window in (("integer", 4), ("generic", 12),
                                   ("randomized", 12))]
    assert verifier._shares(queued, 1) == [[0, 1, 2]]
    assert verifier._shares(queued, 2) == [[0, 1], [2]]
    assert verifier._shares(queued, 3) == [[1], [2], [0]]
    # DEALT's queue: its two window-2 contexts go to the children
    queued = [(context, [None] * 8) for context in DEALT.param_sets]
    assert verifier._shares(queued, 2) == [[2], [0, 1]]
    assert verifier._shares(queued, 3) == [[2], [0], [1]]


def _fail_in_child(monkeypatch, failure, workers=2, where=GENERIC):
    """``failure()`` runs where a child builds the context of parameter
    set ``where``; every other context builds normally."""
    parent, build = os.getpid(), verifier.OperatorContext

    def context(params, window):
        if params == where:
            assert os.getpid() != parent
            failure()
        return build(params, window)

    monkeypatch.setattr(verifier, "OperatorContext", context)
    monkeypatch.setattr(verifier, "_workers", lambda: workers)


def test_a_childs_exception_is_raised_here(monkeypatch):
    def failure():
        raise AlgebraError("no module for these parameters")

    _fail_in_child(monkeypatch, failure)
    with pytest.raises(AlgebraError, match="no module for these parameters"):
        run_suite(DEALT)
    _no_children()


class TwoArguments(Exception):
    """Pickles, but unpickling calls ``TwoArguments(a)``, which fails."""

    def __init__(self, a, b):
        super().__init__(a)


@pytest.mark.parametrize("exc", [
    TwoArguments("lost in transit", 2),
    type("NotAtModuleLevel", (Exception,), {})("lost in transit"),
], ids=["does-not-unpickle", "does-not-pickle"])
def test_an_exception_that_cannot_cross_arrives_as_its_repr(monkeypatch, exc):
    def failure():
        raise exc

    _fail_in_child(monkeypatch, failure)
    with pytest.raises(RuntimeError, match=r"generic \(window 2\)"
                       rf" raised {type(exc).__name__}\('lost in transit'\)"):
        run_suite(DEALT)
    _no_children()


def test_a_child_that_dies_is_named_with_its_status(monkeypatch):
    # the first child dies on its context; the second child, still running
    # when that death raises, is killed and reaped too
    _fail_in_child(monkeypatch, lambda: os._exit(7), workers=3,
                   where=INTEGER)
    build = verifier.OperatorContext

    def context(params, window):
        if params == GENERIC:
            time.sleep(60)
        return build(params, window)

    monkeypatch.setattr(verifier, "OperatorContext", context)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match=r"^the worker for integer"
                       r" \(window 2\) ended without its verdicts"
                       r" \(exit status 7\)$"):
        run_suite(DEALT)
    assert time.monotonic() - start < 30
    _no_children()


def test_a_message_larger_than_a_pipe_arrives_whole(monkeypatch):
    # the runner reads each pipe to its end before it waits for the child,
    # which would otherwise block on a full pipe; the alarm ends a hang
    witness, verdicts = "x" * (1 << 20), verifier._verdicts
    monkeypatch.setattr(verifier, "_verdicts", lambda context, jobs: [
        (verifier.FAILED, witness) for _ in verdicts(context, jobs)])
    monkeypatch.setattr(verifier, "_workers", lambda: 2)

    def hung(signum, frame):
        raise TimeoutError("the runner hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        report = run_suite(DEALT)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    evaluated = [r for r in report.records
                 if r.method == "representation-eval"]
    assert {r.context for r in evaluated} == {"integer", "generic",
                                              "randomized"}
    assert all(r.witness == witness for r in evaluated)
    _no_children()


@pytest.mark.parametrize("workers", [1, 2])
def test_the_first_failing_context_in_queue_order_raises(monkeypatch,
                                                         workers):
    # the generic set (a child's, with two workers) fails before the
    # randomized set (this process's), whichever worker finishes first
    build = verifier.OperatorContext
    failing = {GENERIC: "generic", RANDOMIZED: "randomized"}

    def context(params, window):
        if params in failing:
            raise AlgebraError(f"{failing[params]} fails")
        return build(params, window)

    monkeypatch.setattr(verifier, "OperatorContext", context)
    monkeypatch.setattr(verifier, "_workers", lambda: workers)
    with pytest.raises(AlgebraError, match="^generic fails$"):
        run_suite(DEALT)
    _no_children()


@pytest.mark.parametrize("cfg", [
    SuiteConfig(rank=4, param_sets=SMALL, suites=("casimirs",)),
    SuiteConfig(rank=5, param_sets=rep.default_param_sets(2),
                suites=("casimirs",)),
], ids=["one-context", "rank-5"])
def test_a_run_without_two_contexts_never_forks(monkeypatch, cfg):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(verifier, "_workers", lambda: 4)
    assert not run_suite(cfg).failed


def test_workers_are_the_usable_cpus_where_forking_is_safe(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 3},
                        raising=False)
    assert verifier._workers() == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert verifier._workers() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert verifier._workers() == 5
    monkeypatch.setattr(threading, "active_count", lambda: 2)
    assert verifier._workers() == 1
    monkeypatch.undo()
    monkeypatch.delattr(os, "fork")
    assert verifier._workers() == 1


def test_pentagon_commutators_are_fifty_pairs(monkeypatch):
    # the casimirs suite's [E_i, g] checks run after the suite's loops; each
    # still composes the two operators its context evaluates for E_i and g,
    # in loop order.  Two of them may be one object: proportional
    # polynomials share an operator, as the integer set's C1..C4 (all 0) do.
    evals, pairs = [], []
    evaluate, compose = rep.OperatorContext.eval, verifier.commutator_op

    def recorded_eval(ctx, p):
        op = evaluate(ctx, p)
        evals.append((p, op))
        return op

    def recorded(a, b):
        pairs.append((evals[-2], evals[-1], a, b))
        return compose(a, b)

    monkeypatch.setattr(rep.OperatorContext, "eval", recorded_eval)
    monkeypatch.setattr(verifier, "commutator_op", recorded)
    run_suite(SuiteConfig(rank=4, param_sets=SMALL, suites=("casimirs",)))
    want = [(casimir_frak(i), gen_C(4, s))
            for i in range(5) for s in CONTIGUOUS[4]]
    assert len(pairs) == len(want) == 5 * 10
    for ((ci, op_ci), (g, op_g), a, b), (want_ci, want_g) in zip(pairs, want):
        assert (ci, g) == (want_ci, want_g)
        assert a is op_ci and b is op_g


@pytest.mark.parametrize("rank", (3, 4, 5, 6))
def test_casimir_normal_form_brackets_reduce_to_zero(rank):
    # the casimirs suite proves [C, g] = 0 through [nf(C), g]: C - nf(C) is
    # an ideal member, so these reductions stand for the brackets with C
    rs = rewrite_system(rank)
    normal = rs.reduce(casimir_rank1(rank))
    assert 0 < len(normal.terms) < len(casimir_rank1(rank).terms)
    for g in (gen_C(rank, (1, 2)), gen_C(rank, (2, 3)), d_poly(rank, 1, 2, 3)):
        assert rs.reduce(commutator(normal, g)).is_zero
