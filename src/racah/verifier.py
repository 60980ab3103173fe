"""Suite runner: enumerates relation instances, runs symbolic reductions and
representation evaluations, mechanizes the double-commutator checks, and
emits deterministic structured reports.

Two-method policy: a symbolic reduction to zero is authoritative; the
representation is the falsifier and the fallback for inconclusive
reductions.  A FAILED representation record on a reliable state is a hard
error; a nonzero normal form alone is merely inconclusive.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import threading
from dataclasses import dataclass, field
from fractions import Fraction

from . import symmetry
from .core import (
    CONTIGUOUS,
    FAMILIES,
    casimir_frak,
    casimir_rank1,
    catalog_commutator,
    check_rank,
    core_generators,
    enumerate_relations,
    gen_C,
    presentation_rank1,
    relation,
    rewrite_system,
)
from .freealg import AlgebraError, Gen, NCPoly, commutator
from .representation import (
    OperatorContext,
    RepParams,
    SparseOperator,
    _contiguous_words,
    chain_part,
    commutator_op,
    triangle_states,
    validate_params,
)


class ConfigError(AlgebraError):
    pass


_SUITE_FAMILIES = {
    "definitions": ("central", "decomposition", "quad"),
    "theorem_bigthm": ("ddef", "inner_P", "outer_P", "dd", "pdt"),
    "theorem_rn": ("dd_one_overlap", "dd_disjoint"),
    "lemmas": ("d_cyclic", "quadB", "pd_pair", "outer_P", "dd",
               "pd_flip", "pd_exchange", "pd_cycle", "pd_sum"),
    "pentagon": ("gamma_def", "gamma_sum", "omega_central", "omega_commute",
                 "omega_gamma_commute", "omega_inner", "omega_outer"),
    "rank1": ("pres_rank1",),
}

PROVED = "proved-zero"
ONWINDOW = "zero-on-window"
INCONCLUSIVE = "inconclusive"
FAILED = "FAILED"


@dataclass(frozen=True)
class InstanceRecord:
    suite: str
    family: str
    payload: str
    anchor: str
    method: str      # "symbolic-reduce" or "representation-eval"
    context: str     # parameter-set name for representation records
    status: str
    witness: str = ""

    def sort_key(self):
        return (self.suite, self.family, self.payload, self.method, self.context)


@dataclass
class VerificationReport:
    rank: int
    suites: tuple
    param_sets: tuple
    records: list = field(default_factory=list)

    def add(self, *args, **kw):
        self.records.append(InstanceRecord(*args, **kw))

    def finish(self) -> "VerificationReport":
        self.records.sort(key=InstanceRecord.sort_key)
        return self

    def summary(self) -> dict:
        out = {PROVED: 0, ONWINDOW: 0, INCONCLUSIVE: 0, FAILED: 0}
        for r in self.records:
            out[r.status] += 1
        return out

    @property
    def failed(self) -> bool:
        return any(r.status == FAILED for r in self.records)

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0


def _witness_text(op: SparseOperator) -> str:
    w = op.witness()
    if w is None:
        return ""
    state, combo = w
    parts = [f"{c}|{y[0]},{y[1]}>" for y, c in sorted(combo.items())]
    return f"state |{state[0]},{state[1]}> -> " + " + ".join(parts)


def _verdict(op: SparseOperator, check=SparseOperator.is_zero_on_reliable
             ) -> tuple[str, str]:
    """Status and witness of a representation check on ``op``'s reliable
    states; ``check(op)`` is its outcome, by default "``op`` vanishes
    there".  Without a reliable state the check decided nothing, so it is
    inconclusive, never zero-on-window."""
    if not op.reliable_states():
        return INCONCLUSIVE, ""
    if check(op):
        return ONWINDOW, ""
    return FAILED, _witness_text(op)


class _Runner:
    """Runs suites into one report.  Every record comes from one of three
    emitters, each given the record's head (suite, family, payload, anchor):
    ``symbolic`` proves by reduction, ``represent`` falsifies in the
    representation, ``outcome`` states a pass/fail group check.

    A representation context is a parameter set ``(name, params, window)``
    of ``cfg.param_sets``, built only after every suite has run, and every
    context evaluates every queued verdict.  ``run`` deals the contexts,
    largest first, to ``w`` workers, this process and w - 1 forked
    children (``_evaluate``); each worker evaluates its contexts one at a
    time, so one context's operators are alive per worker process, and the
    verdicts are added in queue order whatever ``w`` is."""

    def __init__(self, cfg: SuiteConfig):
        self.cfg = cfg
        self.report = VerificationReport(
            cfg.rank, tuple(cfg.suites),
            tuple((name, p.describe(), w) for name, p, w in cfg.param_sets))
        self.rs = rewrite_system(cfg.rank)
        # the (head, value, verdict) jobs, in the order they were queued
        self._jobs: list[tuple] = []

    # -- the record emitters ---------------------------------------------------

    def symbolic(self, head: tuple, poly: NCPoly) -> bool:
        """proved-zero when ``poly`` reduces to zero, else inconclusive."""
        ok = self.rs.reduce(poly).is_zero
        self.report.add(*head, "symbolic-reduce", "",
                        PROVED if ok else INCONCLUSIVE)
        return ok

    def represent(self, head: tuple, value, verdict=_verdict):
        """Queues one verdict per context, which ``run`` evaluates after the
        suites: ``verdict(op)`` on the operator of ``value``, a polynomial or
        a function from a context to an already-composed operator.  The
        module's letters have at most four indices, so a polynomial of a
        higher rank queues nothing."""
        if callable(value) or value.rank <= 4:
            self._jobs.append((head, value, verdict))

    def outcome(self, head: tuple, ok: bool, witness: str = ""):
        self.report.add(*head, "symbolic-reduce", "",
                        PROVED if ok else FAILED, witness)

    # -- suites ------------------------------------------------------------------

    def family_suite(self, suite: str) -> list[tuple[str, NCPoly]]:
        """Checks every instance of the suite's families; returns them as
        ``(family[payload], poly)`` pairs."""
        relations = []
        for family in _SUITE_FAMILIES[suite]:
            for rid in enumerate_relations(self.cfg.rank, family):
                poly = relation(rid)
                head = (suite, family, rid.payload(), FAMILIES[family].anchor)
                self.symbolic(head, poly)
                self.represent(head, poly)
                relations.append((f"{family}[{rid.payload()}]", poly))
        return relations

    def pentagon_suite(self, suite: str):
        if self.cfg.rank != 4:
            return
        relations = self.family_suite(suite)
        for group in ("d5", "p4"):
            recs = symmetry.verify_relation_invariance(group, relations)
            bad = [r for r in recs if not r.ok]
            self.outcome(
                (suite, f"invariance-{group}", f"{len(recs)} images",
                 "group images of each relation stay inside the relation suite"),
                not bad, "; ".join(f"{r.element} x {r.relation}" for r in bad[:3]))
        order = symmetry.closure_order("both")
        self.outcome((suite, "closure", f"order={order}",
                      "the two symmetry actions together generate a group of"
                      " order 120"), order == 120)

    def casimir_suite(self, suite: str):
        rank = self.cfg.rank
        cas = casimir_rank1(rank)
        # every rewrite step subtracts an ideal member, so cas - normal lies
        # in the two-sided ideal, and so does its bracket with any g: when
        # [normal, g] reduces to zero, [cas, g] is zero in the quotient too.
        # The normal form is reduced once and is far shorter than cas.
        normal = self.rs.reduce(cas)
        for letter in (Gen("C", (1, 2)), Gen("C", (2, 3)), Gen("D", (1, 2, 3))):
            g = NCPoly.from_word(rank, (letter,))
            head = (suite, "casimir_rank1_comm", str(letter),
                    "the quartic central element commutes with the"
                    " non-central generators")
            if not self.symbolic(head, commutator(normal, g)):
                self.represent(head, commutator(cas, g))
        self.represent((suite, "casimir_rank1_zero", "c",
                        "the central element vanishes in this module"), cas)
        if rank != 4:
            return
        for i in range(5):
            ci = casimir_frak(i)
            self.represent((suite, "casimir_pentagon_zero", str(i),
                            "all five pentagon central elements vanish"), ci)
            for sset in CONTIGUOUS[4]:
                g = gen_C(4, sset)
                # composed from the two cached operators: evaluating the
                # polynomial commutator instead gives the same verdicts,
                # several times slower.  The defaults bind this ci and g,
                # since the context runs the function after the loop.
                self.represent(
                    (suite, "casimir_pentagon_comm", f"{i},{g}",
                     "each pentagon central element commutes with the ten"
                     " basis generators"),
                    lambda ctx, ci=ci, g=g:
                        commutator_op(ctx.eval(ci), ctx.eval(g)))

    def rank1_suite(self, suite: str):
        self.family_suite(suite)
        # read on the s = 0 chain of each window: C23 raises, C12 lowers
        def on_chain(check=SparseOperator.is_zero_on_reliable):
            return lambda op: _verdict(chain_part(op), check)

        self.represent((suite, "raising_normalized", "A",
                        "the east coefficient of the first generator is 1"),
                       gen_C(3, (2, 3)),
                       on_chain(lambda row: row.entry((0, 0), (1, 0)) == 1))
        for k, r in enumerate(presentation_rank1(3)):
            self.represent((suite, "presentation_slice", str(k),
                            FAMILIES["pres_rank1"].anchor), r, on_chain())
        self.represent((suite, "casimir_slice", "c",
                        "the central element vanishes on the chain"),
                       casimir_rank1(3), on_chain())

    def symmetry_suite(self, suite: str):
        if self.cfg.rank != 4:
            return
        for label, group, want in (("d5", "d5", 10), ("p4", "p4", 24),
                                   ("combined", "both", 120)):
            order = symmetry.closure_order(group)
            self.outcome((suite, "group_order", f"{label}={order}",
                          "pentagon action order 10, relabeling order 24,"
                          " combined order 120"), order == want)

    def run(self) -> VerificationReport:
        for suite in self.cfg.suites:
            _SUITES[suite](self, suite)
        queued = [(c, self._jobs) for c in self.cfg.param_sets if self._jobs]
        for ((name, _, _), _), verdicts in zip(queued, _evaluate(queued)):
            for (head, _, _), verdict in zip(self._jobs, verdicts):
                self.report.add(*head, "representation-eval", name, *verdict)
        return self.report.finish()


def _verdicts(context: tuple, jobs: list) -> list[tuple[str, str]]:
    """Builds ``context``, plans it with the queued polynomials and returns
    the (status, witness) of each queued job, in queue order; the context
    and its operators are freed when this returns."""
    _, params, window = context
    ctx = OperatorContext(params, window)
    ctx.plan(value for _, value, _ in jobs if not callable(value))
    return [verdict(value(ctx) if callable(value) else ctx.eval(value))
            for _, value, verdict in jobs]


def _workers() -> int:
    """How many processes may evaluate contexts: the CPUs this process may
    run on, or 1 where forking is unavailable or unsafe (a second thread
    would not exist in the child)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shares(queued: list, w: int) -> list[list[int]]:
    """The queue positions each of ``w`` workers evaluates, each list in
    queue order.  The contexts share their jobs, so a context's size is its
    number of states; they are dealt largest first, each to the worker with
    the least size so far (the lowest such worker on a tie), so the workers
    finish close together: on ``verify --rank 4`` the two window-12
    contexts go to different workers, the small ones to the less loaded."""
    sizes = [len(triangle_states(window)) for (_, _, window), _ in queued]
    loads, shares = [0] * w, [[] for _ in range(w)]
    for i in sorted(range(len(queued)), key=sizes.__getitem__, reverse=True):
        k = loads.index(min(loads))
        loads[k] += sizes[i]
        shares[k].append(i)
    return [sorted(share) for share in shares]


def _work(share: list) -> tuple[list, Exception | None]:
    """The verdict lists of ``share``'s contexts up to the first that
    raises, and that exception (None when every context ran)."""
    done = []
    try:
        for context, jobs in share:
            done.append(_verdicts(context, jobs))
    except Exception as exc:
        return done, exc
    return done, None


def _child(share: list, sink):
    """A forked worker: writes ``_work(share)``, pickled, to the binary
    file ``sink`` and exits without returning into the caller's stack.  An
    exception that does not survive pickling is sent as its ``repr``."""
    import pickle

    code = 1
    try:
        done, exc = _work(share)
        if exc is not None:
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                exc = repr(exc)
        sink.write(pickle.dumps((done, exc)))
        sink.close()
        code = 0
    finally:
        os._exit(code)


def _names(share: list) -> str:
    return ", ".join(f"{name} (window {w})" for (name, _, w), _ in share)


def _evaluate(queued: list) -> list:
    """The verdict lists of the queued ``(context, jobs)`` pairs, in queue
    order.  With ``w = min(len(queued), _workers())`` workers (one when
    nothing is queued), worker ``k`` evaluates ``_shares(queued, w)[k]``
    in queue order: worker 0 is this process, and the others are forked
    children that inherit the jobs (functions included) and send back
    only their verdicts.  The first context in queue order that raised
    raises here, as it would in one process.  With one worker nothing
    forks.

    Every queued polynomial is rewritten (``_contiguous_words``) before the
    contexts are dealt, so forked children inherit the rewrites and a run
    rewrites each polynomial once, whatever ``w`` is."""
    for _, jobs in queued:
        for _, value, _ in jobs:
            if not callable(value):
                _contiguous_words(value.key())
    w = max(1, min(len(queued), _workers()))
    dealt = _shares(queued, w)
    shares = [[queued[i] for i in share] for share in dealt]
    pipes, running = [], []     # read ends; children not yet reaped
    try:
        for share in shares[1:]:
            r, fd = os.pipe()
            pipes.append(os.fdopen(r, "rb"))
            with os.fdopen(fd, "wb") as sink:
                pid = os.fork()
                if pid == 0:
                    _child(share, sink)
            running.append(pid)
        outcomes = [_work(shares[0])]
        for share, pipe in zip(shares[1:], pipes):
            import pickle   # here and in _child: only a run that forks loads it
            data = pipe.read()
            status = os.waitpid(running[0], 0)[1]
            del running[0]
            try:
                outcomes.append(pickle.loads(data))
            except Exception:
                raise RuntimeError(
                    f"the worker for {_names(share)} ended without its"
                    f" verdicts (exit status"
                    f" {os.waitstatus_to_exitcode(status)})") from None
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in running:     # unreaped, so the pid is still this child's
            import signal
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    # each worker stops at its first failure, and its share is in queue
    # order, so the first unevaluated context met in queue order raised
    place = {i: (k, n) for k, share in enumerate(dealt)
             for n, i in enumerate(share)}
    verdicts = []
    for i in range(len(queued)):
        k, n = place[i]
        done, exc = outcomes[k]
        if n == len(done):
            if isinstance(exc, str):
                raise RuntimeError(f"evaluating {_names(queued[i:i + 1])}"
                                   f" raised {exc}")
            raise exc
        verdicts.append(done[n])
    return verdicts


# every suite with the runner method that runs it, in report order
_SUITES = {
    "definitions": _Runner.family_suite,
    "theorem_bigthm": _Runner.family_suite,
    "theorem_rn": _Runner.family_suite,
    "lemmas": _Runner.family_suite,
    "pentagon": _Runner.pentagon_suite,
    "casimirs": _Runner.casimir_suite,
    # looked up when called, so the module-level name is the one entry point
    "jacobi": lambda run, suite: run_jacobi(run),
    "symmetry": _Runner.symmetry_suite,
    "rank1": _Runner.rank1_suite,
}

SUITE_NAMES = tuple(_SUITES)


@dataclass(frozen=True)
class SuiteConfig:
    rank: int
    param_sets: tuple = ()          # (name, RepParams, window) triples
    suites: tuple = SUITE_NAMES

    def __post_init__(self):
        check_rank(self.rank)
        for k, s in enumerate(self.suites):
            if s not in SUITE_NAMES:
                raise ConfigError(f"unknown suite {s!r}")
            if s in self.suites[:k]:
                raise ConfigError(f"suite {s!r} named twice")
        for name, params, window in self.param_sets:
            if window < 0:
                raise ConfigError(
                    f"parameter set {name!r} has negative window {window}")
            errs = validate_params(params, window)
            if errs:
                raise ConfigError(
                    f"parameter set {name!r} invalid at window {window}: "
                    + "; ".join(errs))


def run_suite(cfg: SuiteConfig) -> VerificationReport:
    try:
        return _Runner(cfg).run()
    finally:
        # the shared rewrites serve one run's contexts, never the next run
        _contiguous_words.cache_clear()


# -- double-commutator machinery ---------------------------------------------------

def substituted_defect(rank: int, a: Gen, b: Gen, c: Gen) -> NCPoly:
    """The cyclic double-commutator sum with the inner commutators replaced
    by their catalog values; zero in the quotient iff the catalog is
    consistent with associativity for this triple."""
    pa, pb, pc = (NCPoly.from_word(rank, (g,)) for g in (a, b, c))
    kbc = catalog_commutator(rank, b, c)
    kca = catalog_commutator(rank, c, a)
    kab = catalog_commutator(rank, a, b)
    return ((pa * kbc - kbc * pa) + (pb * kca - kca * pb)
            + (pc * kab - kab * pc))


def triple_case(a: Gen, b: Gen, c: Gen) -> str:
    """Overlap-pattern label for a generator triple (names the special
    two-half-commutator shapes explicitly)."""
    kinds = sorted(g.kind + str(len(g.indices)) for g in (a, b, c))
    ds = [g for g in (a, b, c) if g.kind == "D"]
    ps = [g for g in (a, b, c) if g.kind == "P" and len(g.indices) == 2]
    if len(ds) == 2 and len(ps) == 1:
        A, B = (set(d.indices) for d in ds)
        if len(A & B) == 2:
            pair = set(ps[0].indices)
            shared = A & B
            privates = (A | B) - shared
            if pair == privates:
                return "pair-joins-privates"
            if pair == shared:
                return "pair-is-shared-edge"
            if len(pair & privates) == 1 and len(pair & shared) == 1:
                return "pair-straddles"
        return "pair-with-two-halves"
    if len(ds) == 3:
        return "three-halves"
    return "+".join(kinds)


def _triple_orbits(rank: int, triples):
    """Each relabeling orbit of ``triples`` (all of them, in
    ``itertools.combinations`` order): its first triple and its size.  The
    adjacent transpositions (a a+1) generate every relabeling of 1..rank,
    so a search along them reaches the whole orbit.  A triple is a set of
    letters, so each transposition's letter table is read without its
    signs."""
    tables = [symmetry.IndexPermutation.transposition(rank, a, a + 1)
              .letter_map(rank)[0] for a in range(1, rank)]
    moves = [lambda t, images=images: frozenset(map(images.__getitem__, t))
             for images in tables]
    seen = set()
    for triple in triples:
        start = frozenset(triple)
        if start not in seen:
            orbit = symmetry.orbit_of(start, moves)
            seen.update(orbit)
            yield triple, len(orbit)


def run_jacobi(run: _Runner):
    """Every unordered triple of shift/half-commutator generators.

    All triples reduce for 3 or 4 indices, and a deterministic sample of
    them is also checked in each representation context; for 5 or more the
    outcome is reported per relabeling orbit without presuming the closure
    conjecture.
    """
    rank = run.cfg.rank
    triples = list(itertools.combinations(core_generators(rank), 3))
    if rank in (3, 4):
        step = max(1, len(triples) // 8)
        for k, (a, b, c) in enumerate(triples):
            poly = substituted_defect(rank, a, b, c)
            payload = f"{a}|{b}|{c}"
            run.symbolic(("jacobi", "triple", payload, triple_case(a, b, c)),
                         poly)
            if k % step == 0:
                run.represent(("jacobi", "triple", payload,
                               "operator identity"), poly)
        return
    for (a, b, c), size in _triple_orbits(rank, triples):
        run.symbolic(("jacobi", "triple-orbit", f"{a}|{b}|{c} (x{size})",
                      triple_case(a, b, c)),
                     substituted_defect(rank, a, b, c))


# -- relation catalog export ----------------------------------------------------

def relation_catalog(rank: int) -> list[dict]:
    return [{"family": family, "payload": rid.payload(), "anchor": fam.anchor}
            for family, fam in FAMILIES.items()
            for rid in enumerate_relations(rank, family)]


# -- serialization ----------------------------------------------------------------

def emit_report(report: VerificationReport, fmt: str = "json") -> bytes:
    """Deterministic serialization (no wall-clock content, sorted records)."""
    if fmt == "json":
        # json.dumps(doc, indent=2, sort_keys=True), its "instances" (whose
        # key sorts first) encoded one at a time; their fields are strings,
        # so the C encoder's item separator lays out their lines
        line = json.JSONEncoder(sort_keys=True,
                                separators=(",\n      ", ": ")).encode
        parts = [b'{\n  "instances": [']
        for r in report.records:
            sep = "," if len(parts) > 1 else ""
            text = f"{sep}\n    {{\n      {line(vars(r))[1:-1]}\n    }}"
            parts.append(text.encode())
        rest = json.dumps({"rank": report.rank, "suites": list(report.suites),
                           "param_sets": [list(p) for p in report.param_sets],
                           "summary": report.summary()},
                          indent=2, sort_keys=True)
        parts.append((("\n  ]," if report.records else "],") + rest[1:]
                      + "\n").encode())
        return b"".join(parts)
    if fmt == "human":
        lines = [f"rank {report.rank}; suites: {', '.join(report.suites)}"]
        for name, desc, w in report.param_sets:
            lines.append(f"params[{name}]: {desc} window {w}")
        for r in report.records:
            ctx = f" ({r.context})" if r.context else ""
            tail = f"  !! {r.witness}" if r.witness and r.status == FAILED else ""
            lines.append(f"[{r.suite}] {r.family} {r.payload}  "
                         f"{r.method}{ctx}: {r.status}  -- {r.anchor}{tail}")
        s = report.summary()
        lines.append(f"summary: {s[PROVED]} proved-zero, {s[ONWINDOW]} "
                     f"zero-on-window, {s[INCONCLUSIVE]} inconclusive, "
                     f"{s[FAILED]} FAILED")
        return ("\n".join(lines) + "\n").encode()
    raise ConfigError(f"unknown format {fmt!r}")


# -- flat key=value config files ---------------------------------------------------

# the one number grammar of a params file and of the CLI's integer flags:
# ASCII digits, an optional sign, and for a rational an optional /q; no
# decimals, exponents or separators
ASCII_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if "." in text:
        raise ConfigError(f"decimals are rejected; write {text!r} as p/q")
    if not _RATIONAL.fullmatch(text):
        raise ConfigError(f"bad rational {text!r}: write p or p/q")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ConfigError(f"bad rational {text!r}: zero denominator") from None


def parse_config(text: str) -> dict:
    """Flat key = value lines; '#' starts a comment.  Keys: c1..c4, N as
    exact rationals, and window (integer).  A file holds parameters only:
    suites come from ``--suites``, and there is no seed key, because the
    file gives its parameters explicitly and no seed is drawn from."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ConfigError(f"line {lineno}: key {key!r} given twice")
        if key in ("c1", "c2", "c3", "c4", "N"):
            out[key] = parse_rational(val)
        elif key == "window":
            if not ASCII_INTEGER.fullmatch(val):
                raise ConfigError(f"line {lineno}: window must be an integer")
            out[key] = int(val)
            if out[key] < 0:
                raise ConfigError(f"line {lineno}: window must be >= 0")
        elif key == "seed":
            raise ConfigError(
                f"line {lineno}: a params file gives explicit parameters,"
                " so there is no seed to draw them from; remove the seed key")
        elif key == "suites":
            raise ConfigError(
                f"line {lineno}: a params file gives parameters, not suites;"
                " choose suites with --suites")
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    return out


def params_from_config(cfg: dict) -> RepParams:
    missing = [k for k in ("c1", "c2", "c3", "c4", "N") if k not in cfg]
    if missing:
        raise ConfigError(f"config lacks keys: {', '.join(missing)}")
    return RepParams(cfg["c1"], cfg["c2"], cfg["c3"], cfg["c4"], cfg["N"])
