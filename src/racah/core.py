"""The Racah generator catalog: subset generators, shift generators, their
relation families, basis decomposition, Casimir elements, and compilation of
the normal-ordering rewrite system.

Relations are stored as lhs - rhs polynomials (each asserted to lie in the
relation ideal); the same catalog feeds both the rewrite engine and the
representation checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, NamedTuple

from .freealg import (
    CORE_KINDS,
    HALF,
    AlgebraError,
    Gen,
    NCPoly,
    RewriteRule,
    RewriteSystem,
    ScheduleError,
    Word,
    anticommutator as acom,
    commutator as com,
)


def check_rank(n: int) -> None:
    """Refuse an ambient number of base indices (3 for rank 1, 4 for rank
    2, ...) outside 3..9."""
    if not (3 <= n <= 9):
        raise AlgebraError(f"rank-index count must be in 3..9, got {n}")


def _check_indices(rank: int, idx) -> None:
    check_rank(rank)
    for i in idx:
        if not (1 <= i <= rank):
            raise AlgebraError(f"index {i} out of range 1..{rank}")


def _perm_sign(seq) -> int:
    sign = 1
    lst = list(seq)
    for i in range(len(lst)):
        for j in range(i + 1, len(lst)):
            if lst[i] > lst[j]:
                sign = -sign
    return sign


def subsets(rank: int):
    """Nonempty subsets of {1..rank}, by size, then lexicographically."""
    idx = range(1, rank + 1)
    for r in range(1, rank + 1):
        yield from itertools.combinations(idx, r)


# -- generator constructors ---------------------------------------------------

def gen_C(rank: int, I) -> NCPoly:
    """Subset generator; the index order supplied is irrelevant."""
    idx = tuple(sorted(set(I)))
    if not idx:
        raise AlgebraError("subset generator needs a nonempty index set")
    _check_indices(rank, idx)
    return NCPoly.from_word(rank, (Gen("C", idx),))


def gen_P(rank: int, i: int, j: int) -> NCPoly:
    """Shift generator, symmetric in its indices; P with a repeated
    subscript is the singleton generator (equal to minus the subset
    generator at the expansion layer)."""
    _check_indices(rank, (i, j))
    idx = (i,) if i == j else tuple(sorted((i, j)))
    return NCPoly.from_word(rank, (Gen("P", idx),))


def gen_P1(rank: int, i: int) -> NCPoly:
    return gen_P(rank, i, i)


def d_poly(rank: int, i: int, j: int, k: int) -> NCPoly:
    """Half-commutator generator: the sorted-index letter times the parity
    of (i, j, k), so cyclic reorderings keep the sign and single flips
    negate it."""
    if len({i, j, k}) != 3:
        raise AlgebraError(f"repeated index in ({i},{j},{k})")
    _check_indices(rank, (i, j, k))
    return NCPoly.from_word(rank, (Gen("D", tuple(sorted((i, j, k)))),),
                            _perm_sign((i, j, k)))


def points_subset(rank: int, points) -> tuple[int, ...]:
    """A subset of {1..rank+1} read up to complement as a subset of
    {1..rank}: ``points`` itself, or its complement when it holds rank+1."""
    J = set(points)
    return tuple(sorted(set(range(1, rank + 2)) - J if rank + 1 in J else J))


# -- pentagon labels (rank 2 only) ---------------------------------------------

def pentagon_poly(rank: int, kind: str, k: int) -> NCPoly:
    """The subset polynomial a pentagon label names.  The labels sit on the
    pentagon 1-2-3-4-5-1 (vertices mod 5, with 5 for 0): ``om_k`` is the
    vertex k and ``Om_k`` the edge {k+2, k+3}, each read as a subset of
    {1..4} up to complement, and ``Ga_k = ½[Om_{k+2}, Om_{k-2}]``.  The
    labels are names, not letters of the alphabet."""
    if rank != 4:
        raise AlgebraError("pentagon labels need exactly 4 indices")
    if k not in range(5):
        raise AlgebraError(f"pentagon label {kind}{k} is not one of 0..4")
    if kind == "Ga":
        return HALF * com(pentagon_poly(rank, "Om", (k + 2) % 5),
                          pentagon_poly(rank, "Om", (k - 2) % 5))
    if kind not in ("Om", "om"):
        raise AlgebraError(f"unknown pentagon kind {kind!r}")
    vertices = (k + 2, k + 3) if kind == "Om" else (k,)
    return gen_C(rank, points_subset(rank, (v % 5 or 5 for v in vertices)))


def _labels(rank: int) -> list[Callable[[int], NCPoly]]:
    """``Om``, ``om`` and ``Ga`` as functions of a vertex taken mod 5."""
    return [lambda k, kind=kind: pentagon_poly(rank, kind, k % 5)
            for kind in ("Om", "om", "Ga")]


# -- alphabet conversions -----------------------------------------------------

def expand_to_C(p: NCPoly) -> NCPoly:
    """Rewrite shift and half-commutator letters as subset words."""

    def image(g: Gen) -> NCPoly:
        if g.kind == "C":
            return NCPoly.from_word(p.rank, (g,))
        if g.kind == "P":
            if len(g.indices) == 1:
                return -gen_C(p.rank, g.indices)
            i, j = g.indices
            return gen_C(p.rank, (i, j)) - gen_C(p.rank, (i,)) - gen_C(p.rank, (j,))
        i, j, k = g.indices
        return HALF * com(gen_C(p.rank, (i, j)), gen_C(p.rank, (j, k)))

    return p.substitute(image)


def expand_C_to_shifts(rank: int, idx: tuple[int, ...]) -> NCPoly:
    """Subset generator as a linear combination of shift generators:
    the sum of all pair shifts inside the set minus its singleton shifts."""
    out = NCPoly.zero(rank)
    for i, j in itertools.combinations(idx, 2):
        out = out + gen_P(rank, i, j)
    for i in idx:
        out = out - gen_P1(rank, i)
    return out


CONTIGUOUS = {
    3: ((1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3)),
    4: ((1,), (2,), (3,), (4,), (1, 2), (2, 3), (3, 4),
        (1, 2, 3), (2, 3, 4), (1, 2, 3, 4)),
}


def decompose_to_basis(rank: int, I) -> NCPoly:
    """Express a subset generator in the contiguous basis (ranks 3 and 4).

    Basis elements map to themselves; an interval-free subset is solved out
    of the decomposition relation whose middle block is its gap, and every
    other letter of that relation is contiguous.
    """
    idx = tuple(sorted(set(I)))
    _check_indices(rank, idx)
    if rank not in CONTIGUOUS:
        raise AlgebraError("contiguous basis is defined for 3 or 4 indices")
    if idx in CONTIGUOUS[rank]:
        return gen_C(rank, idx)
    gap = tuple(x for x in range(idx[0], idx[-1]) if x not in idx)
    low = tuple(x for x in idx if x < gap[0])
    high = tuple(x for x in idx if x > gap[-1])
    return _orient(_rel_decomposition(rank, low, gap, high), (Gen("C", idx),))


@lru_cache(maxsize=None)
def _contiguous_image(rank: int, g: Gen) -> NCPoly:
    """One letter rewritten over contiguous subset generators."""
    if g.kind == "C":
        return decompose_to_basis(rank, g.indices)
    return to_contiguous(expand_to_C(NCPoly.from_word(rank, (g,))))


def to_contiguous(p: NCPoly) -> NCPoly:
    """Any polynomial, rewritten over contiguous subset generators only:
    each letter replaced by its image (``_contiguous_image``), multiplied
    out in integer numerators by ``NCPoly.substitute``, so no ``Fraction``
    is made."""
    return p.substitute(partial(_contiguous_image, p.rank))


# -- rules solved out of catalog relations ----------------------------------

def _orient(rel: NCPoly, word) -> NCPoly:
    """The replacement for ``word`` that the ideal member ``rel`` gives:
    ``rel`` solved for ``word``."""
    return NCPoly.from_word(rel.rank, word) - (1 / rel.coeff(word)) * rel


# The index sets of the two letters each commutator family's anchor
# brackets, by payload: a pair is a shift letter, a triple a half-commutator.
_COMMUTATOR_OF: dict[str, Callable[..., tuple[tuple, tuple]]] = {
    "ddef": lambda i, j, k: ((i, j), (j, k)),
    "inner_P": lambda i, j, k: ((j, k), (i, j, k)),
    "outer_P": lambda i, j, k, l: ((i, j), (j, k, l)),
    "dd": lambda i, j, k, l, orient: ((i, j, k), (j, k, l)),
    "dd_one_overlap": lambda i, j, k, l, m: ((i, j, k), (k, l, m)),
}


@lru_cache(maxsize=None)
def _commutator_instances(rank: int) -> dict[tuple[Gen, Gen], RelationId]:
    """``(a, b) -> the instance whose commutator is [a, b]``, with ``a``
    sorting after ``b``; the first instance in catalog order wins.  A pair
    with no entry commutes."""
    table: dict[tuple[Gen, Gen], RelationId] = {}
    for family, letters in _COMMUTATOR_OF.items():
        for rid in enumerate_relations(rank, family):
            a, b = sorted((Gen("P" if len(s) == 2 else "D", tuple(sorted(s)))
                           for s in letters(*rid.indices)),
                          key=Gen.sort_key, reverse=True)
            table.setdefault((a, b), rid)
    return table


def catalog_commutator(rank: int, a: Gen, b: Gen) -> NCPoly:
    """[a, b] for canonical core letters, solved out of the family instance
    whose commutator it is.

    Covers every pair of shift / half-commutator generators; the Jacobi
    checks consume it, and rule compilation solves the same instances
    (``_commutator_instances``) for the out-of-order word.
    """
    if a.kind not in CORE_KINDS or b.kind not in CORE_KINDS:
        raise AlgebraError(f"no catalog entry for [{a}, {b}]")
    if b.sort_key() > a.sort_key():
        return -catalog_commutator(rank, b, a)
    rid = _commutator_instances(rank).get((a, b))
    if rid is None:
        return NCPoly.zero(rank)
    return _orient(relation(rid), (a, b)) - NCPoly.from_word(rank, (b, a))


def singleton_elimination(rank: int, l: int, d: Gen) -> NCPoly:
    """Replacement for the word (singleton l) * (half-commutator d) when
    l misses d's indices, solved out of the four-term sum identity."""
    return _orient(_rel_pd_sum(rank, l, *d.indices), (Gen("P", (l,)), d))


# -- rewrite system compilation ------------------------------------------------

def core_generators(rank: int) -> list[Gen]:
    """The letters the rewrite system orders: singleton shifts, pair
    shifts, then half-commutators."""
    idx = range(1, rank + 1)
    return ([Gen("P", (i,)) for i in idx]
            + [Gen("P", t) for t in itertools.combinations(idx, 2)]
            + [Gen("D", t) for t in itertools.combinations(idx, 3)])


def alphabet(rank: int) -> list[Gen]:
    """Every letter at this rank: the core generators, then the subset
    generators."""
    return core_generators(rank) + [Gen("C", s) for s in subsets(rank)]


def base_rules(rank: int) -> list[RewriteRule]:
    """The normal-ordering rules for the given rank before saturation: the
    expansions, the catalog swaps and the singleton eliminations."""
    check_rank(rank)
    core = sorted(core_generators(rank), key=Gen.sort_key)
    commutators = _commutator_instances(rank)
    rules: list[RewriteRule] = []
    for s in subsets(rank):
        rules.append(RewriteRule(
            (Gen("C", s),), expand_C_to_shifts(rank, s),
            "expand", "foreign letters"))
    for hi in range(len(core)):
        for lo in range(hi):
            x, y = core[hi], core[lo]
            # a pair with no catalog commutator commutes
            rid = commutators.get((x, y))
            body = (NCPoly.from_word(rank, (y, x)) if rid is None
                    else _orient(relation(rid), (x, y)))
            rules.append(RewriteRule(
                (x, y), body, "swap",
                "inversions; commutator terms drop degree or length"))
    for g in core:
        if g.kind != "P" or len(g.indices) != 1:
            continue
        (l,) = g.indices
        for d in core:
            if d.kind == "D" and l not in d.indices:
                rules.append(RewriteRule(
                    (g, d), singleton_elimination(rank, l, d),
                    "eliminate", "singleton count"))
    return rules


def base_rewrite_system(rank: int) -> RewriteSystem:
    """A fresh system over ``base_rules``, before saturation."""
    return RewriteSystem(rank, alphabet(rank), base_rules(rank))


def build_rewrite_system(rank: int) -> RewriteSystem:
    """A fresh normal-ordering system for the given rank, with an empty
    memo.  Ranks 3-6 replay their recorded saturation schedule, computing
    each derived rule from its seed product's reduction (a stale entry
    raises ``ScheduleError``); ranks 7-9 take no saturation step
    (``with_relabelled_rules``).  That the compiled system is a fixpoint,
    that a search over it adopts no further rule, is checked by the tests
    (ranks 3-6, and 7-9 in CI), not here."""
    if rank > 6:
        return with_relabelled_rules(rank, base_rules(rank))
    rs = base_rewrite_system(rank)
    rs.saturate(*saturation_seeds(rank), schedule=saturation_schedule(rank))
    return rs


def with_relabelled_rules(rank: int, base: list[RewriteRule]) -> RewriteSystem:
    """The system over the base rules plus the images of the full-support
    derived rules of ranks 4-6 under each increasing map {1..k} ->
    {1..rank}, sorted as ``saturate`` sorts its rules: the system commutes
    with such a relabelling, and a seed product spans at most six indices.
    Each map's letter table is dropped once its rules are mapped (rank 9
    has 336 maps).  A repeated left-hand side raises."""
    images = sorted((RewriteRule(tuple(map(t[0].__getitem__, r.lhs)),
                                 relabel(r.rhs, t, rank), r.name, r.grade_drop)
                     for k, sources in _full_support_rules()
                     for t in map(relabel_table, itertools.combinations(
                         range(1, rank + 1), k))
                     for r in sources),
                    key=lambda r: [g.sort_key() for g in r.lhs])
    rules = base + images
    if len({r.lhs for r in rules}) != len(rules):
        raise AlgebraError(f"rank {rank}: a relabelled rule repeats an lhs")
    return RewriteSystem(rank, alphabet(rank), rules)


def relabel_table(images: tuple[int, ...]) -> tuple[dict, frozenset]:
    """The letter table of the index map i -> ``images[i - 1]`` on
    ``alphabet(len(images))``: each letter's indices mapped and sorted, and
    the ``D`` letters whose image ``d_poly`` negates (none if increasing)."""
    table = {x: Gen(x.kind, tuple(sorted(images[i - 1] for i in x.indices)))
             for x in alphabet(len(images))}
    flips = frozenset(x for x in table if x.kind == "D"
                      and _perm_sign([images[i - 1] for i in x.indices]) < 0)
    return table, flips


def relabel(p: NCPoly, table: tuple[dict, frozenset], rank: int) -> NCPoly:
    """``p`` moved into ``rank`` along a letter table: each letter becomes
    its image, a word changes sign once per negated letter; ``KeyError``
    for a letter the table lacks."""
    images, flips = table
    return NCPoly.from_pair(rank, p.den, {
        tuple(map(images.__getitem__, w)):
            n if not flips or sum(map(flips.__contains__, w)) % 2 == 0
            else -n
        for w, n in p.nums.items()})


@lru_cache(maxsize=None)
def _full_support_rules() -> tuple[tuple[int, tuple[RewriteRule, ...]], ...]:
    """``(k, rules)`` per rank k = 4-6: its derived rules using all of 1..k."""
    return tuple((k, tuple(r for r in build_rewrite_system(k).rules
                           if r.grade_drop == "word order at equal degree"
                           and len({i for g in r.lhs for i in g.indices})
                           == k)) for k in (4, 5, 6))


def saturation_schedule(rank: int) -> list[list[tuple[int, Word]]]:
    """The recorded saturation schedule of this rank, 3 to 6, as
    ``RewriteSystem.saturate`` takes it: per round, each seed product's
    index and the left-hand side it yields.  The table is the generated
    module ``racah.saturation_schedules`` (``scripts/rule_digest.py
    --search --write`` rewrites it), imported at the first compile only."""
    from .saturation_schedules import SCHEDULES

    if rank not in SCHEDULES:
        raise AlgebraError(f"no saturation schedule at rank {rank}")
    letter = {str(g): g for g in core_generators(rank)}
    blocks = [block for block in SCHEDULES[rank].split("\n\n")
              if block.strip()]
    schedule = []
    for k, block in enumerate(blocks, 1):
        entries = []
        where = f"rank {rank} saturation round {k}: entry"
        for entry in block.split():
            i, _, lhs = entry.partition(":")
            try:
                entries.append((int(i), tuple(letter[s]
                                              for s in lhs.split("*"))))
            except KeyError as exc:
                raise ScheduleError(f"{where} {entry} names {exc.args[0]}, no"
                                    f" letter of rank {rank}") from None
            except ValueError:
                raise ScheduleError(
                    f"{where} {entry} has no product index") from None
        schedule.append(entries)
    return schedule


def saturation_seeds(rank: int) -> tuple[list[NCPoly], list[Gen]]:
    """The certified relation-ideal members the rewrite system is saturated
    against, each four-term sum identity in both word orders, and the pair
    letters that multiply them on either side.  Their degree-four products
    carry the quadratic relations BETWEEN half-commutator products that
    plain normal ordering cannot see."""
    members = []
    for payload in _points_and_triple(rank):
        left = _rel_pd_sum(rank, *payload)
        right = NCPoly.from_pair(rank, left.den,
                                 {w[::-1]: n for w, n in left.nums.items()})
        members.extend((left, right))
    return members, [Gen("P", t) for t in
                     itertools.combinations(range(1, rank + 1), 2)]


@lru_cache(maxsize=None)
def rewrite_system(rank: int) -> RewriteSystem:
    """Shared per-rank system; its memo persists across callers."""
    return build_rewrite_system(rank)


# -- relation families ----------------------------------------------------------

@dataclass(frozen=True)
class RelationId:
    """One relation instance: a family name and its index payload."""

    family: str
    rank: int
    indices: tuple

    def payload(self) -> str:
        def fmt(x):
            if isinstance(x, tuple):
                return "".join(str(i) for i in x)
            return str(x)

        return ",".join(fmt(x) for x in self.indices)


def relation(rid: RelationId) -> NCPoly:
    """The instance's lhs - rhs polynomial (a relation-ideal member)."""
    return _family(rid.family).build(rid.rank, *rid.indices)


def enumerate_relations(rank: int, family: str) -> list[RelationId]:
    """Every instance of a family over {1..rank}: the payloads its
    ``FAMILIES`` entry enumerates, deduplicated only by the family's own
    symmetry; empty at a rank where the family does not exist."""
    check_rank(rank)
    return [RelationId(family, rank, tuple(payload))
            for payload in _family(family).instances(rank)]


def _family(name: str) -> "Family":
    try:
        return FAMILIES[name]
    except KeyError:
        raise AlgebraError(f"unknown relation family {name!r}") from None


def _rel_central(rank, I, J):
    return com(gen_C(rank, I), gen_C(rank, J))


def _rel_decomposition(rank, I, J, K):
    C = lambda s: gen_C(rank, s)
    return C(I + J + K) - C(I + J) - C(J + K) - C(I + K) + C(I) + C(J) + C(K)


def _rel_quad(rank, I, J, K):
    C = lambda s: gen_C(rank, s)
    lhs = HALF * com(C(J + K), com(C(I + J), C(J + K)))
    rhs = C(I + K) * C(J + K) - C(J + K) * C(I + J) \
        + (C(K) - C(J)) * (C(I) - C(I + J + K))
    return lhs - rhs


def _rel_quadB(rank, I, J, K):
    C = lambda s: gen_C(rank, s)
    lhs = HALF * com(C(K + I), com(C(I + J), C(J + K)))
    rhs = C(I + J) * C(K + I) - C(K + I) * C(J + K) \
        + (C(I) - C(K)) * (C(J) - C(I + J + K))
    return lhs - rhs


def _rel_d_cyclic(rank, I, J, K):
    C = lambda s: gen_C(rank, s)
    return com(C(I + J), C(J + K)) - com(C(K + I), C(I + J))


def _rel_ddef(rank, i, j, k):
    return com(gen_P(rank, i, j), gen_P(rank, j, k)) - 2 * d_poly(rank, i, j, k)


def _rel_inner(rank, i, j, k):
    P = lambda x, y: gen_P(rank, x, y)
    lhs = com(P(j, k), d_poly(rank, i, j, k))
    rhs = (P(j, k) - 2 * gen_P1(rank, j)) * P(k, i) \
        - P(i, j) * (P(j, k) - 2 * gen_P1(rank, k))
    return lhs - rhs


def _rel_outer(rank, i, j, k, l):
    P = lambda x, y: gen_P(rank, x, y)
    lhs = com(P(i, j), d_poly(rank, j, k, l))
    return lhs - (P(i, l) * P(j, k) - P(j, l) * P(i, k))


def _rel_dd(rank, i, j, k, l, orient):
    D = lambda x, y, z: d_poly(rank, x, y, z)
    lhs = com(D(i, j, k), D(j, k, l))
    if orient == "left":
        rhs = gen_P(rank, j, k) * (D(j, i, l) + D(i, l, k))
    elif orient == "right":
        rhs = (D(k, i, l) + D(j, i, l)) * gen_P(rank, j, k)
    else:
        raise AlgebraError(f"unknown orientation {orient!r}")
    return lhs - rhs


def _rel_dd_one_overlap(rank, i, j, k, l, m):
    D = lambda x, y, z: d_poly(rank, x, y, z)
    lhs = com(D(i, j, k), D(k, l, m))
    rhs = gen_P(rank, j, k) * D(l, m, i) - gen_P(rank, k, i) * D(j, l, m)
    return lhs - rhs


def _rel_dd_disjoint(rank, i, j, k, l, m, n):
    return com(d_poly(rank, i, j, k), d_poly(rank, l, m, n))


def _rel_pd_pair(rank, i, j, k, l):
    Ckl = gen_C(rank, (k, l))
    return com(Ckl, d_poly(rank, i, j, k)) + com(Ckl, d_poly(rank, i, j, l))


def _rel_pd_flip(rank, i, j, k, l):
    return com(gen_P(rank, i, j), d_poly(rank, j, k, l)) \
        + com(gen_P(rank, j, i), d_poly(rank, i, k, l))


def _rel_pd_exchange(rank, i, j, k, l):
    return com(gen_P(rank, i, j), d_poly(rank, j, k, l)) \
        - com(gen_P(rank, k, l), d_poly(rank, l, i, j))


def _rel_pd_cycle(rank, i, j, k, l):
    return (com(gen_P(rank, i, j), d_poly(rank, j, k, l))
            + com(gen_P(rank, k, j), d_poly(rank, j, l, i))
            + com(gen_P(rank, l, j), d_poly(rank, j, i, k)))


def _rel_pd_sum(rank, i, j, k, l):
    P = lambda x, y: gen_P(rank, x, y)
    D = lambda x, y, z: d_poly(rank, x, y, z)
    return (2 * gen_P1(rank, i) * D(j, k, l) + P(j, i) * D(i, k, l)
            + P(k, i) * D(i, l, j) + P(l, i) * D(i, j, k))


def _rel_gamma_def(rank, i):
    Om, _, Ga = _labels(rank)
    return com(Om(i + 2), Om(i - 2)) - 2 * Ga(i)


def _rel_gamma_sum(rank):
    _, _, Ga = _labels(rank)
    return sum((Ga(i) for i in range(5)), NCPoly.zero(rank))


def _rel_omega_central(rank, i, kind, j):
    return com(pentagon_poly(rank, "om", i), pentagon_poly(rank, kind, j))


def _rel_omega_commute(rank, i):
    Om, _, _ = _labels(rank)
    return com(Om(i - 1), Om(i + 1))


def _rel_omega_gamma_commute(rank, i):
    Om, _, Ga = _labels(rank)
    return com(Om(i), Ga(i))


def _rel_omega_inner(rank, i):
    Om, om, Ga = _labels(rank)
    lhs = com(Om(i), Ga(i + 2))
    rhs = (Om(i) * Om(i + 2) - acom(Om(i), Om(i - 1)) - Om(i) * Om(i)
           + (om(i + 1) + om(i + 2) + om(i + 3)) * Om(i)
           + (om(i + 2) - om(i + 3)) * Om(i + 2)
           + om(i + 1) * (om(i + 3) - om(i + 2)))
    return lhs - rhs


def _rel_omega_outer(rank, i):
    Om, om, Ga = _labels(rank)
    lhs = com(Om(i), Ga(i + 1))
    rhs = NCPoly.zero(rank)
    for k in range(5):
        sign = Fraction(1 if k % 2 == 0 else -1, 2)
        rhs = rhs + sign * acom(Om(i + k), Om(i + k - 1))
    rhs = (rhs + Om(i) * Om(i + 3)
           - om(i + 1) * (Om(i) + Om(i + 1))
           - om(i + 2) * (Om(i + 2) + Om(i + 3))
           - om(i - 1) * Om(i - 1)
           + om(i + 1) * om(i + 2)
           + om(i + 1) * om(i - 1)
           + om(i + 2) * om(i - 1))
    return lhs - rhs


def presentation_rank1(rank: int = 3) -> list[NCPoly]:
    """The three relations of the rank-1 algebra's presentation on indices
    1,2,3."""
    C = lambda *s: gen_C(rank, s)
    A = C(2, 3)
    B = C(1, 2)
    # the presentation's D is pinned by its first relation: D = (1/2)[A, B],
    # which is minus the sorted-index half-commutator generator
    D = HALF * com(A, B)
    alpha = (C(2) - C(3)) * (C(1) - C(1, 2, 3))
    beta = (C(1) - C(2)) * (C(3) - C(1, 2, 3))
    delta = C(1, 2, 3) + C(1) + C(2) + C(3)
    return [
        com(A, B) - 2 * D,
        com(A, D) - (acom(A, B) + A * A - delta * A + alpha),
        com(D, B) - (acom(A, B) + B * B - delta * B - beta),
    ]


def _rel_pres_rank1(rank, which):
    return presentation_rank1(rank)[which]


# -- instance enumeration --------------------------------------------------------
# Each enumerator yields the payloads of its families over {1..rank}, and
# nothing at a rank where they do not exist.

def _disjoint_triples(rank: int):
    """Ordered triples of pairwise-disjoint nonempty subsets."""
    subs = list(subsets(rank))
    for I in subs:
        for J in subs:
            if set(I) & set(J):
                continue
            for K in subs:
                if set(K) & (set(I) | set(J)):
                    continue
                yield I, J, K


def _nested_or_disjoint_pairs(rank: int):
    for I, J in itertools.combinations(subsets(rank), 2):
        si, sj = set(I), set(J)
        if si <= sj or sj <= si or not (si & sj):
            yield I, J


def _three_block_partitions(rank: int):
    seen = set()
    for triple in _disjoint_triples(rank):
        key = frozenset(triple)
        if key not in seen:
            seen.add(key)
            yield triple


def _apex_pairs(rank: int):
    idx = range(1, rank + 1)
    for j in idx:
        for i, k in itertools.combinations([i for i in idx if i != j], 2):
            yield i, j, k


def _pairs_and_third(rank: int):
    idx = range(1, rank + 1)
    for j, k in itertools.combinations(idx, 2):
        for i in idx:
            if i not in (j, k):
                yield i, j, k


def _ordered_pairs_and_pair(rank: int):
    idx = range(1, rank + 1)
    for i, j in itertools.permutations(idx, 2):
        rest = [x for x in idx if x not in (i, j)]
        for k, l in itertools.combinations(rest, 2):
            yield i, j, k, l


def _unordered_pairs_and_pair(rank: int):
    # symmetric in the first pair
    return (q for q in _ordered_pairs_and_pair(rank) if q[0] < q[1])


def _points_and_triple(rank: int):
    idx = range(1, rank + 1)
    for l in idx:
        for tri in itertools.combinations([x for x in idx if x != l], 3):
            yield (l, *tri)


def _d_pairs_sharing_two(rank: int):
    triples = itertools.combinations(range(1, rank + 1), 3)
    for A, B in itertools.combinations(triples, 2):
        shared = sorted(set(A) & set(B))
        if len(shared) != 2:
            continue
        j, k = shared
        (i,) = set(A) - set(B)
        (l,) = set(B) - set(A)
        for orient in ("left", "right"):
            yield i, j, k, l, orient


def _d_pairs_sharing_one(rank: int):
    triples = itertools.combinations(range(1, rank + 1), 3)
    for A, B in itertools.permutations(triples, 2):
        shared = set(A) & set(B)
        if len(shared) != 1:
            continue
        (x,) = shared
        i, j = sorted(set(A) - shared)
        l, m = sorted(set(B) - shared)
        yield i, j, x, l, m


def _disjoint_d_pairs(rank: int):
    triples = itertools.combinations(range(1, rank + 1), 3)
    for A, B in itertools.combinations(triples, 2):
        if not set(A) & set(B):
            yield (*A, *B)


def _at_rank_4(payloads: tuple):
    """The pentagon families exist only at 4 indices."""
    return lambda rank: payloads if rank == 4 else ()


_VERTICES = tuple((i,) for i in range(5))
_OMEGA_PAIRS = tuple((i, kind, j) for i in range(5) for kind in ("om", "Om", "Ga")
                     for j in range(5) if kind != "om" or j > i)


class Family(NamedTuple):
    anchor: str                                    # the relation as stated
    build: Callable[..., NCPoly]                   # (rank, *payload) -> lhs - rhs
    instances: Callable[[int], Iterable[tuple]]    # rank -> payloads


# The one declaration of every relation family, in catalog order.
FAMILIES: dict[str, Family] = {
    "central": Family("[C_I, C_J] = 0 when I lies inside J or is disjoint"
                      " from it", _rel_central, _nested_or_disjoint_pairs),
    "decomposition": Family("C_IJK = C_IJ + C_JK + C_IK - C_I - C_J - C_K",
                            _rel_decomposition, _three_block_partitions),
    "quad": Family("(1/2)[C_JK,[C_IJ,C_JK]] = C_IK C_JK - C_JK C_IJ"
                   " + (C_K-C_J)(C_I-C_IJK)", _rel_quad, _disjoint_triples),
    "quadB": Family("(1/2)[C_KI,[C_IJ,C_JK]] = C_IJ C_KI - C_KI C_JK"
                    " + (C_I-C_K)(C_J-C_IJK)", _rel_quadB, _disjoint_triples),
    "d_cyclic": Family("[C_IJ, C_JK] = [C_KI, C_IJ]",
                       _rel_d_cyclic, _disjoint_triples),
    "ddef": Family("[P_ij, P_jk] = 2 D_ijk", _rel_ddef, _apex_pairs),
    "inner_P": Family("[P_jk, D_ijk] = (P_jk - 2P_j) P_ki - P_ij (P_jk - 2P_k)",
                      _rel_inner, _pairs_and_third),
    "outer_P": Family("[P_ij, D_jkl] = P_il P_jk - P_jl P_ik",
                      _rel_outer, _ordered_pairs_and_pair),
    "dd": Family("[D_ijk, D_jkl] = P_jk (D_jil + D_ilk); right-ordered"
                 " variant too", _rel_dd, _d_pairs_sharing_two),
    "pdt": Family("P_il D_ljk + P_jl D_lki + P_kl D_lij + 2 P_l D_ijk = 0",
                  _rel_pd_sum, _points_and_triple),
    "pd_pair": Family("[C_kl, D_ijk] + [C_kl, D_ijl] = 0",
                      _rel_pd_pair, _unordered_pairs_and_pair),
    "pd_flip": Family("[P_ij, D_jkl] = -[P_ji, D_ikl]",
                      _rel_pd_flip, _ordered_pairs_and_pair),
    "pd_exchange": Family("[P_ij, D_jkl] = [P_kl, D_lij]",
                          _rel_pd_exchange, _ordered_pairs_and_pair),
    "pd_cycle": Family("[P_ij, D_jkl] + [P_kj, D_jli] + [P_lj, D_jik] = 0",
                       _rel_pd_cycle, _ordered_pairs_and_pair),
    "pd_sum": Family("2 P_i D_jkl + P_ji D_ikl + P_ki D_ilj + P_li D_ijk = 0",
                     _rel_pd_sum, _points_and_triple),
    "pres_rank1": Family("[A,B] = 2D;  [A,D] = {A,B}+A^2-dA+a;"
                         "  [D,B] = {A,B}+B^2-dB-b",
                         _rel_pres_rank1, lambda rank: ((0,), (1,), (2,))),
    "dd_one_overlap": Family("[D_ijk, D_klm] = P_jk D_lmi - P_ki D_jlm",
                             _rel_dd_one_overlap, _d_pairs_sharing_one),
    "dd_disjoint": Family("[D_ijk, D_lmn] = 0 for disjoint triples",
                          _rel_dd_disjoint, _disjoint_d_pairs),
    "gamma_def": Family("[Om_{i+2}, Om_{i-2}] = 2 Ga_i",
                        _rel_gamma_def, _at_rank_4(_VERTICES)),
    "gamma_sum": Family("Ga_0 + Ga_1 + Ga_2 + Ga_3 + Ga_4 = 0",
                        _rel_gamma_sum, _at_rank_4(((),))),
    "omega_central": Family("[om_i, om_j] = [om_i, Om_j] = [om_i, Ga_j] = 0",
                            _rel_omega_central, _at_rank_4(_OMEGA_PAIRS)),
    "omega_commute": Family("[Om_{i-1}, Om_{i+1}] = 0",
                            _rel_omega_commute, _at_rank_4(_VERTICES)),
    "omega_gamma_commute": Family("[Om_i, Ga_i] = 0", _rel_omega_gamma_commute,
                                  _at_rank_4(_VERTICES)),
    "omega_inner": Family(
        "[Om_i, Ga_{i+2}] = Om_i Om_{i+2} - {Om_i,Om_{i-1}} - Om_i^2"
        " + (om_{i+1}+om_{i+2}+om_{i+3}) Om_i"
        " + (om_{i+2}-om_{i+3}) Om_{i+2} + om_{i+1}(om_{i+3}-om_{i+2})",
        _rel_omega_inner, _at_rank_4(_VERTICES)),
    "omega_outer": Family(
        "[Om_i, Ga_{i+1}] = sum_k (-1)^k/2 {Om_{i+k},Om_{i+k-1}}"
        " + Om_i Om_{i+3} - om_{i+1}(Om_i+Om_{i+1})"
        " - om_{i+2}(Om_{i+2}+Om_{i+3}) - om_{i-1} Om_{i-1}"
        " + om_{i+1}om_{i+2} + om_{i+1}om_{i-1} + om_{i+2}om_{i-1}",
        _rel_omega_outer, _at_rank_4(_VERTICES)),
}


# -- Casimir elements ------------------------------------------------------------

def _quartic_casimir(D, A, B, c1, c2, c3, c123) -> NCPoly:
    """The degree-4 central element of a rank-1 algebra generated by
    ``A = C12`` and ``B = C23`` with ``D`` their half-commutator, over the
    central ``c1``, ``c2``, ``c3`` and ``c123``."""
    return (D * D
            - HALF * acom(A * A, B)
            - HALF * acom(B * B, A)
            + A * A + B * B + acom(A, B)
            + HALF * (c1 + c2 + c3 + c123) * (acom(A, B) - 2 * A - 2 * B)
            + (c2 - c3) * (c123 - c1) * A
            + (c2 - c1) * (c123 - c3) * B
            + (c1 + c3) * (c123 + c2)
            + (c1 * c3 - c123 * c2) * (c123 - c1 + c2 - c3))


def casimir_rank1(rank: int = 3) -> NCPoly:
    """The degree-4 central element of the rank-1 algebra on indices 1,2,3."""
    C = lambda *s: gen_C(rank, s)
    return _quartic_casimir(d_poly(rank, 1, 2, 3), C(1, 2), C(2, 3),
                            C(1), C(2), C(3), C(1, 2, 3))


def casimir_frak(i: int) -> NCPoly:
    """The pentagon-labeled central element attached to vertex i (at 4
    indices, where the labels live): the rank-1 element with ``Ga_i``,
    ``Om_{i+2}``, ``Om_{i-2}``, the ``om_{i-1}``, ``om_i``, ``om_{i+1}`` and
    ``Om_i`` in place of ``D123``, ``C12``, ``C23``, ``C1``, ``C2``, ``C3``
    and ``C123``."""
    Om, om, _ = _labels(4)
    # the unwrapped label checks the vertex
    return _quartic_casimir(pentagon_poly(4, "Ga", i), Om(i + 2), Om(i - 2),
                            om(i - 1), om(i), om(i + 1), Om(i))
