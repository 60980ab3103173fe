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
from functools import lru_cache

from .freealg import (
    HALF,
    AlgebraError,
    Gen,
    NCPoly,
    RewriteRule,
    RewriteSystem,
    anticommutator as acom,
    commutator as com,
)


@dataclass(frozen=True)
class RankConfig:
    """Ambient number of base indices (3 for rank 1, 4 for rank 2, ...)."""

    n: int

    def __post_init__(self):
        if not (3 <= self.n <= 9):
            raise AlgebraError(f"rank-index count must be in 3..9, got {self.n}")

    @property
    def indices(self) -> range:
        return range(1, self.n + 1)


def _check_indices(rank: int, idx) -> None:
    RankConfig(rank)
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


def gen_D(rank: int, i: int, j: int, k: int) -> tuple[NCPoly, int]:
    """Half-commutator generator with its canonicalization sign.

    Returns (poly, sign) where poly is sign times the sorted-index word:
    cyclic reorderings keep the sign, single flips negate it.
    """
    if len({i, j, k}) != 3:
        raise AlgebraError(f"repeated index in ({i},{j},{k})")
    _check_indices(rank, (i, j, k))
    sign = _perm_sign((i, j, k))
    word = (Gen("D", tuple(sorted((i, j, k)))),)
    return NCPoly.from_word(rank, word, sign), sign


def d_poly(rank: int, i: int, j: int, k: int) -> NCPoly:
    return gen_D(rank, i, j, k)[0]


# -- pentagon relabeling (rank 2 only) ---------------------------------------

OMEGA_SETS = {0: (2, 3), 1: (3, 4), 2: (1, 2, 3), 3: (2, 3, 4), 4: (1, 2)}
SMALL_OMEGA_SETS = {0: (1, 2, 3, 4), 1: (1,), 2: (2,), 3: (3,), 4: (4,)}


def pentagon_gen(kind: str, k: int) -> Gen:
    if kind not in ("Om", "om", "Ga"):
        raise AlgebraError(f"unknown pentagon kind {kind!r}")
    return Gen(kind, (k % 5,))


def pentagon_poly(rank: int, kind: str, k: int) -> NCPoly:
    return NCPoly.from_word(rank, (pentagon_gen(kind, k),))


def pentagon_assign(kind: str, k: int, rank: int = 4) -> NCPoly:
    """What a pentagon label stands for, as a subset-generator polynomial."""
    if rank != 4:
        raise AlgebraError("the pentagon relabeling needs exactly 4 indices")
    k %= 5
    if kind == "Om":
        return gen_C(rank, OMEGA_SETS[k])
    if kind == "om":
        return gen_C(rank, SMALL_OMEGA_SETS[k])
    if kind == "Ga":
        a = gen_C(rank, OMEGA_SETS[(k + 2) % 5])
        b = gen_C(rank, OMEGA_SETS[(k - 2) % 5])
        return HALF * com(a, b)
    raise AlgebraError(f"unknown pentagon kind {kind!r}")


# -- alphabet conversions -----------------------------------------------------

def expand_to_C(p: NCPoly) -> NCPoly:
    """Rewrite shift, half-commutator and pentagon letters as subset words."""

    def image(g: Gen) -> NCPoly:
        if g.kind == "C":
            return NCPoly.from_word(p.rank, (g,))
        if g.kind == "P":
            if len(g.indices) == 1:
                return -gen_C(p.rank, g.indices)
            i, j = g.indices
            return gen_C(p.rank, (i, j)) - gen_C(p.rank, (i,)) - gen_C(p.rank, (j,))
        if g.kind == "D":
            i, j, k = g.indices
            return HALF * com(gen_C(p.rank, (i, j)), gen_C(p.rank, (j, k)))
        return expand_to_C(pentagon_assign(g.kind, g.indices[0], p.rank))

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


def expand_to_core(p: NCPoly) -> NCPoly:
    """Rewrite subset and pentagon letters into the shift/half-commutator
    alphabet the rewrite system orders."""

    def image(g: Gen) -> NCPoly:
        if g.kind in ("P", "D"):
            return NCPoly.from_word(p.rank, (g,))
        if g.kind == "C":
            return expand_C_to_shifts(p.rank, g.indices)
        return expand_to_core(expand_to_C(pentagon_assign(g.kind, g.indices[0], p.rank)))

    return p.substitute(image)


CONTIGUOUS = {
    3: ((1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3)),
    4: ((1,), (2,), (3,), (4,), (1, 2), (2, 3), (3, 4),
        (1, 2, 3), (2, 3, 4), (1, 2, 3, 4)),
}


def _interval_free_decompositions(rank: int) -> dict[tuple, NCPoly]:
    C = lambda *s: gen_C(rank, s)
    table = {(1, 3): C(1, 2, 3) - C(1, 2) - C(2, 3) + C(1) + C(2) + C(3)}
    if rank == 4:
        table |= {
            (2, 4): C(2, 3, 4) - C(2, 3) - C(3, 4) + C(2) + C(3) + C(4),
            (1, 4): C(1, 2, 3, 4) - C(1, 2, 3) - C(2, 3, 4) + C(1) + C(2, 3) + C(4),
            (1, 2, 4): C(1, 2, 3, 4) - C(1, 2, 3) + C(1, 2) - C(3, 4) + C(3) + C(4),
            (1, 3, 4): C(1, 2, 3, 4) - C(2, 3, 4) - C(1, 2) + C(3, 4) + C(1) + C(2),
        }
    return table


# the interval-free subsets of each rank, eliminated through the
# decomposition relation
_DECOMPOSITIONS = {rank: _interval_free_decompositions(rank) for rank in CONTIGUOUS}


def decompose_to_basis(rank: int, I) -> NCPoly:
    """Express a subset generator in the contiguous basis (ranks 3 and 4).

    Basis elements map to themselves; the handful of interval-free subsets
    are eliminated through the decomposition relation.
    """
    idx = tuple(sorted(set(I)))
    _check_indices(rank, idx)
    if rank not in CONTIGUOUS:
        raise AlgebraError("contiguous basis is defined for 3 or 4 indices")
    if idx in CONTIGUOUS[rank]:
        return gen_C(rank, idx)
    return _DECOMPOSITIONS[rank][idx]


@lru_cache(maxsize=None)
def _contiguous_image(rank: int, g: Gen) -> NCPoly:
    """One letter rewritten over contiguous subset generators."""
    if g.kind == "C":
        return decompose_to_basis(rank, g.indices)
    return to_contiguous(expand_to_C(NCPoly.from_word(rank, (g,))))


def to_contiguous(p: NCPoly) -> NCPoly:
    """Any polynomial, rewritten over contiguous subset generators only."""
    return p.substitute(lambda g: _contiguous_image(p.rank, g))


# -- the pairwise commutator catalog ------------------------------------------

def catalog_commutator(rank: int, a: Gen, b: Gen) -> NCPoly:
    """[a, b] for canonical core letters, read off the defining relations.

    Covers every pair of shift / half-commutator generators; this single
    table is what rule compilation and the Jacobi checks consume.
    """
    if a == b:
        return NCPoly.zero(rank)
    if a.kind == "P" and len(a.indices) == 1:
        return NCPoly.zero(rank)  # singletons are central
    if b.kind == "P" and len(b.indices) == 1:
        return NCPoly.zero(rank)
    if b.sort_key() > a.sort_key():
        return -catalog_commutator(rank, b, a)

    A, B = set(a.indices), set(b.indices)
    shared = A & B

    if a.kind == "P" and b.kind == "P":
        if len(shared) != 1:
            return NCPoly.zero(rank)
        (s,) = shared
        (u,) = A - shared
        (v,) = B - shared
        return 2 * d_poly(rank, u, s, v)

    if a.kind == "D" and b.kind == "P":
        # stated with the pair on the left: [P, D]; flip at the end
        pair, tri = B, A
        inter = pair & tri
        if not inter:
            return NCPoly.zero(rank)
        P = lambda x, y: gen_P(rank, x, y)
        if len(inter) == 2:
            # the pair sits inside the triple: interior quadratic relation
            j, k = sorted(inter)
            (i,) = tri - inter
            sign = _perm_sign((i, j, k))
            rhs = (P(j, k) - 2 * gen_P1(rank, j)) * P(k, i) \
                - P(i, j) * (P(j, k) - 2 * gen_P1(rank, k))
            return -(sign * rhs)
        # one shared index: outer relation
        (s,) = inter
        (i,) = pair - inter
        k, l = sorted(tri - inter)
        sign = _perm_sign((s, k, l))
        rhs = P(i, l) * P(s, k) - P(s, l) * P(i, k)
        return -(sign * rhs)

    if a.kind == "D" and b.kind == "D":
        shared_n = len(shared)
        if shared_n == 3 or shared_n == 0:
            # identical handled above; disjoint half-commutators commute
            return NCPoly.zero(rank)
        P = lambda x, y: gen_P(rank, x, y)
        D = lambda x, y, z: d_poly(rank, x, y, z)
        # compute [b, a] in the role layout of the statements, then flip
        if shared_n == 2:
            j, k = sorted(shared)
            (i,) = B - shared
            (l,) = A - shared
            sign = _perm_sign((i, j, k)) * _perm_sign((j, k, l))
            val = sign * (P(j, k) * (D(j, i, l) + D(i, l, k)))
        else:
            (x,) = shared
            i, j = sorted(B - shared)
            l, m = sorted(A - shared)
            sign = _perm_sign((i, j, x)) * _perm_sign((x, l, m))
            val = sign * (P(j, x) * D(l, m, i) - P(x, i) * D(j, l, m))
        return -val

    raise AlgebraError(f"no catalog entry for [{a}, {b}]")


def singleton_elimination(rank: int, l: int, d: Gen) -> NCPoly:
    """Replacement for the word (singleton l) * (half-commutator d) when
    l misses d's indices, read off the four-term sum identity."""
    i, j, k = d.indices
    P = lambda x, y: gen_P(rank, x, y)
    D = lambda x, y, z: d_poly(rank, x, y, z)
    return -HALF * (P(i, l) * D(l, j, k) + P(j, l) * D(l, k, i)
                    + P(k, l) * D(l, i, j))


def _ideal_product_candidates(rank: int) -> list[NCPoly]:
    """Certified relation-ideal members of degree four: each four-term sum
    identity (in both orderings), multiplied by every pair generator on
    either side.  Their residuals carry the quadratic relations BETWEEN
    half-commutator products that plain normal ordering cannot see.
    """
    idx = range(1, rank + 1)
    sums: list[NCPoly] = []
    for i in idx:
        for j, k, l in itertools.combinations([x for x in idx if x != i], 3):
            P = lambda x, y: gen_P(rank, x, y)
            D = lambda x, y, z: d_poly(rank, x, y, z)
            left = (2 * gen_P1(rank, i) * D(j, k, l) + P(j, i) * D(i, k, l)
                    + P(k, i) * D(i, l, j) + P(l, i) * D(i, j, k))
            right = (2 * D(j, k, l) * gen_P1(rank, i) + D(i, k, l) * P(j, i)
                     + D(i, l, j) * P(k, i) + D(i, j, k) * P(l, i))
            sums.extend((left, right))
    pairs = [gen_P(rank, i, j) for i, j in itertools.combinations(idx, 2)]
    out = []
    for t in sums:
        for p in pairs:
            out.append(p * t)
            out.append(t * p)
    return out


# -- rewrite system compilation ------------------------------------------------

def alphabet(rank: int) -> list[Gen]:
    gens: list[Gen] = []
    idx = range(1, rank + 1)
    for i in idx:
        gens.append(Gen("P", (i,)))
    for i, j in itertools.combinations(idx, 2):
        gens.append(Gen("P", (i, j)))
    for t in itertools.combinations(idx, 3):
        gens.append(Gen("D", t))
    for r in range(1, rank + 1):
        for s in itertools.combinations(idx, r):
            gens.append(Gen("C", s))
    if rank == 4:
        for kind in ("Om", "om", "Ga"):
            for k in range(5):
                gens.append(Gen(kind, (k,)))
    return gens


def build_rewrite_system(rank: int) -> RewriteSystem:
    """A fresh normal-ordering system for the given rank, saturated in
    place; its memo keeps the normal forms the saturation computed."""
    RankConfig(rank)
    gens = alphabet(rank)
    core = [g for g in gens if g.kind in ("P", "D")]
    core.sort(key=Gen.sort_key)
    rules: list[RewriteRule] = []
    for g in gens:
        if g.kind in ("P", "D"):
            continue
        rules.append(RewriteRule(
            (g,), expand_to_core(NCPoly.from_word(rank, (g,))),
            "expand", "foreign letters"))
    for hi in range(len(core)):
        for lo in range(hi):
            x, y = core[hi], core[lo]
            body = NCPoly.from_word(rank, (y, x)) + catalog_commutator(rank, x, y)
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
    rs = RewriteSystem(rank, gens, rules)
    # base rules first, then the derived ones in word order
    rs.rules = tuple(rules) + tuple(_derived_product_rules(rs))
    return rs


def _derived_product_rules(rs: RewriteSystem) -> list[RewriteRule]:
    """Saturate ``rs`` in place against the certified product identities;
    returns the rules it adopted, sorted by left-hand side.

    Every candidate is an explicit relation-ideal member, so its reduced
    residual is one too; a nonzero residual whose largest word has two
    letters becomes a new rule oriented at that word (every other residual
    word then sits strictly below it in the measure).  Each round adopts its
    rules together, and the next round re-reduces only the candidates with
    a word whose memoized normal form the new rules dropped: an unchanged
    residual cannot yield a rule, since its largest word is already a rule
    or failed a test that does not change (length, base-rule key,
    measure).  Repeats until a round yields no rule; there are finitely many
    two-letter words, so this stops.  No confluence claim is made for the
    result; it is merely a larger sound system.
    """
    if rs.rank < 4:
        return []
    rank = rs.rank
    candidates = _ideal_product_candidates(rank)
    swap_keys = {r.lhs for r in rs.rules}
    derived: dict = {}
    todo = candidates
    while True:
        added = []
        for cand in todo:
            resid = rs.reduce(cand)
            if resid.is_zero:
                continue
            lhs = max(resid.terms, key=rs.measure)
            if len(lhs) != 2 or lhs in derived or lhs in swap_keys:
                continue
            c = resid.terms[lhs]
            rhs = NCPoly.from_word(rank, lhs) - (1 / c) * resid
            top = rs.measure(lhs)
            if any(rs.measure(w) >= top for w in rhs.terms):
                continue
            derived[lhs] = RewriteRule(lhs, rhs, "swap",
                                       "word order at equal degree")
            added.append(derived[lhs])
        if not added:
            break
        dropped = rs.add_swap_rules(added)
        todo = [c for c in candidates if not dropped.isdisjoint(c.terms)]
    return [derived[k] for k in
            sorted(derived, key=lambda w: tuple(g.sort_key() for g in w))]


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


ANCHORS = {
    "central": "[C_I, C_J] = 0 when I lies inside J or is disjoint from it",
    "decomposition": "C_IJK = C_IJ + C_JK + C_IK - C_I - C_J - C_K",
    "quad": "(1/2)[C_JK,[C_IJ,C_JK]] = C_IK C_JK - C_JK C_IJ + (C_K-C_J)(C_I-C_IJK)",
    "quadB": "(1/2)[C_KI,[C_IJ,C_JK]] = C_IJ C_KI - C_KI C_JK + (C_I-C_K)(C_J-C_IJK)",
    "d_cyclic": "[C_IJ, C_JK] = [C_KI, C_IJ]",
    "ddef": "[P_ij, P_jk] = 2 D_ijk",
    "inner_P": "[P_jk, D_ijk] = (P_jk - 2P_j) P_ki - P_ij (P_jk - 2P_k)",
    "outer_P": "[P_ij, D_jkl] = P_il P_jk - P_jl P_ik",
    "dd": "[D_ijk, D_jkl] = P_jk (D_jil + D_ilk); right-ordered variant too",
    "dd_one_overlap": "[D_ijk, D_klm] = P_jk D_lmi - P_ki D_jlm",
    "dd_disjoint": "[D_ijk, D_lmn] = 0 for disjoint triples",
    "pdt": "P_il D_ljk + P_jl D_lki + P_kl D_lij + 2 P_l D_ijk = 0",
    "pd_pair": "[C_kl, D_ijk] + [C_kl, D_ijl] = 0",
    "pd_flip": "[P_ij, D_jkl] = -[P_ji, D_ikl]",
    "pd_exchange": "[P_ij, D_jkl] = [P_kl, D_lij]",
    "pd_cycle": "[P_ij, D_jkl] + [P_kj, D_jli] + [P_lj, D_jik] = 0",
    "pd_sum": "2 P_i D_jkl + P_ji D_ikl + P_ki D_ilj + P_li D_ijk = 0",
    "gamma_def": "[Om_{i+2}, Om_{i-2}] = 2 Ga_i",
    "gamma_sum": "Ga_0 + Ga_1 + Ga_2 + Ga_3 + Ga_4 = 0",
    "omega_central": "[om_i, om_j] = [om_i, Om_j] = [om_i, Ga_j] = 0",
    "omega_commute": "[Om_{i-1}, Om_{i+1}] = 0",
    "omega_gamma_commute": "[Om_i, Ga_i] = 0",
    "omega_inner": "[Om_i, Ga_{i+2}] = Om_i Om_{i+2} - {Om_i,Om_{i-1}} - Om_i^2"
                   " + (om_{i+1}+om_{i+2}+om_{i+3}) Om_i"
                   " + (om_{i+2}-om_{i+3}) Om_{i+2} + om_{i+1}(om_{i+3}-om_{i+2})",
    "omega_outer": "[Om_i, Ga_{i+1}] = sum_k (-1)^k/2 {Om_{i+k},Om_{i+k-1}}"
                   " + Om_i Om_{i+3} - om_{i+1}(Om_i+Om_{i+1})"
                   " - om_{i+2}(Om_{i+2}+Om_{i+3}) - om_{i-1} Om_{i-1}"
                   " + om_{i+1}om_{i+2} + om_{i+1}om_{i-1} + om_{i+2}om_{i-1}",
    "pres_rank1": "[A,B] = 2D;  [A,D] = {A,B}+A^2-dA+a;  [D,B] = {A,B}+B^2-dB-b",
}


def anchor(family: str) -> str:
    return ANCHORS[family]


def relation(rid: RelationId) -> NCPoly:
    """The instance's lhs - rhs polynomial (a relation-ideal member)."""
    builder = _BUILDERS.get(rid.family)
    if builder is None:
        raise AlgebraError(f"unknown relation family {rid.family!r}")
    return builder(rid.rank, *rid.indices)


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


def _rel_pdt(rank, l, i, j, k):
    P = lambda x, y: gen_P(rank, x, y)
    D = lambda x, y, z: d_poly(rank, x, y, z)
    return (P(i, l) * D(l, j, k) + P(j, l) * D(l, k, i)
            + P(k, l) * D(l, i, j) + 2 * gen_P1(rank, l) * D(i, j, k))


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


def _pent(rank, kind, k):
    return pentagon_poly(rank, kind, k)


def _rel_gamma_def(rank, i):
    return com(_pent(rank, "Om", i + 2), _pent(rank, "Om", i - 2)) \
        - 2 * _pent(rank, "Ga", i)


def _rel_gamma_sum(rank):
    out = NCPoly.zero(rank)
    for i in range(5):
        out = out + _pent(rank, "Ga", i)
    return out


def _rel_omega_central(rank, i, kind, j):
    return com(_pent(rank, "om", i), _pent(rank, kind, j))


def _rel_omega_commute(rank, i):
    return com(_pent(rank, "Om", i - 1), _pent(rank, "Om", i + 1))


def _rel_omega_gamma_commute(rank, i):
    return com(_pent(rank, "Om", i), _pent(rank, "Ga", i))


def _rel_omega_inner(rank, i):
    Om = lambda k: _pent(rank, "Om", k)
    om = lambda k: _pent(rank, "om", k)
    lhs = com(Om(i), _pent(rank, "Ga", i + 2))
    rhs = (Om(i) * Om(i + 2) - acom(Om(i), Om(i - 1)) - Om(i) * Om(i)
           + (om(i + 1) + om(i + 2) + om(i + 3)) * Om(i)
           + (om(i + 2) - om(i + 3)) * Om(i + 2)
           + om(i + 1) * (om(i + 3) - om(i + 2)))
    return lhs - rhs


def _rel_omega_outer(rank, i):
    Om = lambda k: _pent(rank, "Om", k)
    om = lambda k: _pent(rank, "om", k)
    lhs = com(Om(i), _pent(rank, "Ga", i + 1))
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


@dataclass(frozen=True)
class Rank1PresentationParams:
    alpha: NCPoly
    beta: NCPoly
    delta: NCPoly


def presentation_rank1(rank: int = 3) -> tuple[list[NCPoly], Rank1PresentationParams]:
    """The three-relation presentation of the rank-1 algebra on indices 1,2,3,
    with its central structure elements."""
    C = lambda *s: gen_C(rank, s)
    A = C(2, 3)
    B = C(1, 2)
    # the presentation's D is pinned by its first relation: D = (1/2)[A, B],
    # which is minus the sorted-index half-commutator generator
    D = HALF * com(A, B)
    alpha = (C(2) - C(3)) * (C(1) - C(1, 2, 3))
    beta = (C(1) - C(2)) * (C(3) - C(1, 2, 3))
    delta = C(1, 2, 3) + C(1) + C(2) + C(3)
    rels = [
        com(A, B) - 2 * D,
        com(A, D) - (acom(A, B) + A * A - delta * A + alpha),
        com(D, B) - (acom(A, B) + B * B - delta * B - beta),
    ]
    return rels, Rank1PresentationParams(alpha, beta, delta)


def _rel_pres_rank1(rank, which):
    return presentation_rank1(rank)[0][which]


_BUILDERS = {
    "central": _rel_central,
    "decomposition": _rel_decomposition,
    "quad": _rel_quad,
    "quadB": _rel_quadB,
    "d_cyclic": _rel_d_cyclic,
    "ddef": _rel_ddef,
    "inner_P": _rel_inner,
    "outer_P": _rel_outer,
    "dd": _rel_dd,
    "dd_one_overlap": _rel_dd_one_overlap,
    "dd_disjoint": _rel_dd_disjoint,
    "pdt": _rel_pdt,
    "pd_pair": _rel_pd_pair,
    "pd_flip": _rel_pd_flip,
    "pd_exchange": _rel_pd_exchange,
    "pd_cycle": _rel_pd_cycle,
    "pd_sum": _rel_pd_sum,
    "gamma_def": _rel_gamma_def,
    "gamma_sum": _rel_gamma_sum,
    "omega_central": _rel_omega_central,
    "omega_commute": _rel_omega_commute,
    "omega_gamma_commute": _rel_omega_gamma_commute,
    "omega_inner": _rel_omega_inner,
    "omega_outer": _rel_omega_outer,
    "pres_rank1": _rel_pres_rank1,
}

PENTAGON_FAMILIES = ("gamma_def", "gamma_sum", "omega_central",
                     "omega_commute", "omega_gamma_commute",
                     "omega_inner", "omega_outer")


# -- exhaustive instance enumeration -------------------------------------------

def _subsets(rank: int):
    idx = range(1, rank + 1)
    for r in range(1, rank + 1):
        yield from itertools.combinations(idx, r)


def _disjoint_triples(rank: int):
    """Ordered triples of pairwise-disjoint nonempty subsets."""
    subs = list(_subsets(rank))
    for I in subs:
        for J in subs:
            if set(I) & set(J):
                continue
            for K in subs:
                if set(K) & (set(I) | set(J)):
                    continue
                yield I, J, K


def enumerate_relations(rank: int, family: str) -> list[RelationId]:
    """Every instance of a family over {1..rank}, deduplicated only by the
    family's own symmetry.  Instance counts per family:

    central        pairs {I,J} with I inside J (one per containment) plus
                   unordered disjoint pairs
    decomposition  unordered partitions of a >=3 subset into three blocks
    quad, quadB,
    d_cyclic       ordered triples of disjoint nonempty subsets
    ddef           middle index x unordered outer pair (n(n-1)(n-2)/2)
    inner_P        unordered pair {j,k} x third index
    outer_P        ordered (i,j) x the remaining unordered pair
    dd             unordered D pairs sharing two indices, x 2 orientations
    pdt            one per (l, complementary triple)
    pd_pair        3 pair-partitions x 2 role orders = 6 at rank 4
    """
    out: list[RelationId] = []
    idx = list(range(1, rank + 1))

    def rid(*payload):
        out.append(RelationId(family, rank, tuple(payload)))

    if family == "central":
        subs = list(_subsets(rank))
        for a in range(len(subs)):
            for b in range(a + 1, len(subs)):
                I, J = subs[a], subs[b]
                si, sj = set(I), set(J)
                if si <= sj or sj <= si or not (si & sj):
                    rid(I, J)
    elif family == "decomposition":
        seen = set()
        for I, J, K in _disjoint_triples(rank):
            key = frozenset((I, J, K))
            if key not in seen:
                seen.add(key)
                rid(I, J, K)
    elif family in ("quad", "quadB", "d_cyclic"):
        for I, J, K in _disjoint_triples(rank):
            rid(I, J, K)
    elif family == "ddef":
        for j in idx:
            rest = [i for i in idx if i != j]
            for i, k in itertools.combinations(rest, 2):
                rid(i, j, k)
    elif family == "inner_P":
        for j, k in itertools.combinations(idx, 2):
            for i in idx:
                if i not in (j, k):
                    rid(i, j, k)
    elif family == "outer_P":
        for i in idx:
            for j in idx:
                if i == j:
                    continue
                rest = [x for x in idx if x not in (i, j)]
                for k, l in itertools.combinations(rest, 2):
                    rid(i, j, k, l)
    elif family == "dd":
        for A, B in itertools.combinations(itertools.combinations(idx, 3), 2):
            shared = sorted(set(A) & set(B))
            if len(shared) != 2:
                continue
            j, k = shared
            (i,) = set(A) - set(B)
            (l,) = set(B) - set(A)
            for orient in ("left", "right"):
                rid(i, j, k, l, orient)
    elif family == "dd_one_overlap":
        for A, B in itertools.permutations(itertools.combinations(idx, 3), 2):
            shared = set(A) & set(B)
            if len(shared) != 1:
                continue
            (x,) = shared
            i, j = sorted(set(A) - shared)
            l, m = sorted(set(B) - shared)
            rid(i, j, x, l, m)
    elif family == "dd_disjoint":
        for A, B in itertools.combinations(itertools.combinations(idx, 3), 2):
            if set(A) & set(B):
                continue
            rid(*A, *B)
    elif family == "pdt":
        for l in idx:
            for tri in itertools.combinations([x for x in idx if x != l], 3):
                rid(l, *tri)
    elif family in ("pd_pair", "pd_flip", "pd_exchange", "pd_cycle"):
        for i, j in itertools.permutations(idx, 2):
            rest = [x for x in idx if x not in (i, j)]
            for k, l in itertools.combinations(rest, 2):
                if family == "pd_pair" and (i, j) != tuple(sorted((i, j))):
                    continue  # symmetric in the first pair
                rid(i, j, k, l)
    elif family == "pd_sum":
        for i in idx:
            for tri in itertools.combinations([x for x in idx if x != i], 3):
                rid(i, *tri)
    elif family == "gamma_sum":
        rid()
    elif family == "omega_central":
        for i in range(5):
            for kind in ("om", "Om", "Ga"):
                for j in range(5):
                    if kind == "om" and j <= i:
                        continue
                    rid(i, kind, j)
    elif family in ("gamma_def", "omega_commute", "omega_gamma_commute",
                    "omega_inner", "omega_outer"):
        for i in range(5):
            rid(i)
    elif family == "pres_rank1":
        for which in range(3):
            rid(which)
    else:
        raise AlgebraError(f"unknown relation family {family!r}")
    return out


# -- Casimir elements ------------------------------------------------------------

def casimir_rank1(rank: int = 3) -> NCPoly:
    """The degree-4 central element of the rank-1 algebra on indices 1,2,3."""
    C = lambda *s: gen_C(rank, s)
    D = d_poly(rank, 1, 2, 3)
    c12, c23, c123 = C(1, 2), C(2, 3), C(1, 2, 3)
    c1, c2, c3 = C(1), C(2), C(3)
    return (D * D
            - HALF * acom(c12 * c12, c23)
            - HALF * acom(c23 * c23, c12)
            + c12 * c12 + c23 * c23 + acom(c12, c23)
            + HALF * (c1 + c2 + c3 + c123) * (acom(c12, c23) - 2 * c12 - 2 * c23)
            + (c2 - c3) * (c123 - c1) * c12
            + (c2 - c1) * (c123 - c3) * c23
            + (c1 + c3) * (c123 + c2)
            + (c1 * c3 - c123 * c2) * (c123 - c1 + c2 - c3))


def casimir_frak(i: int, rank: int = 4) -> NCPoly:
    """The pentagon-labeled central element attached to vertex i."""
    if rank != 4:
        raise AlgebraError("pentagon Casimirs live at 4 indices")
    if not 0 <= i <= 4:
        raise AlgebraError(f"pentagon label {i} out of range 0..4")
    Om = lambda k: pentagon_poly(rank, "Om", k)
    om = lambda k: pentagon_poly(rank, "om", k)
    Ga = pentagon_poly(rank, "Ga", i)
    a, b = Om(i + 2), Om(i - 2)
    return (Ga * Ga
            - HALF * acom(a * a, b)
            - HALF * acom(b * b, a)
            + a * a + b * b + acom(a, b)
            + HALF * (om(i - 1) + om(i) + om(i + 1) + Om(i))
            * (acom(a, b) - 2 * a - 2 * b)
            + (om(i) - om(i + 1)) * (Om(i) - om(i - 1)) * a
            + (om(i) - om(i - 1)) * (Om(i) - om(i + 1)) * b
            + (om(i - 1) + om(i + 1)) * (Om(i) + om(i))
            + (om(i - 1) * om(i + 1) - Om(i) * om(i))
            * (Om(i) - om(i - 1) + om(i) - om(i + 1)))
