"""Symmetries as permutations of points, acting on polynomials by moving
letters: expression transport, invariance checking, and the closure of the
combined action on the 15 subset generators.

One type serves both groups.  A permutation of {1..n} relabels every letter
at n indices.  At n-1 indices it moves the subset letters only, reading each
``C_I`` as a subset of {1..n} taken up to its complement.  The pentagon
group is the ten permutations of {1..5} that keep the cycle 1-2-3-4-5-1,
since its labels ``om_k`` and ``Om_k`` are the point k and the edge
{k+2, k+3} (mod 5, with 5 for 0) read that way."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .core import _perm_sign, alphabet, expand_to_C, rewrite_system, subsets
from .freealg import AlgebraError, Gen, NCPoly

_ALL_SUBSETS_4 = tuple(subsets(4))
_POSITION = {I: k for k, I in enumerate(_ALL_SUBSETS_4)}


@dataclass(frozen=True)
class IndexPermutation:
    """A permutation of {1..n}, stored as the image tuple of (1, ..., n)."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise AlgebraError(f"not a permutation of 1..n: {self.images}")

    @staticmethod
    def transposition(n: int, a: int, b: int) -> "IndexPermutation":
        im = list(range(1, n + 1))
        im[a - 1], im[b - 1] = b, a
        return IndexPermutation(tuple(im))

    @staticmethod
    def all_elements(n: int):
        return tuple(IndexPermutation(p)
                     for p in itertools.permutations(range(1, n + 1)))

    def apply(self, i: int) -> int:
        return self.images[i - 1]

    @lru_cache(maxsize=None)
    def letter_map(self, rank: int) -> tuple[dict[Gen, Gen], frozenset[Gen]]:
        """The image letter of every letter this permutation of {1..n}
        moves at ``rank`` indices, and the letters whose image is its
        negative.  At n indices every letter of ``core.alphabet(n)`` moves:
        ``C_I -> C_σ(I)``, ``P_I -> P_σ(I)``, and ``D_ijk -> ±D`` on the
        sorted image, with the parity sign ``d_poly`` gives
        ``D_σ(i)σ(j)σ(k)``.  At n-1 indices only the subset letters move,
        unsigned: ``C_I -> C_J`` with J = σ(I), or its complement in {1..n}
        when σ(I) contains n.  Cached and shared, so never modified."""
        n = len(self.images)
        if rank == n - 1:
            points = frozenset(self.images)
            images = {}
            for I in subsets(rank):
                J = frozenset(map(self.apply, I))
                images[Gen("C", I)] = Gen("C", tuple(sorted(
                    points - J if n in J else J)))
            return images, frozenset()
        if rank != n:
            raise AlgebraError(f"{self} acts at {n} or {n - 1} indices,"
                               f" not {rank}")
        images, flips = {}, set()
        for x in alphabet(rank):
            image = tuple(map(self.apply, x.indices))
            images[x] = Gen(x.kind, tuple(sorted(image)))
            if x.kind == "D" and _perm_sign(image) < 0:
                flips.add(x)
        return images, frozenset(flips)

    def __str__(self) -> str:
        return "".join(str(i) for i in self.images)


# the pentagon's ten symmetries: rotations i -> i + k, then reflections
# i -> k - i (mod 5, with 5 for 0)
PENTAGON = tuple(IndexPermutation(tuple((s * i + k - 1) % 5 + 1
                                        for i in range(1, 6)))
                 for s in (1, -1) for k in range(5))


def act(g: IndexPermutation, p: NCPoly) -> NCPoly:
    """Transport ``p`` along ``g``: every letter becomes its image under
    ``g.letter_map(p.rank)``, and a word changes sign once per letter whose
    image is negated.  A permutation of {1..n} moves every letter at n
    indices and only subset letters at n-1, so there expand shift and
    half-commutator letters with ``expand_to_C`` first."""
    images, flips = g.letter_map(p.rank)
    try:
        return NCPoly(p.rank, {
            tuple(map(images.__getitem__, w)):
                c if not flips or sum(map(flips.__contains__, w)) % 2 == 0
                else -c
            for w, c in p.terms.items()})
    except KeyError as exc:
        raise AlgebraError(f"{exc.args[0]} is not a subset generator;"
                           " expand it with expand_to_C first") from None


# -- closure of the combined action ------------------------------------------------

def _perm15(g: IndexPermutation) -> tuple[int, ...]:
    """``g`` as a permutation of the positions of the 15 subset generators."""
    images = g.letter_map(4)[0]
    return tuple(_POSITION[images[Gen("C", I)].indices] for I in _ALL_SUBSETS_4)


def _mulclose(gens: set[tuple[int, ...]]) -> set[tuple[int, ...]]:
    els = set(gens)
    boundary = list(els)
    while boundary:
        new = []
        for a in gens:
            for b in boundary:
                c = tuple(a[i] for i in b)
                if c not in els:
                    els.add(c)
                    new.append(c)
        boundary = new
    return els


# each group's generators at 4 indices: one rotation and one reflection for
# d5, the three adjacent index swaps for p4, all five for both
_GENERATORS = {
    "d5": (PENTAGON[1], PENTAGON[5]),
    "p4": tuple(IndexPermutation.transposition(4, a, a + 1) for a in (1, 2, 3)),
}
_GENERATORS["both"] = _GENERATORS["d5"] + _GENERATORS["p4"]


def _closure(group: str) -> set[tuple[int, ...]]:
    """The named group as permutations of the 15 subset generators."""
    if group not in _GENERATORS:
        raise AlgebraError(f"unknown group {group!r}; use d5, p4 or both")
    return _mulclose({_perm15(g) for g in _GENERATORS[group]})


def closure_order(group: str) -> int:
    """Order of the group that d5, p4 or both together generate on the 15
    subset generators."""
    return len(_closure(group))


def orbit(symbol: Gen, group: str) -> list[str]:
    """Orbit of a subset generator at 4 indices under d5, p4, or both."""
    if symbol.kind != "C" or symbol.indices not in _POSITION:
        raise AlgebraError(f"{symbol} is not a subset generator at 4 indices;"
                           " orbits act on C letters")
    k = _POSITION[symbol.indices]
    images = {perm[k] for perm in _closure(group)}
    return sorted(str(Gen("C", _ALL_SUBSETS_4[j])) for j in images)


# -- invariance of relation suites ---------------------------------------------------

@dataclass(frozen=True)
class InvarianceRecord:
    element: str
    relation: str
    outcome: str   # "matched +<id>", "matched -<id>", or "reduces-to-zero"
    ok: bool


_GROUP_ELEMENTS = {"d5": PENTAGON,
                   "p4": IndexPermutation.all_elements(4)}


def verify_relation_invariance(group: str, suite) -> list[InvarianceRecord]:
    """Check that every image under ``group`` ("d5" or "p4") of every
    suite relation is (plus or minus) another suite relation, or at least
    reduces to zero.  ``suite`` is a list of (label, NCPoly) pairs."""
    if group not in _GROUP_ELEMENTS:
        raise AlgebraError(f"unknown group {group!r}; use d5 or p4")
    sources = [(label, expand_to_C(poly)) for label, poly in suite]
    table: dict[tuple, str] = {}
    for label, poly in sources:
        table.setdefault(poly.key(), f"+{label}")
        table.setdefault((-poly).key(), f"-{label}")

    rs = rewrite_system(4)
    records = []
    for element in _GROUP_ELEMENTS[group]:
        name = str(element)
        for label, source in sources:
            img = act(element, source)
            hit = table.get(img.key())
            if hit is not None:
                outcome = f"matched {hit}"
            elif rs.reduce(img).is_zero:
                outcome = "reduces-to-zero"
            else:
                outcome = "NO MATCH"
            records.append(InvarianceRecord(name, label, outcome,
                                            outcome != "NO MATCH"))
    return records
