"""Symmetries as permutations of points, acting on polynomials by moving
letters: expression transport, invariance checking, and the groups the
pentagon and the index relabelings generate.

One type serves every group.  A permutation of {1..n} relabels every letter
at n indices by ``core.relabel_table``, the one index relabelling, which the
rank 7-9 compile also uses.  At n-1 indices it moves the subset letters
only, reading each ``C_I`` as a subset of {1..n} taken up to its complement
(``core.points_subset``).  The groups at 4 indices are sets of permutations
of {1..5}: the pentagon group is the ten that keep the cycle 1-2-3-4-5-1,
since its labels ``om_k`` and ``Om_k`` are the point k and the edge
{k+2, k+3} (mod 5, with 5 for 0) read that way, and the relabelings of
{1..4} are the 24 that fix 5.  One breadth-first search, ``orbit_of``,
closes the groups and finds the orbits of letters and of letter triples."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import (expand_to_C, points_subset, relabel, relabel_table,
                   rewrite_system, subsets)
from .freealg import AlgebraError, Gen, NCPoly


@dataclass(frozen=True)
class IndexPermutation:
    """A permutation of {1..n}, stored as the image tuple of (1, ..., n)."""

    images: tuple[int, ...]

    def __post_init__(self):
        if (not isinstance(self.images, tuple)
                or sorted(self.images) != list(range(1, len(self.images) + 1))):
            raise AlgebraError(
                f"not a tuple permutation of 1..n: {self.images!r}")

    @staticmethod
    def transposition(n: int, a: int, b: int) -> "IndexPermutation":
        im = list(range(1, n + 1))
        im[a - 1], im[b - 1] = b, a
        return IndexPermutation(tuple(im))

    def apply(self, i: int) -> int:
        return self.images[i - 1]

    @lru_cache(maxsize=None)
    def letter_map(self, rank: int) -> tuple[dict[Gen, Gen], frozenset[Gen]]:
        """The image letter of every letter this permutation of {1..n}
        moves at ``rank`` indices, and the letters whose image is its
        negative: at n indices ``core.relabel_table``; at n-1 only the
        subset letters, unsigned, ``C_I -> C_J`` with J = σ(I), or its
        complement in {1..n} when σ(I) contains n.  Cached and shared, so
        never modified."""
        n = len(self.images)
        if rank == n - 1:
            return {Gen("C", I):
                    Gen("C", points_subset(rank, map(self.apply, I)))
                    for I in subsets(rank)}, frozenset()
        if rank != n:
            raise AlgebraError(f"{self} acts at {n} or {n - 1} indices,"
                               f" not {rank}")
        return relabel_table(self.images)

    def __str__(self) -> str:
        return "".join(str(i) for i in self.images)


# the pentagon's ten symmetries: rotations i -> i + k, then reflections
# i -> k - i (mod 5, with 5 for 0)
PENTAGON = tuple(IndexPermutation(tuple((s * i + k - 1) % 5 + 1
                                        for i in range(1, 6)))
                 for s in (1, -1) for k in range(5))


def act(g: IndexPermutation, p: NCPoly) -> NCPoly:
    """Transport ``p`` along ``g``: ``core.relabel`` through
    ``g.letter_map(p.rank)``.  At n-1 indices only subset letters move, so
    there expand shift and half-commutator letters with ``expand_to_C``."""
    try:
        return relabel(p, g.letter_map(p.rank), p.rank)
    except KeyError as exc:
        raise AlgebraError(f"{exc.args[0]} is not a subset generator;"
                           " expand it with expand_to_C first") from None


# -- one orbit search for groups, letters and triples --------------------------

def orbit_of(start, moves) -> list:
    """Everything the ``moves`` (functions of one argument) reach from
    ``start``: a breadth-first search, listing ``start`` and then each new
    image in the order the search meets it."""
    orbit, seen = [start], {start}
    for x in orbit:
        for move in moves:
            y = move(x)
            if y not in seen:
                seen.add(y)
                orbit.append(y)
    return orbit


# each group's generators as permutations of {1..5}: one rotation and one
# reflection for d5, the three adjacent swaps of {1..4} for p4, all five
# for both
_GENERATORS = {
    "d5": (PENTAGON[1], PENTAGON[5]),
    "p4": tuple(IndexPermutation.transposition(5, a, a + 1) for a in (1, 2, 3)),
}
_GENERATORS["both"] = _GENERATORS["d5"] + _GENERATORS["p4"]


def _generators(group: str) -> tuple[IndexPermutation, ...]:
    if group not in _GENERATORS:
        raise AlgebraError(f"unknown group {group!r}; use d5, p4 or both")
    return _GENERATORS[group]


@lru_cache(maxsize=None)
def group_elements(group: str) -> tuple[IndexPermutation, ...]:
    """The group d5, p4 or both generate, as permutations of {1..5}: the
    orbit of the identity under h -> g∘h for each generator g, so the
    identity comes first."""
    return tuple(orbit_of(
        IndexPermutation((1, 2, 3, 4, 5)),
        [lambda h, g=g: IndexPermutation(tuple(map(g.apply, h.images)))
         for g in _generators(group)]))


def closure_order(group: str) -> int:
    """Order of the group that d5, p4 or both together generate; every
    permutation of {1..5} moves the 15 subset generators differently."""
    return len(group_elements(group))


def orbit(symbol: Gen, group: str) -> list[str]:
    """Orbit of a subset generator at 4 indices under d5, p4, or both."""
    tables = [g.letter_map(4)[0] for g in _generators(group)]
    if symbol not in tables[0]:
        raise AlgebraError(f"{symbol} is not a subset generator at 4 indices;"
                           " orbits act on C letters")
    moves = [images.__getitem__ for images in tables]
    return sorted(map(str, orbit_of(symbol, moves)))


# -- invariance of relation suites ---------------------------------------------------

@dataclass(frozen=True)
class InvarianceRecord:
    element: str
    relation: str
    outcome: str   # "matched +<id>", "matched -<id>", or "reduces-to-zero"
    ok: bool


def verify_relation_invariance(group: str, suite) -> list[InvarianceRecord]:
    """Check that every image under ``group`` ("d5", "p4" or "both") of
    every suite relation is (plus or minus) another suite relation, or at
    least reduces to zero.  ``suite`` is a list of (label, NCPoly) pairs."""
    sources = [(label, expand_to_C(poly)) for label, poly in suite]
    table: dict[tuple, str] = {}
    for label, poly in sources:
        table.setdefault(poly.key(), f"+{label}")
        table.setdefault((-poly).key(), f"-{label}")

    rs = rewrite_system(4)
    records = []
    for element in group_elements(group):
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
