"""Index relabelings at any rank and the pentagon dihedral group at 4
indices, each acting on polynomials by moving letters: expression
transport, invariance checking, and the closure of the combined action on
the 15 subset generators."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    OMEGA_SETS,
    SMALL_OMEGA_SETS,
    _perm_sign,
    alphabet,
    decompose_to_basis,
    expand_to_C,
    gen_C,
    rewrite_system,
    subsets,
)
from .freealg import AlgebraError, Gen, NCPoly

_ALL_SUBSETS_4 = tuple(subsets(4))
_POSITION = {I: k for k, I in enumerate(_ALL_SUBSETS_4)}
_SET_OF_DECOMPOSITION = {decompose_to_basis(4, I).key(): I for I in _ALL_SUBSETS_4}


@dataclass(frozen=True)
class DihedralElement:
    """One symmetry of the pentagon: label i maps to shift - i under a
    reflection, to i + shift otherwise (all mod 5)."""

    reflected: bool
    shift: int

    rank = 4  # the pentagon labels exist at 4 indices only

    def __post_init__(self):
        object.__setattr__(self, "shift", self.shift % 5)

    @staticmethod
    def rotation(k: int) -> "DihedralElement":
        return DihedralElement(False, k)

    @staticmethod
    def reflection(axis: int) -> "DihedralElement":
        # fixes the vertex at `axis` and its opposite edge
        return DihedralElement(True, 2 * axis)

    @property
    def axis(self) -> int:
        if not self.reflected:
            raise AlgebraError("a rotation has no reflection axis")
        return (3 * self.shift) % 5  # vertex a with 2a = shift (mod 5)

    def apply(self, i: int) -> int:
        return (self.shift - i) % 5 if self.reflected else (i + self.shift) % 5

    def subset_map(self) -> dict[tuple, tuple]:
        """How this symmetry permutes all 15 subset generators.

        The ten labelled sets, the contiguous basis, move with their vertex;
        the rest follow by linearity of their decomposition and always land
        on a single generator again (checked by the lookup).
        """
        out: dict[tuple, tuple] = {}
        for sets in (OMEGA_SETS, SMALL_OMEGA_SETS):
            out |= {sets[k]: sets[self.apply(k)] for k in range(5)}
        for I in _ALL_SUBSETS_4:
            if I not in out:
                image = decompose_to_basis(4, I).substitute(
                    lambda x: gen_C(4, out[x.indices]))
                out[I] = _SET_OF_DECOMPOSITION[image.key()]
        return out

    @lru_cache(maxsize=None)
    def letter_map(self) -> tuple[dict[Gen, Gen], frozenset[Gen]]:
        """The image of each subset letter, and no sign: a shift or
        half-commutator letter is no single subset word, so it has no
        image letter here.  Cached and shared, so never modified."""
        return ({Gen("C", I): Gen("C", J) for I, J in self.subset_map().items()},
                frozenset())

    @staticmethod
    def all_elements() -> tuple["DihedralElement", ...]:
        return tuple(DihedralElement(r, k) for r in (False, True) for k in range(5))

    def __str__(self) -> str:
        if self.reflected:
            return f"refl{self.axis}"
        return f"rot{self.shift}"


@dataclass(frozen=True)
class IndexPermutation:
    """A permutation of {1..n}, stored as the image tuple of (1, ..., n)."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise AlgebraError(f"not a permutation of 1..n: {self.images}")

    @property
    def rank(self) -> int:
        return len(self.images)

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
    def letter_map(self) -> tuple[dict[Gen, Gen], frozenset[Gen]]:
        """The image letter of every letter of ``core.alphabet(n)``, and the
        letters whose image is its negative: ``C_I -> C_σ(I)``,
        ``P_I -> P_σ(I)``, and ``D_ijk -> ±D`` on the sorted image, with
        the parity sign ``d_poly`` gives ``D_σ(i)σ(j)σ(k)``.  Cached and
        shared, so never modified."""
        images, flips = {}, set()
        for x in alphabet(self.rank):
            image = tuple(map(self.apply, x.indices))
            images[x] = Gen(x.kind, tuple(sorted(image)))
            if x.kind == "D" and _perm_sign(image) < 0:
                flips.add(x)
        return images, frozenset(flips)

    def __str__(self) -> str:
        return "".join(str(i) for i in self.images)


def act(g, p: NCPoly) -> NCPoly:
    """Transport ``p``, a polynomial at ``g``'s own rank, along ``g``: every
    letter becomes its image under ``g.letter_map()``, and a word changes
    sign once per letter whose image is negated.  A relabeling moves every
    letter; a pentagon symmetry moves subset letters only, so expand shift
    and half-commutator letters with ``expand_to_C`` first."""
    if p.rank != g.rank:
        raise AlgebraError(f"{g} acts at {g.rank} indices, not {p.rank}")
    images, flips = g.letter_map()
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

def _perm15(g) -> tuple[int, ...]:
    """``g`` as a permutation of the positions of the 15 subset generators."""
    images = g.letter_map()[0]
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
    "d5": (DihedralElement.rotation(1), DihedralElement.reflection(0)),
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


_GROUP_ELEMENTS = {"d5": DihedralElement.all_elements(),
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
