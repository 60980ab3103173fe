"""The pentagon dihedral group and the index permutation group, both acting
on 4 indices by permuting the 15 subset generators: expression transport,
invariance checking, and the closure of the combined action."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .core import (
    OMEGA_SETS,
    SMALL_OMEGA_SETS,
    decompose_to_basis,
    expand_to_C,
    gen_C,
    rewrite_system,
    subsets,
)
from .freealg import AlgebraError, Gen, NCPoly


@dataclass(frozen=True)
class DihedralElement:
    """One symmetry of the pentagon: label i maps to shift - i under a
    reflection, to i + shift otherwise (all mod 5)."""

    reflected: bool
    shift: int

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
        return dihedral_subset_map(self)

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

    def subset_map(self) -> dict[tuple, tuple]:
        """Every subset I of {1..n} to the sorted image of its indices."""
        return {I: tuple(sorted(map(self.apply, I)))
                for I in subsets(len(self.images))}

    def __str__(self) -> str:
        return "".join(str(i) for i in self.images)


# -- the action on subset generators ---------------------------------------------

_ALL_SUBSETS_4 = tuple(subsets(4))
_POSITION = {I: k for k, I in enumerate(_ALL_SUBSETS_4)}
_SET_OF_DECOMPOSITION = {decompose_to_basis(4, I).key(): I for I in _ALL_SUBSETS_4}


def dihedral_subset_map(g: DihedralElement) -> dict[tuple, tuple]:
    """How a pentagon symmetry permutes all 15 subset generators.

    The ten labelled sets, the contiguous basis, move with their vertex;
    the rest follow by linearity of their decomposition and always land on
    a single generator again (checked by the lookup).
    """
    out: dict[tuple, tuple] = {}
    for sets in (OMEGA_SETS, SMALL_OMEGA_SETS):
        out |= {sets[k]: sets[g.apply(k)] for k in range(5)}
    for I in _ALL_SUBSETS_4:
        if I not in out:
            image = decompose_to_basis(4, I).substitute(
                lambda x: gen_C(4, out[x.indices]))
            out[I] = _SET_OF_DECOMPOSITION[image.key()]
    return out


@lru_cache(maxsize=None)
def _letter_map(g) -> dict[Gen, Gen]:
    """``g``'s image of each subset letter; built once per element and
    shared, so never modified."""
    table = g.subset_map()
    if sorted(table) != sorted(_ALL_SUBSETS_4):
        raise AlgebraError(f"{g} does not act on exactly 4 indices")
    return {Gen("C", I): Gen("C", J) for I, J in table.items()}


def act(g, p: NCPoly) -> NCPoly:
    """Transport ``p`` along a group element of either group: every subset
    letter ``C_I`` becomes ``C_{g(I)}``.  No other letter moves as a letter
    (``P`` and ``D`` words pick up signs and sums), so expand them with
    ``expand_to_C`` first."""
    if p.rank != 4:
        raise AlgebraError("the symmetry actions need exactly 4 indices")
    table = _letter_map(g)
    try:
        return NCPoly(4, {tuple(table[x] for x in w): c
                          for w, c in p.terms.items()})
    except KeyError as exc:
        raise AlgebraError(f"{exc.args[0]} is not a subset generator;"
                           " expand it with expand_to_C first") from None


# -- closure of the combined action ------------------------------------------------

def _perm15(g) -> tuple[int, ...]:
    """``g`` as a permutation of the positions of the 15 subset generators."""
    table = g.subset_map()
    return tuple(_POSITION[table[I]] for I in _ALL_SUBSETS_4)


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


def _generators(group: str) -> set[tuple[int, ...]]:
    """Generating permutations of the 15 subset generators: one rotation
    and one reflection for d5, the three adjacent index swaps for p4, all
    five for both."""
    elements = []
    if group in ("d5", "both"):
        elements += [DihedralElement.rotation(1), DihedralElement.reflection(0)]
    if group in ("p4", "both"):
        elements += [IndexPermutation.transposition(4, a, a + 1) for a in (1, 2, 3)]
    if not elements:
        raise AlgebraError(f"unknown group {group!r}; use d5, p4 or both")
    return {_perm15(g) for g in elements}


def dihedral_group_order() -> int:
    return len(_mulclose(_generators("d5")))


def permutation_group_order() -> int:
    return len(_mulclose(_generators("p4")))


def closure_order() -> int:
    """Order of the group the two actions generate on the 15 subset
    generators."""
    return len(_mulclose(_generators("both")))


def orbit(symbol: Gen, group: str) -> list[str]:
    """Orbit of a subset generator at 4 indices under d5, p4, or both."""
    if symbol.kind != "C" or symbol.indices not in _POSITION:
        raise AlgebraError(f"{symbol} is not a subset generator at 4 indices;"
                           " orbits act on C letters")
    k = _POSITION[symbol.indices]
    images = {perm[k] for perm in _mulclose(_generators(group))}
    return sorted(str(Gen("C", _ALL_SUBSETS_4[j])) for j in images)


# -- invariance of relation suites ---------------------------------------------------

@dataclass(frozen=True)
class InvarianceRecord:
    element: str
    relation: str
    outcome: str   # "matched +<id>", "matched -<id>", or "reduces-to-zero"
    ok: bool


_GROUP_ELEMENTS = {"D5": DihedralElement.all_elements(),
                   "P4": IndexPermutation.all_elements(4)}


def verify_relation_invariance(group: str, suite) -> list[InvarianceRecord]:
    """Check that every image under ``group`` ("D5" or "P4") of every
    suite relation is (plus or minus) another suite relation, or at least
    reduces to zero.  ``suite`` is a list of (label, NCPoly) pairs."""
    if group not in _GROUP_ELEMENTS:
        raise AlgebraError(f"unknown group {group!r}")
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
