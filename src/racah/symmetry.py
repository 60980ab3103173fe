"""Pentagon dihedral action, index permutation action, expression transport,
invariance checking, and the combined-group closure computation."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .core import (
    OMEGA_SETS,
    SMALL_OMEGA_SETS,
    decompose_to_basis,
    d_poly,
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
    def identity() -> "DihedralElement":
        return DihedralElement(False, 0)

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

    @property
    def gamma_sign(self) -> int:
        return -1 if self.reflected else 1

    def compose(self, other: "DihedralElement") -> "DihedralElement":
        """self after other."""
        if self.reflected:
            return DihedralElement(not other.reflected, self.shift - other.shift)
        return DihedralElement(other.reflected, self.shift + other.shift)

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
    def identity(n: int) -> "IndexPermutation":
        return IndexPermutation(tuple(range(1, n + 1)))

    @staticmethod
    def transposition(n: int, a: int, b: int) -> "IndexPermutation":
        im = list(range(1, n + 1))
        im[a - 1], im[b - 1] = b, a
        return IndexPermutation(tuple(im))

    @staticmethod
    def all_elements(n: int):
        return tuple(IndexPermutation(p)
                     for p in itertools.permutations(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def apply(self, i: int) -> int:
        return self.images[i - 1]

    def compose(self, other: "IndexPermutation") -> "IndexPermutation":
        """self after other."""
        return IndexPermutation(tuple(self.apply(other.apply(i))
                                      for i in range(1, self.n + 1)))

    def __str__(self) -> str:
        return "".join(str(i) for i in self.images)


# -- the dihedral action on subset generators ------------------------------------

_ALL_SUBSETS_4 = tuple(subsets(4))

_PENTAGON_OF_SET = ({v: ("Om", k) for k, v in OMEGA_SETS.items()}
                    | {v: ("om", k) for k, v in SMALL_OMEGA_SETS.items()})
_SET_OF_PENTAGON = {v: k for k, v in _PENTAGON_OF_SET.items()}


def _decomp_key(I: tuple[int, ...]) -> tuple:
    poly = decompose_to_basis(4, I)
    return tuple(sorted((w[0].indices, c) for w, c in poly.terms.items()))


_KEY_TO_SET = {_decomp_key(I): I for I in _ALL_SUBSETS_4}


def dihedral_subset_map(g: DihedralElement) -> dict[tuple, tuple]:
    """How a pentagon symmetry permutes all 15 subset generators.

    Contiguous sets move by their pentagon label; the rest follow by
    linearity of the decomposition and always land on a single generator
    again (checked by the lookup).
    """
    base: dict[tuple, tuple] = {}
    for I in _ALL_SUBSETS_4:
        if I in _PENTAGON_OF_SET:
            kind, k = _PENTAGON_OF_SET[I]
            base[I] = _SET_OF_PENTAGON[(kind, g.apply(k))]
    out = dict(base)
    for I in _ALL_SUBSETS_4:
        if I in out:
            continue
        poly = decompose_to_basis(4, I)
        image = NCPoly(4, {(Gen("C", base[w[0].indices]),): c
                           for w, c in poly.terms.items()})
        out[I] = _KEY_TO_SET[tuple(sorted((w[0].indices, c)
                                          for w, c in image.terms.items()))]
    return out


@lru_cache(maxsize=None)
def signed_generator_map(g: DihedralElement) -> Mapping[Gen, tuple[Gen, int]]:
    """Letter images with their signs: bijective on the subset generators,
    sign-flipping on the commutator labels under reflections.  Built once
    per element and shared, so the map is read-only."""
    out: dict[Gen, tuple[Gen, int]] = {}
    for I, J in dihedral_subset_map(g).items():
        out[Gen("C", I)] = (Gen("C", J), 1)
    for k in range(5):
        out[Gen("Om", (k,))] = (Gen("Om", (g.apply(k),)), 1)
        out[Gen("om", (k,))] = (Gen("om", (g.apply(k),)), 1)
        out[Gen("Ga", (k,))] = (Gen("Ga", (g.apply(k),)), g.gamma_sign)
    return MappingProxyType(out)


def act_dihedral(g: DihedralElement, p: NCPoly) -> NCPoly:
    """Transport an expression along a pentagon symmetry.

    Pentagon labels and subset generators map by label substitution (with
    the commutator-label sign rule); shift and half-commutator letters are
    first rewritten as subset words.
    """
    if p.rank != 4:
        raise AlgebraError("the pentagon action needs exactly 4 indices")
    table = signed_generator_map(g)
    if any(w and any(x.kind in ("P", "D") for x in w) for w in p.terms):
        p = expand_to_C(p)

    def image(x: Gen) -> NCPoly:
        try:
            y, sign = table[x]
        except KeyError:
            raise AlgebraError(f"no pentagon image for letter {x}") from None
        return NCPoly.from_word(4, (y,), sign)

    return p.substitute(image)


def act_permutation(sigma: IndexPermutation, p: NCPoly) -> NCPoly:
    """Relabel every index payload; half-commutator letters pick up the
    permutation-parity sign.  Pentagon labels are not index-indexed: expand
    them first."""

    def image(x: Gen) -> NCPoly:
        if x.kind == "C":
            return gen_C(p.rank, tuple(sigma.apply(i) for i in x.indices))
        if x.kind == "P":
            idx = tuple(sorted(sigma.apply(i) for i in x.indices))
            return NCPoly.from_word(p.rank, (Gen("P", idx),))
        if x.kind == "D":
            return d_poly(p.rank, *(sigma.apply(i) for i in x.indices))
        raise AlgebraError(
            f"letter {x} carries no index payload; expand it before relabeling")

    return p.substitute(image)


# -- closure of the combined action ------------------------------------------------

def _perm_of_subsets(fn) -> tuple[int, ...]:
    pos = {I: k for k, I in enumerate(_ALL_SUBSETS_4)}
    return tuple(pos[fn(I)] for I in _ALL_SUBSETS_4)


def dihedral_perm15(g: DihedralElement) -> tuple[int, ...]:
    table = dihedral_subset_map(g)
    return _perm_of_subsets(lambda I: table[I])


def permutation_perm15(sigma: IndexPermutation) -> tuple[int, ...]:
    return _perm_of_subsets(lambda I: tuple(sorted(sigma.apply(i) for i in I)))


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
    gens: set[tuple[int, ...]] = set()
    if group in ("d5", "both"):
        gens |= {dihedral_perm15(DihedralElement.rotation(1)),
                 dihedral_perm15(DihedralElement.reflection(0))}
    if group in ("p4", "both"):
        gens |= {permutation_perm15(IndexPermutation.transposition(4, a, a + 1))
                 for a in (1, 2, 3)}
    if not gens:
        raise AlgebraError(f"unknown group {group!r}; use d5, p4 or both")
    return gens


def dihedral_group_order() -> int:
    return len(_mulclose(_generators("d5")))


def permutation_group_order() -> int:
    return len(_mulclose(_generators("p4")))


def closure_order() -> int:
    """Order of the group the two actions generate on the 15 subset
    generators (the commutator-label signs ride along separately)."""
    return len(_mulclose(_generators("both")))


def orbit(symbol: Gen, group: str) -> list[str]:
    """Orbit of a subset or pentagon generator under d5, p4, or both."""
    if symbol.kind == "Ga":
        raise AlgebraError("commutator labels have sign-valued orbits; "
                           "track them through signed_generator_map")
    if symbol.kind in ("Om", "om"):
        start = _SET_OF_PENTAGON[(symbol.kind, symbol.indices[0])]
    elif symbol.kind == "C":
        start = symbol.indices
    else:
        raise AlgebraError(f"{symbol} is not a subset or pentagon generator;"
                           " orbits act on C and Om/om letters")
    k = _ALL_SUBSETS_4.index(start)
    images = {perm[k] for perm in _mulclose(_generators(group))}
    return sorted("C" + "".join(str(i) for i in _ALL_SUBSETS_4[j]) for j in images)


# -- invariance of relation suites ---------------------------------------------------

@dataclass(frozen=True)
class InvarianceRecord:
    element: str
    relation: str
    outcome: str   # "matched +<id>", "matched -<id>", or "reduces-to-zero"
    ok: bool


def verify_relation_invariance(group: str, suite) -> list[InvarianceRecord]:
    """Check that every group image of every suite relation is (plus or
    minus) another suite relation after canonicalization, or at least
    reduces to zero.  ``suite`` is a list of (label, NCPoly) pairs."""
    if group == "D5":
        elements, act = DihedralElement.all_elements(), act_dihedral
        sources = [poly for _, poly in suite]
    elif group == "P4":
        # pentagon labels carry no indices to relabel: expand once, up front
        elements, act = IndexPermutation.all_elements(4), act_permutation
        sources = [expand_to_C(poly) for _, poly in suite]
    else:
        raise AlgebraError(f"unknown group {group!r}")

    # keyed on the sources, so a match compares letters of the same kind
    table: dict[tuple, str] = {}
    for (label, _), poly in zip(suite, sources):
        table.setdefault(poly.key(), f"+{label}")
        table.setdefault((-poly).key(), f"-{label}")

    rs = rewrite_system(4)
    records = []
    for element in elements:
        name = str(element)
        for (label, _), source in zip(suite, sources):
            img = act(element, source)
            hit = table.get(img.key())
            if hit is not None:
                records.append(InvarianceRecord(name, label, f"matched {hit}", True))
            elif rs.reduce(img).is_zero:
                records.append(InvarianceRecord(name, label, "reduces-to-zero", True))
            else:
                records.append(InvarianceRecord(name, label, "NO MATCH", False))
    return records
