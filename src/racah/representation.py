"""The split-basis representation on a truncated triangular lattice of states.

States |t,s> live on {t >= 0, 0 <= s <= t}.  One generator is diagonal, the
rest act by finite displacement stencils whose boundary factors vanish
exactly on the lattice edges.  Raising in t has coefficient 1, so the module
is infinite in t; a finite window never fabricates cutoff coefficients.
Instead each operator tracks which window states "leak" (their true image
reaches past the window), and equalities are asserted only on reliable
states, making every assertion an exact statement about the infinite module.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .core import to_contiguous
from .freealg import AlgebraError, Gen, NCPoly, rational

State = tuple[int, int]                   # (t, s) with t >= 0 and 0 <= s <= t

ZERO = Fraction(0)
ONE = Fraction(1)


class ParamError(AlgebraError):
    """Parameter choice makes a coefficient denominator vanish in-window."""


@dataclass(frozen=True)
class RepParams:
    c1: Fraction
    c2: Fraction
    c3: Fraction
    c4: Fraction
    N: Fraction

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "c4", "N"):
            object.__setattr__(self, name, rational(getattr(self, name),
                                                    f"parameter {name} ="))
        # every N + sum of c_i the stencils read, summed once per set
        cs = (self.c1, self.c2, self.c3, self.c4)
        object.__setattr__(self, "_sums", {
            frozenset(which): self.N + sum((cs[i - 1] for i in which), ZERO)
            for k in range(5)
            for which in itertools.combinations((1, 2, 3, 4), k)})

    def n(self, *which: int) -> Fraction:
        """N plus the c_i over the distinct indices ``which`` in 1..4."""
        return self._sums[frozenset(which)]

    def describe(self) -> str:
        return (f"c=({self.c1},{self.c2},{self.c3},{self.c4}) N={self.N}")


def validate_params(p: RepParams, window: int) -> list[str]:
    """Names every s in 0..window whose coefficient denominators vanish."""
    errors = []
    n123 = p.n(1, 2, 3)
    for s in range(window + 1):
        for label, q in (("n123-s", n123 - s),
                         ("n123-s-1", n123 - s - 1),
                         ("2n123-2s+1", 2 * n123 - 2 * s + 1),
                         ("2n123-2s-1", 2 * n123 - 2 * s - 1)):
            if q == 0:
                errors.append(f"{label} vanishes at s={s}")
    return errors


def ensure_valid(p: RepParams, window: int) -> None:
    errors = validate_params(p, window)
    if errors:
        raise ParamError("; ".join(errors))


# -- coefficient stencils -----------------------------------------------------
# A stencil gives the nonzero displacements {(dt, ds): value} of one
# generator acting on |t,s>.  Boundary vanishing is carried by explicit
# factors (s-t), s, and their shifts, so the lattice closes exactly.  The
# factors that depend on t alone or on s alone come from ``t_row(p, t)`` and
# ``s_row(p, s)``, which ``build_operator`` computes once per row of the
# window; ``entries(p, t, s, trow, srow)`` combines them for one state.

class Stencil(NamedTuple):
    t_row: Callable[[RepParams, int], tuple]
    s_row: Callable[[RepParams, int], tuple]
    entries: Callable[[RepParams, int, int, tuple, tuple], dict]


def _no_row(p: RepParams, i: int) -> tuple:
    return ()


def west_factor(p: RepParams, t: int) -> Fraction:
    """The west factor (N+1-t)(N+2c2-t) of C12's and C34's stencils; where it
    vanishes, no state of row t has a west image."""
    return (p.N + 1 - t) * (p.N + 2 * p.c2 - t)


def _c12_t(p: RepParams, t: int) -> tuple:
    n12 = p.n(1, 2)
    return west_factor(p, t), (n12 - t) * (n12 - t - 1)


def _c12_s(p: RepParams, s: int) -> tuple:
    return (2 * p.n(1, 2, 3) - s - 1,)


def _c12(p: RepParams, t: int, s: int, trow: tuple, srow: tuple) -> dict:
    west_t, stay = trow
    (u,) = srow                              # 2 n123 - s - 1
    return {(-1, 0): (s - t) * west_t * (u - t), (0, 0): stay}


def _c23_t(p: RepParams, t: int) -> tuple:
    n23 = p.n(2, 3)
    return ((n23 - t) * (n23 - t - 1),)


def _c23(p: RepParams, t: int, s: int, trow: tuple, srow: tuple) -> dict:
    return {(0, 0): trow[0], (1, 0): ONE}


def _c123_s(p: RepParams, s: int) -> tuple:
    n123 = p.n(1, 2, 3)
    return ((n123 - s) * (n123 - s - 1),)


def _c123(p: RepParams, t: int, s: int, trow: tuple, srow: tuple) -> dict:
    return {(0, 0): srow[0]}


def _east(p: RepParams, s: int) -> Fraction:
    n123 = p.n(1, 2, 3)
    return Fraction(1, 2) + n123 * (n123 + 2 * p.c4 - 1) \
        / (2 * (n123 - s) * (n123 - s - 1))


def _southeast(p: RepParams, s: int) -> Fraction:
    n123, n1234 = p.n(1, 2, 3), p.n(1, 2, 3, 4)
    return (s * (s + 2 * p.c4 - 1) * (2 * n123 - s) * (2 * n1234 - s - 1)
            / (4 * (2 * n123 - 2 * s + 1) * (2 * n123 - 2 * s - 1)
               * (n123 - s) ** 2))


def _burst_s(p: RepParams, s: int) -> Fraction:
    # the s-dependent fraction of the C34 and C234 diagonals
    n123 = p.n(1, 2, 3)
    return (n123 + 2 * p.c4 - 1) / (2 * (n123 - s) * (n123 - s - 1))


def _diagonal_s(p: RepParams, s: int) -> Fraction:
    # the s-only part of the C34 and C234 diagonals
    n123, n1234 = p.n(1, 2, 3), p.n(1, 2, 3, 4)
    return n1234 * (n1234 - 1) / 2 - (n123 - s) * (n123 - s - 1) / 2 \
        + p.c4 * (p.c4 - 1) / 2


def _c34_t(p: RepParams, t: int) -> tuple:
    n12, n123 = p.n(1, 2), p.n(1, 2, 3)
    # the (t-dependent) fraction numerator mirrors the one in C234's;
    # it is pinned by the containment commutators (constraint-solved, see
    # tests), which a (n123-t)(n12-c3-t-1) variant violates
    return (west_factor(p, t), t + 2 * p.c3 - 1,
            -n123 * (n123 - t - 1) * (n12 - p.c3 - t),
            ((n12 - t) * (n12 - t - 1) + p.c3 * (p.c3 - 1)) / 2)


def _c34_s(p: RepParams, s: int) -> tuple:
    n12, n123 = p.n(1, 2), p.n(1, 2, 3)
    return (2 * n123 - s - 1, 2 * n12 - s, 1 - _east(p, s), _burst_s(p, s),
            _diagonal_s(p, s), -_southeast(p, s))


def _c34(p: RepParams, t: int, s: int, trow: tuple, srow: tuple) -> dict:
    west_t, north_t, stay_t, diag_t = trow
    u, v, west_s, stay_s, diag_s, minus_southeast = srow
    d = s - t
    ut = u - t                               # 2 n123 - t - s - 1
    # the two entries below share -southeast * ut
    below = minus_southeast * ut
    return {(-1, 1): -d * (d + 1) * west_t,
            (0, 1): -d * (s - north_t),
            (-1, 0): d * west_t * ut * west_s,
            (0, 0): stay_t * stay_s + diag_s + diag_t,
            (-1, -1): below * west_t * (ut + 1),
            (0, -1): below * (v - t)}


def _c234_t(p: RepParams, t: int) -> tuple:
    n23, n123 = p.n(2, 3), p.n(1, 2, 3)
    return (t + 2 * p.c1, n123 * (n123 - t - 1) * (n23 - p.c1 - t),
            ((n23 - t) * (n23 - t - 1) + p.c1 * (p.c1 - 1)) / 2)


def _c234_s(p: RepParams, s: int) -> tuple:
    n23, n123 = p.n(2, 3), p.n(1, 2, 3)
    return (2 * n123 - s - 1, 2 * n23 - s - 1, _burst_s(p, s),
            _diagonal_s(p, s), _east(p, s), _southeast(p, s))


def _c234(p: RepParams, t: int, s: int, trow: tuple, srow: tuple) -> dict:
    south_t, stay_t, diag_t = trow
    u, w, stay_s, diag_s, east, southeast = srow
    d = s - t
    return {(0, 1): d * (w - t),
            (1, 1): ONE,
            (0, 0): stay_t * stay_s + diag_s + diag_t,
            (1, 0): east,
            (0, -1): southeast * (s - south_t) * (u - t),
            (1, -1): southeast}


# The contiguous letters: each acts by a stencil or as a scalar.
_STENCILS: dict[Gen, Stencil] = {
    Gen("C", (1, 2)): Stencil(_c12_t, _c12_s, _c12),
    Gen("C", (2, 3)): Stencil(_c23_t, _no_row, _c23),
    Gen("C", (1, 2, 3)): Stencil(_no_row, _c123_s, _c123),
    Gen("C", (3, 4)): Stencil(_c34_t, _c34_s, _c34),
    Gen("C", (2, 3, 4)): Stencil(_c234_t, _c234_s, _c234),
}

# The letters whose operators move states, in table order.
DISPLACEMENT_LETTERS: tuple[Gen, ...] = tuple(_STENCILS)

_SCALARS: dict[Gen, Callable[[RepParams], Fraction]] = {
    Gen("C", (1,)): lambda p: p.c1 * (p.c1 - 1),
    Gen("C", (2,)): lambda p: p.c2 * (p.c2 - 1),
    Gen("C", (3,)): lambda p: p.c3 * (p.c3 - 1),
    Gen("C", (4,)): lambda p: p.c4 * (p.c4 - 1),
    Gen("C", (1, 2, 3, 4)):
        lambda p: p.n(1, 2, 3, 4) * (p.n(1, 2, 3, 4) - 1),
}


# -- exact sparse operators ----------------------------------------------------

def triangle_states(window: int) -> tuple[State, ...]:
    return tuple((t, s) for t in range(window + 1) for s in range(t + 1))


@lru_cache(maxsize=None)
def _positions(states: tuple[State, ...]) -> dict[State, int]:
    """Each state's position in ``states``: the key of its column and row
    (one index per window in use)."""
    return {x: i for i, x in enumerate(states)}


class SparseOperator:
    """Exact rational linear map on a finite window of lattice states.

    A state is keyed by its position in ``states``: ``cols[i][j]`` is the
    entry from ``states[i]`` to ``states[j]``, an integer over one common
    positive denominator ``den``, with ``gcd(den, *entries) == 1``; no
    column holds a zero entry and no column is empty.  ``leaky`` marks the
    states whose true image left the window; their columns (when present)
    hold only the in-window part and are never used in compositions or zero
    assertions.
    """

    __slots__ = ("states", "den", "cols", "_leak")

    def __init__(self, states: tuple[State, ...], den: int,
                 cols: dict[int, dict[int, int]],
                 leak: frozenset[int] = frozenset()):
        self.states = states
        self.den = den
        self.cols = cols
        self._leak = leak
        self._normalize()

    def _normalize(self):
        g = math.gcd(self.den, *(v for col in self.cols.values()
                                 for v in col.values()))
        if g > 1:
            self.den //= g
            for col in self.cols.values():
                for k in col:
                    col[k] //= g

    # -- constructors ----------------------------------------------------

    @staticmethod
    def scalar(states: tuple[State, ...], value: Fraction) -> "SparseOperator":
        value = rational(value)
        if value == 0:
            return SparseOperator(states, 1, {})
        return SparseOperator(states, value.denominator,
                              {i: {i: value.numerator}
                               for i in range(len(states))})

    @staticmethod
    def linear_combination(states: tuple[State, ...],
                           parts) -> "SparseOperator":
        """Exact sum of (coefficient, operator) pairs in one pass.

        A part with coefficient zero adds neither entries nor leaks.  Each
        reliable output column is summed in a dense list of integers, and
        becomes a dict only where the sum is not zero.
        """
        parts = [(rational(c), op) for c, op in parts]
        if any(op.states != states for _, op in parts):
            raise AlgebraError("operators live on different windows")
        parts = [(c, op) for c, op in parts if c]
        den = 1
        for c, op in parts:
            d = op.den * c.denominator
            den = den * d // math.gcd(den, d)
        leak = frozenset().union(*(op._leak for _, op in parts))
        n = len(states)
        accs: list[list[int] | None] = [None] * n
        for c, op in parts:
            # entries are v/op.den; scale to the common denominator exactly
            f = c.numerator * (den // (op.den * c.denominator))
            for x, col in op.cols.items():
                if x in leak:
                    continue
                acc = accs[x]
                if acc is None:
                    acc = accs[x] = [0] * n
                for y, v in col.items():
                    acc[y] += v * f
        cols = {x: {y: v for y, v in enumerate(acc) if v}
                for x, acc in enumerate(accs) if acc is not None and any(acc)}
        return SparseOperator(states, den, cols, leak)

    # -- access -----------------------------------------------------------

    @property
    def leaky(self) -> frozenset[State]:
        return frozenset(self.states[i] for i in self._leak)

    def reliable_states(self) -> tuple[State, ...]:
        return tuple(x for i, x in enumerate(self.states) if i not in self._leak)

    # a state outside the window has position None: no column, no entry

    def _column(self, i: int | None) -> dict[State, Fraction]:
        return {self.states[j]: Fraction(v, self.den)
                for j, v in self.cols.get(i, {}).items()}

    def column(self, x: State) -> dict[State, Fraction]:
        return self._column(_positions(self.states).get(x))

    def entry(self, x: State, y: State) -> Fraction:
        pos = _positions(self.states)
        return Fraction(self.cols.get(pos.get(x), {}).get(pos.get(y), 0),
                        self.den)

    def is_zero_on_reliable(self) -> bool:
        return self._leak.issuperset(self.cols)

    def witness(self):
        """First reliable state with a nonzero image, with that image."""
        x = min((x for x in self.cols if x not in self._leak), default=None)
        return None if x is None else (self.states[x], self._column(x))

    def is_diagonal_on_reliable(self) -> bool:
        return all(x in self._leak or col.keys() == {x}
                   for x, col in self.cols.items())

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        return self.linear_combination(self.states, ((1, self), (1, other)))

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        return self.linear_combination(self.states, ((1, self), (-1, other)))

    def __neg__(self) -> "SparseOperator":
        return self.linear_combination(self.states, ((-1, self),))

    def __mul__(self, q) -> "SparseOperator":
        return self.linear_combination(self.states, ((q, self),))

    __rmul__ = __mul__

    def compose(self, other: "SparseOperator") -> "SparseOperator":
        """self after other (operator product: (self*other)|x> = self(other|x>))."""
        if self.states != other.states:
            raise AlgebraError("operators live on different windows")
        leak = set(other._leak)
        cols: dict[int, dict[int, int]] = {}
        for x in other.cols:
            col = _column_after(self, other, x)
            if col is None:
                leak.add(x)
            elif col:
                cols[x] = col
        return SparseOperator(self.states, self.den * other.den, cols,
                              frozenset(leak))


def commutator_op(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    return a.compose(b) - b.compose(a)


def chain_part(op: SparseOperator) -> SparseOperator:
    """``op``'s s = 0 columns, every other state unreliable: for a
    polynomial in the rank-1 letters, none of which moves s, its operator
    on the s = 0 chain alone, leaks included.  A view to read verdicts on,
    not to compose; its columns are copies, since ``op`` may be a cached
    operator and ``SparseOperator`` divides its columns in place."""
    return SparseOperator(op.states, op.den, {
        x: dict(col) for x, col in op.cols.items() if op.states[x][1] == 0},
        frozenset(x for x, (_, s) in enumerate(op.states)
                  if s or x in op._leak))


def build_operator(gen: Gen, p: RepParams, window: int,
                   states: tuple[State, ...] | None = None) -> SparseOperator:
    """Assemble one contiguous-basis generator over the window.

    The leak flag is set exactly on the states from which the raising
    stencils reach past t = window.
    """
    if states is None:
        states = triangle_states(window)
    ensure_valid(p, window)
    if gen in _SCALARS:
        return SparseOperator.scalar(states, _SCALARS[gen](p))
    if gen not in _STENCILS:
        raise AlgebraError(
            f"{gen} is not a contiguous-basis generator; decompose it first")
    stencil = _STENCILS[gen]
    rows = range(window + 1)
    t_rows = [stencil.t_row(p, t) for t in rows]
    s_rows = [stencil.s_row(p, s) for s in rows]
    pos = _positions(states)
    cols: dict[int, dict[int, Fraction]] = {}
    leak = set()
    for i, (t, s) in enumerate(states):
        col: dict[int, Fraction] = {}
        for (dt, ds), val in stencil.entries(p, t, s, t_rows[t],
                                             s_rows[s]).items():
            if not val:
                continue
            tt, ss = t + dt, s + ds
            if tt < 0 or ss < 0 or ss > tt:
                raise AssertionError(
                    f"lattice leak: {gen} maps ({t},{s}) to ({tt},{ss}) "
                    f"with nonzero coefficient {val}")
            j = pos.get((tt, ss))
            if j is None:
                leak.add(i)
                continue
            col[j] = val
        if col:
            cols[i] = col
    den = math.lcm(*(v.denominator for col in cols.values()
                     for v in col.values()))
    icols = {x: {y: v.numerator * (den // v.denominator)
                 for y, v in col.items()}
             for x, col in cols.items()}
    return SparseOperator(states, den, icols, frozenset(leak))


# -- evaluation homomorphism ----------------------------------------------------

@lru_cache(maxsize=None)
def _contiguous_words(key: tuple) -> tuple[int, list]:
    """The polynomial whose ``key()`` is ``key`` rewritten over contiguous
    words: one positive denominator ``den`` and a list of (operator
    letters, scalar monomial, integer numerator) entries, with
    ``gcd(den, *numerators) == 1``.

    A scalar letter acts as a multiple of the identity, so the words that
    differ only in where their scalar letters stand are one entry, their
    monomial being the sorted scalar letters.  The entries come grouped by
    operator letters, in the order those letters first appear in the
    rewrite.  Which words are one operator depends on the parameter set,
    so each context merges them further (``OperatorContext._vector``).

    The contexts of a run evaluate the same polynomials, so keeping every
    rewrite runs ``to_contiguous`` once per polynomial and not once per
    context; the runner fills the cache before it forks its context
    workers, which inherit it.  ``verifier.run_suite`` clears the cache
    when its run ends, so no rewrite outlives the run.
    """
    rank, den, terms = key
    words = to_contiguous(NCPoly.from_pair(rank, den, dict(terms)))
    den = words.den
    merged: dict[tuple, dict[tuple, int]] = {}
    for word, n in words.nums.items():
        letters = tuple(g for g in word if g not in _SCALARS)
        monomial = tuple(sorted((g for g in word if g in _SCALARS),
                                key=Gen.sort_key))
        slot = merged.setdefault(letters, {})
        slot[monomial] = slot.get(monomial, 0) + n
    entries = [(letters, monomial, n) for letters, slot in merged.items()
               for monomial, n in slot.items() if n]
    g = math.gcd(den, *(n for _, _, n in entries))
    if g > 1:
        den //= g
        entries = [(letters, m, n // g) for letters, m, n in entries]
    return den, entries


# The order a canonical word puts interchangeable letters in: the diagonal
# C123 first, so a word's operator more often composes a shared suffix.  On
# `verify --rank 4 --suites all` that took 3% fewer inner products in
# ``compose`` than table order did.
_LETTER_ORDER = {g: i for i, g in enumerate((
    Gen("C", (1, 2, 3)), Gen("C", (1, 2)), Gen("C", (2, 3)),
    Gen("C", (3, 4)), Gen("C", (2, 3, 4))))}


def _leak_after(left: SparseOperator, right: SparseOperator) -> set:
    """The leak set of ``left.compose(right)``, read without composing:
    ``right``'s leaks, and the columns of ``right`` whose image meets one of
    ``left``'s."""
    return set(right._leak).union(
        x for x, col in right.cols.items() if not left._leak.isdisjoint(col))


def _column_after(left: SparseOperator, right: SparseOperator, x: int):
    """Column ``x`` of ``left.compose(right)`` before normalisation, in
    integers over ``left.den * right.den`` with no zero entry, or ``None``
    when that column leaks."""
    if x in right._leak:
        return None
    mid = right.cols.get(x, {})
    if not left._leak.isdisjoint(mid):
        return None
    left_cols = left.cols
    col: dict[int, int] = {}
    for y, v in mid.items():
        for z, w in left_cols.get(y, {}).items():
            col[z] = col.get(z, 0) + v * w
    if 0 in col.values():
        col = {z: w for z, w in col.items() if w}
    return col


def _invertible_diagonal(op: SparseOperator) -> bool:
    """Leak-free, and every state's image is a nonzero multiple of itself."""
    return (not op._leak and len(op.cols) == len(op.states)
            and all(len(col) == 1 and x in col for x, col in op.cols.items()))


class OperatorContext:
    """Evaluates polynomials on one parameter set's triangular window,
    keeping one operator per distinct coefficient vector; ``plan`` tells it
    which polynomials will follow, so it keeps each word operator only
    while one needs it.

    A polynomial is rewritten at its own rank; a rank-3 polynomial's
    contiguous letters are rank-4 letters too, so the context evaluates it
    as it is, and ``chain_part`` reads it on the s = 0 chain.  Evaluation is
    homomorphic: products compose, sums add, and leak flags propagate so
    results are asserted only where exact.

    Canonical words.  Two letters ``a`` and ``b`` are interchangeable when
    ``a.compose(b)`` and ``b.compose(a)`` are the same operator (``den``,
    ``cols`` and leak set) and either both letters are leak-free, or one
    is leak-free and diagonal with no zero on its diagonal.  Then the words
    ``u·a·b·v`` and ``u·b·a·v`` have the same operator, leak set included,
    for all words ``u`` and ``v``: under either condition ``a`` and ``b``
    commute on every column that composing them with ``v`` keeps reliable,
    and neither order cancels an image the other keeps.  So the context
    writes each word in one canonical order, the least in ``_LETTER_ORDER``
    that swaps of adjacent interchangeable letters reach (the
    lexicographic normal form of the partially commutative monoid), and
    words of one canonical order are one operator.  The check is exact,
    composes the two orders one column at a time, stopping at the first
    column or leak that differs, and runs once per pair of letters, only
    for pairs that meet the leak condition, the first time a word holds
    both.  It holds on the window only, so the columns a merged word leaks
    stay unreliable even when its coefficients cancel.
    """

    def __init__(self, params: RepParams, window: int):
        ensure_valid(params, window)
        self.params = params
        self.window = window
        self.states = triangle_states(window)
        self._scalars = {g: fn(params) for g, fn in _SCALARS.items()}
        # each scalar monomial's value, as (numerator, denominator)
        self._monomials: dict[tuple, tuple[int, int]] = {}
        self._word_ops: dict[tuple, SparseOperator] = {}
        # per letter pair checked (both orders), whether it is interchangeable
        self._swaps: dict[tuple[Gen, Gen], bool] = {}
        # canonical words by id; each word met, and each canonical word,
        # maps to its canonical word's id
        self._words: list[tuple] = []
        self._ids: dict[tuple, int] = {}
        # per polynomial key, its vector and scale (see ``_vector``)
        self._vectors: dict[tuple, tuple[frozenset, Fraction]] = {}
        # the operator cache: per vector, its operator at each scale asked
        # for, the first one evaluated and the others its multiples
        self._ops: dict[frozenset, dict[Fraction, SparseOperator]] = {}
        # the plan: per planned vector not yet evaluated, its multi-letter
        # canonical words and their multi-letter suffixes, all the word
        # operators its eval may build; per such word, how many of those
        # vectors hold it as a word or as a suffix
        self._planned: dict[frozenset, tuple] = {}
        self._needers: dict[tuple, int] = {}

    def interchangeable(self, a: Gen, b: Gen) -> bool:
        """Whether words may swap the adjacent letters ``a`` and ``b`` (see
        the class docstring); checked once per pair."""
        got = self._swaps.get((a, b))
        if got is None:
            x, y = self._word_op((a,)), self._word_op((b,))
            got = False
            if a != b and ((not x._leak and not y._leak)
                           or _invertible_diagonal(x)
                           or _invertible_diagonal(y)):
                # both orders share the raw denominator x.den * y.den, so
                # equal raw columns are equal operators
                got = all(_column_after(x, y, i) == _column_after(y, x, i)
                          for i in range(len(self.states)))
            self._swaps[a, b] = self._swaps[b, a] = got
        return got

    def _canonical(self, word: tuple) -> tuple:
        """The least word in ``_LETTER_ORDER`` that swaps of adjacent
        interchangeable letters reach from ``word``: at each step, the
        least letter that every letter before it lets pass comes first."""
        rest, out = list(word), []
        while rest:
            best = 0
            for i in range(1, len(rest)):
                g = rest[i]
                if (_LETTER_ORDER[g] < _LETTER_ORDER[rest[best]]
                        and all(self.interchangeable(h, g)
                                for h in rest[:i])):
                    best = i
            out.append(rest.pop(best))
        return tuple(out)

    def _word_id(self, letters: tuple) -> int:
        wid = self._ids.get(letters)
        if wid is None:
            word = letters if len(letters) < 2 else self._canonical(letters)
            wid = self._ids.get(word)
            if wid is None:
                wid = self._ids[word] = len(self._words)
                self._words.append(word)
            self._ids[letters] = wid
        return wid

    def _vector(self, key: tuple) -> tuple[frozenset, Fraction]:
        """The polynomial whose ``key()`` is ``key`` as ``(vector, scale)``.

        A scalar letter acts as c*I with no leaks, so it is multiplied into
        its word's coefficient, each scalar monomial's value computed once
        per context.  A word whose coefficient folds to zero takes its leak
        set with it, so the reliable states can only grow.  The other words
        are summed by canonical word, in integers over one denominator.
        The vector is the set of pairs (canonical word id, integer
        coefficient), the coefficients with no common factor and the one on
        the least id with a nonzero coefficient positive.  A canonical word
        whose coefficients cancel keeps its pair, with coefficient 0: it
        adds its leaks.  The polynomial is ``scale`` times the vector.
        """
        got = self._vectors.get(key)
        if got is not None:
            return got
        den, entries = _contiguous_words(key)
        values = self._monomials
        # each operator word's coefficient is num / (d * den), in integers
        sums: dict[tuple, list[int]] = {}
        for letters, monomial, n in entries:
            value = values.get(monomial)
            if value is None:
                q = ONE
                for g in monomial:
                    q *= self._scalars[g]
                value = values[monomial] = q.numerator, q.denominator
            vn, vd = value
            acc = sums.setdefault(letters, [0, vd])
            if acc[1] == vd:
                acc[0] += n * vn
            else:
                acc[0] = acc[0] * vd + n * vn * acc[1]
                acc[1] *= vd
        words = [(letters, num, d) for letters, (num, d) in sums.items()
                 if num]
        common = math.lcm(*(d for _, _, d in words))
        merged: dict[int, int] = {}
        for letters, num, d in words:
            wid = self._word_id(letters)
            merged[wid] = merged.get(wid, 0) + num * (common // d)
        scale = ONE
        g = math.gcd(*merged.values())
        if g:
            if merged[min(wid for wid, n in merged.items() if n)] < 0:
                g = -g
            if g != 1:
                merged = {wid: n // g for wid, n in merged.items()}
            scale = Fraction(g, common * den)
        got = self._vectors[key] = frozenset(merged.items()), scale
        return got

    def plan(self, polys) -> None:
        """Announces the polynomials this context will evaluate, before the
        first ``eval``, so ``eval`` keeps a word's operator exactly as long
        as a later one needs it.  Polynomials with one vector (see
        ``_vector``), proportional ones included, count once: ``eval``
        builds that vector's operator once.

        The plan is only a hint: a polynomial evaluated without a plan is
        evaluated exactly too, and an operator dropped after its planned
        last use is built again when asked for.
        """
        for p in polys:
            vector, _ = self._vector(p.key())
            if vector in self._planned or vector in self._ops:
                continue
            tails = {w[i:] for w in (self._words[wid] for wid, _ in vector)
                     for i in range(len(w) - 1)}
            self._planned[vector] = tuple(tails)
            for w in tails:
                self._needers[w] = self._needers.get(w, 0) + 1

    def _word_op(self, word) -> SparseOperator:
        got = self._word_ops.get(word)
        if got is not None:
            return got
        if not word:
            out = SparseOperator.scalar(self.states, 1)
        elif len(word) == 1:
            out = build_operator(word[0], self.params, self.window, self.states)
        else:
            out = self._word_op(word[:1]).compose(self._word_op(word[1:]))
        self._word_ops[word] = out
        return out

    def eval(self, p: NCPoly) -> SparseOperator:
        """Evaluate any polynomial; non-contiguous letters are decomposed.

        The result equals the sum, word by word, of each contiguous word's
        operator times its coefficient, scalar letters folded (see
        ``_vector``), in ``den``, ``cols`` and leak set.  A polynomial whose
        vector was evaluated before, a polynomial proportional to an earlier
        one included, is that operator times the ratio of the scales, kept
        for that scale.

        A canonical word of two or more letters gets its own operator while
        a later planned vector holds it, as a word or as a suffix (see
        ``plan``), and keeps it until the sum of the last such vector; then
        it is dropped, letters staying.  The other words that begin with a
        letter are summed over their suffixes and composed with it once,
        and each word keeps the leak set ``compose`` would give it.  A word
        whose coefficients cancel adds only its leak set: its own
        operator's, or its group's, whose leak union covers it.
        """
        vector, scale = self._vector(p.key())
        scaled = self._ops.get(vector)
        if scaled is not None:
            got = scaled.get(scale)
            if got is None:
                at, op = next(iter(scaled.items()))
                # a zero operator is each of its multiples
                got = scaled[scale] = op * (scale / at) if op.cols else op
            return got
        tails = self._planned.pop(vector, ())
        for w in tails:
            n = self._needers.pop(w) - 1
            if n:
                self._needers[w] = n
        parts, groups, leak = [], {}, set()
        for wid, n in vector:
            w = self._words[wid]
            if len(w) < 2 or w in self._word_ops or w in self._needers:
                op = self._word_op(w)
                if n:
                    parts.append((n * scale, op))
                else:
                    leak.update(op._leak)
            else:
                groups.setdefault(w[0], []).append((n, self._word_op(w[1:])))
        for a, group in groups.items():
            left = self._word_op((a,))
            # each word's leaks by compose's rule; a zero operator carries
            # them into the sum, which drops those columns
            group_leak = set().union(*(_leak_after(left, op)
                                       for _, op in group))
            group.append((1, SparseOperator(self.states, 1, {},
                                            frozenset(group_leak))))
            parts.append((scale, left.compose(
                SparseOperator.linear_combination(self.states, group))))
        if leak:
            parts.append((1, SparseOperator(self.states, 1, {},
                                            frozenset(leak))))
        out = SparseOperator.linear_combination(self.states, parts)
        self._ops[vector] = {scale: out}
        for w in tails:
            if w not in self._needers:
                self._word_ops.pop(w, None)
        return out


# -- standard parameter sets -----------------------------------------------------

DEFAULT_SEED = 8093


# the widest window on which integer_params() is valid
INTEGER_WINDOW = 4


def integer_params() -> RepParams:
    return RepParams(Fraction(1), Fraction(1), Fraction(1), Fraction(1), Fraction(3))


def generic_params() -> RepParams:
    return RepParams(Fraction(1, 3), Fraction(1, 5), Fraction(2, 7),
                     Fraction(1, 2), Fraction(4))


def randomized_params(window: int = 12, seed: int = DEFAULT_SEED) -> RepParams:
    """A validated random rational parameter set (deterministic per seed)."""
    rng = random.Random(seed)
    while True:
        cs = []
        for _ in range(4):
            den = rng.choice((3, 5, 7, 11, 13))
            cs.append(Fraction(rng.randrange(1, den), den))
        p = RepParams(*cs, Fraction(rng.randrange(2, 6)))
        if not validate_params(p, window):
            return p


def default_param_sets(window: int = 12, seed: int = DEFAULT_SEED):
    """The three standard suites: small integer parameters on their widest
    valid window, a generic fraction set, and a seeded random set."""
    return (
        ("integer", integer_params(), INTEGER_WINDOW),
        ("generic", generic_params(), window),
        ("randomized", randomized_params(window, seed), window),
    )
