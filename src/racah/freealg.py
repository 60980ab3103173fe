"""Exact noncommutative polynomial arithmetic and a terminating rewrite engine.

Polynomials are finite rational-linear combinations of words over an indexed
generator alphabet.  A rewrite system compiled from a relation catalog
normal-orders words; reduction to zero certifies that an element lies in the
two-sided ideal generated by the relations.  A nonzero normal form proves
nothing (the rule set is sound but not complete: no confluence claim).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple

ZERO = Fraction(0)
HALF = Fraction(1, 2)


class AlgebraError(ValueError):
    """Malformed algebraic input (bad indices, unknown symbols...)."""


class RankMismatchError(AlgebraError):
    """Operands live over different ambient index ranges."""


class UnknownGeneratorError(AlgebraError):
    """A word contains a symbol the rewrite system has no ordering entry for."""


class ScheduleError(AlgebraError):
    """A recorded saturation schedule names a product that yields no rule,
    or another rule than the one recorded."""


def rational(value, what: str = "coefficient") -> Fraction:
    """``value`` as an exact ``Fraction``; a float is refused, since
    Fraction(0.1) is the nearest binary fraction, not 1/10."""
    if isinstance(value, float):
        raise AlgebraError(
            f"{what} {value!r} is a float; give an int or a Fraction")
    return Fraction(value)


# Generator kinds.  Sort order: pair shift generators, then singleton shift
# generators, then half-commutator generators; the one "foreign" kind, the
# subset generators, sorts after the core and is eliminated by expansion
# rules before normal ordering starts.  (Pentagon labels are no letters:
# they name subset polynomials, see ``core.pentagon_poly``.)
_KIND_RANK = {"D": 2, "C": 3}
_DEGREE = {"P": 1, "D": 2, "C": 1}

CORE_KINDS = ("P", "D")


class Gen(NamedTuple):
    """A tagged generator symbol: kind plus canonical index payload.

    Canonicalization (index sorting, permutation signs, range checks) is the
    constructors' job, over in :mod:`racah.core`; this type is raw storage.
    """

    kind: str
    indices: tuple[int, ...]

    def sort_key(self) -> tuple:
        if self.kind == "P":
            # pairs before singletons, so singleton eliminations can see the
            # half-commutator block that follows them in a sorted word
            return (0 if len(self.indices) == 2 else 1, self.indices)
        return (_KIND_RANK[self.kind], self.indices)

    @property
    def degree(self) -> int:
        return _DEGREE[self.kind]

    def __str__(self) -> str:
        return self.kind + "".join(str(i) for i in self.indices)

    def __repr__(self) -> str:
        return f"Gen({str(self)!r})"


Word = tuple[Gen, ...]


@dataclass(frozen=True, eq=False)
class NCPoly:
    """Finite map word -> rational, the universal carrier for algebra elements.

    Immutable after construction; all arithmetic is exact.  Zero
    coefficients are dropped here, and only here.
    """

    rank: int
    terms: Mapping[Word, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "terms",
                           {w: c for w, c in self.terms.items() if c})

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(rank: int) -> "NCPoly":
        return NCPoly(rank, {})

    @staticmethod
    def const(rank: int, value) -> "NCPoly":
        return NCPoly(rank, {(): rational(value)})

    @staticmethod
    def one(rank: int) -> "NCPoly":
        return NCPoly.const(rank, 1)

    @staticmethod
    def from_word(rank: int, word: Iterable[Gen], coeff=1) -> "NCPoly":
        return NCPoly(rank, {tuple(word): rational(coeff)})

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, word: Word) -> Fraction:
        return self.terms.get(tuple(word), ZERO)

    # -- arithmetic --------------------------------------------------------

    def _operand(self, other):
        """A polynomial or number operand as a polynomial of this rank; a
        number goes through ``rational``, so a float raises."""
        if isinstance(other, (int, float, Fraction)):
            return NCPoly(self.rank, {(): rational(other, "operand")})
        if not isinstance(other, NCPoly):
            return NotImplemented
        if self.rank != other.rank:
            raise RankMismatchError(
                f"rank {self.rank} vs rank {other.rank} operands")
        return other

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, ZERO) + c
        return NCPoly(self.rank, out)

    __radd__ = __add__

    def __neg__(self):
        return NCPoly(self.rank, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            q = rational(other, "operand")
            return NCPoly(self.rank, {w: c * q for w, c in self.terms.items()})
        other = self._operand(other)
        if other is NotImplemented:
            return other
        out: dict[Word, Fraction] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, ZERO) + c1 * c2
        return NCPoly(self.rank, out)

    def __rmul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise AlgebraError("exponent must be a nonnegative integer")
        out = NCPoly.one(self.rank)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        # a number compares as a constant; a float raises, as in + - *
        if isinstance(other, (int, float, Fraction)):
            other = self._operand(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def substitute(self, image) -> "NCPoly":
        """Extend a letter map Gen -> NCPoly to an algebra homomorphism."""
        out: dict[Word, Fraction] = {}
        for w, c in self.terms.items():
            part = NCPoly.const(self.rank, c)
            for g in w:
                part = part * image(g)
            for w2, c2 in part.terms.items():
                out[w2] = out.get(w2, ZERO) + c2
        return NCPoly(self.rank, out)

    def key(self) -> tuple:
        """Canonical hashable content, for table lookups and determinism."""
        return (self.rank, tuple(sorted(self.terms.items(),
                                        key=lambda it: _word_key(it[0]))))

    def __str__(self) -> str:
        return format_poly(self)

    __repr__ = __str__


def _word_key(w: Word) -> tuple:
    return (len(w), tuple(g.sort_key() for g in w))


# -- bracket products ----------------------------------------------------------

def commutator(a: NCPoly, b: NCPoly) -> NCPoly:
    """ab - ba."""
    return a * b - b * a


def anticommutator(a: NCPoly, b: NCPoly) -> NCPoly:
    """ab + ba."""
    return a * b + b * a


# -- printing ----------------------------------------------------------------

def format_word(w: Word) -> str:
    return "*".join(str(g) for g in w)


def format_poly(p: NCPoly) -> str:
    if p.is_zero:
        return "0"
    bits = []
    for w, c in sorted(p.terms.items(), key=lambda it: _word_key(it[0])):
        if not w:
            body = str(abs(c))
        elif abs(c) == 1:
            body = format_word(w)
        else:
            body = f"{abs(c)}*{format_word(w)}"
        bits.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(bits)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


# -- rewrite engine -----------------------------------------------------------

def _combine(den: int, parts: list) -> tuple:
    """The gcd-normalised pair of ``(1/den) * sum(n * entry)`` over the
    ``(n, entry)`` in ``parts``, each entry a ``(den, {word: int})`` pair;
    integer arithmetic over the lcm of the entries' denominators."""
    if not parts:
        return 1, {}
    common = 1
    for _, (d, _) in parts:
        if d != 1:
            common = lcm(*(d for _, (d, _) in parts))
            break
    # the first part's terms are copied, not merged into an empty sum
    (n, (d, terms)), *rest = parts
    m = n * (common // d)
    acc = dict(terms) if m == 1 else {w: m * c for w, c in terms.items()}
    get = acc.get
    for n, (d, terms) in rest:
        m = n * (common // d)
        for w, c in terms.items():
            acc[w] = get(w, 0) + m * c
    if 0 in acc.values():
        acc = {w: c for w, c in acc.items() if c}
    den *= common
    if den > 1:
        g = gcd(den, *acc.values())
        if g > 1:
            den //= g
            acc = {w: c // g for w, c in acc.items()}
    return den, acc


@dataclass(frozen=True)
class RewriteRule:
    """One oriented rule: a length-1 or length-2 word and its replacement.

    ``grade_drop`` names the component of the termination measure
    (foreign letters, degree, length, singleton count, inversions) that every
    replacement word strictly drops below the matched word; the engine
    re-checks the drop at every application.
    """

    lhs: Word
    rhs: NCPoly
    name: str       # "swap" | "expand" | "eliminate"
    grade_drop: str


class RewriteSystem:
    """An ordered, terminating set of word-rewrite rules.

    ``reduce`` repeatedly applies the leftmost applicable rule:

    * foreign letters (the subset generators) expand into the core
      alphabet of shift and half-commutator generators;
    * adjacent out-of-order core pairs swap, emitting the catalog commutator;
    * a singleton shift generator whose index misses some half-commutator
      letter anywhere in the word is eliminated through the sum identity that
      couples it to three pair-times-half-commutator words.  Singletons are
      central, so the match does not need adjacency.

    Every application strictly decreases the measure (foreign letters, total
    degree, word length, singleton count, word read lexicographically)
    lexicographically; this is asserted per step.  Zero normal form == ideal
    membership; anything else is inconclusive.

    Internally a rule body or a memoised normal form is one pair
    ``(den, {word: int})`` with ``den > 0`` and ``gcd(den, *nums) == 1``:
    exact for any rational, and unique, so ``==`` on pairs is equality of
    normal forms.  Coefficients become ``Fraction`` again only in ``_extern``.
    """

    def __init__(self, rank: int, alphabet: Iterable[Gen],
                 rules: Iterable[RewriteRule]):
        self.rank = rank
        self.rules = tuple(rules)
        gens = sorted(set(alphabet), key=Gen.sort_key)
        self._gen2id = {g: i for i, g in enumerate(gens)}
        self._id2gen = gens
        self._single = {i for i, g in enumerate(gens)
                        if g.kind == "P" and len(g.indices) == 1}
        # per letter, its share of (foreign letters, degree, length,
        # singletons) packed 32 bits a field: a word's sum compares as those
        # four counts do, lexicographically, below 2**31 letters
        self._weight = [(g.kind not in CORE_KINDS) << 96 | g.degree << 64
                        | 1 << 32 | (i in self._single)
                        for i, g in enumerate(gens)].__getitem__
        # one-letter expansions, two-letter swaps and derived rules, keyed by
        # left-hand side; eliminations by (singleton, half-commutator)
        self._adjacent: dict[tuple, tuple] = {}
        self._elim: dict[tuple[int, int], tuple] = {}
        for rule in self.rules:
            ids = tuple(self._gen2id[g] for g in rule.lhs)
            table = self._elim if rule.name == "eliminate" else self._adjacent
            table[ids] = self._intern(rule.rhs)
        # memo of word -> normal form; value-identical results regardless of
        # call interleaving, so sharing between threads only wastes work
        self._nf: dict[tuple, tuple] = {}
        # the words of each reducible memo entry's first step, so that
        # saturation can tell which entries a new rule invalidates
        self._kids: dict[tuple, tuple] = {}
        self._steps = 0

    # -- plumbing ---------------------------------------------------------

    def _intern(self, p: NCPoly) -> tuple:
        # over the lcm of reduced denominators the numerators share no
        # factor with it, so the pair is already gcd-normalised
        ids = self._gen2id
        den = lcm(*(c.denominator for c in p.terms.values()))
        try:
            return den, {tuple(ids[g] for g in w):
                         c.numerator * (den // c.denominator)
                         for w, c in p.terms.items()}
        except KeyError as exc:
            raise UnknownGeneratorError(
                f"no ordering entry for {exc.args[0]}") from None

    def _extern(self, entry: tuple) -> NCPoly:
        den, terms = entry
        gens = self._id2gen
        return NCPoly(self.rank, {tuple(gens[i] for i in w): Fraction(n, den)
                                  for w, n in terms.items()})

    def generator_order(self, g: Gen) -> int:
        try:
            return self._gen2id[g]
        except KeyError:
            raise UnknownGeneratorError(f"no ordering entry for {g}") from None

    def _measure(self, w: tuple) -> tuple:
        # the packed counts, then the word: the word makes this a total
        # order on words, so any sound identity can be oriented toward its
        # largest word; a swap already drops it (the smaller letter moves
        # left)
        return sum(map(self._weight, w)), w

    @property
    def steps(self) -> int:
        """Rule applications performed by this system since construction,
        including those made while its rule set was being saturated."""
        return self._steps

    # -- redex search ---------------------------------------------------------

    def _find_redex(self, w: tuple):
        """The step ``w`` takes as ``(prefix, body, suffix)``: ``w`` becomes
        ``prefix + rw + suffix`` for each word ``rw`` of ``body``, a
        ``(den, {word: int})`` entry.  ``None`` when no rule applies."""
        adjacent = self._adjacent
        n = len(w)
        for p in range(n):
            # at the last position both slices are the one-letter word
            for end in (p + 1, p + 2):
                body = adjacent.get(w[p:end])
                if body is not None:
                    return w[:p], body, w[end:]
        for p in range(n):
            if w[p] in self._single:
                for q in range(n):
                    body = self._elim.get((w[p], w[q]))
                    if body is not None:
                        # the singleton is central: take it out of the word
                        # and put the body in place of its partner
                        if p < q:
                            return w[:p] + w[p + 1:q], body, w[q + 1:]
                        return w[:q], body, w[q + 1:p] + w[p + 1:]
        return None

    # -- reduction ----------------------------------------------------------

    def _normal_form(self, word: tuple) -> tuple:
        nf = self._nf
        got = nf.get(word)
        if got is not None:
            return got
        stack = [word]
        pending: dict[tuple, tuple] = {}
        while stack:
            w = stack[-1]
            if w in nf:
                stack.pop()
                continue
            # a word whose kids are all memoized combines at its first visit
            step = pending.pop(w, None)
            if step is None:
                redex = self._find_redex(w)
                if redex is None:
                    nf[w] = (1, {w: 1})
                    stack.pop()
                    continue
                prefix, (den, body), suffix = redex
                kids = tuple(prefix + rw + suffix for rw in body)
                mw = self._measure(w)
                for kw in kids:
                    mk = self._measure(kw)
                    if not mk < mw:
                        raise AssertionError(
                            f"termination measure did not drop: {mw} -> {mk}")
                self._steps += 1
                step = (den, kids, body.values())
            den, kids, coeffs = step
            missing = [kw for kw in kids if kw not in nf]
            if missing:
                pending[w] = step
                stack.extend(missing)
                continue
            nf[w] = _combine(den, list(zip(coeffs, map(nf.__getitem__, kids))))
            self._kids[w] = kids
            stack.pop()
        return nf[word]

    def _reduce(self, entry: tuple) -> tuple:
        """The normal form of a ``(den, {word: int})`` pair, as such a pair."""
        den, terms = entry
        nf = self._normal_form
        return _combine(den, [(c, nf(w)) for w, c in terms.items()])

    def reduce(self, p: NCPoly) -> NCPoly:
        """A normal form of ``p``.  Zero certifies ideal membership."""
        if p.rank != self.rank:
            raise RankMismatchError(
                f"poly of rank {p.rank} fed to rank-{self.rank} system")
        return self._extern(self._reduce(self._intern(p)))

    def reduce_with_stats(self, p: NCPoly) -> tuple[NCPoly, int]:
        before = self._steps
        out = self.reduce(p)
        return out, self._steps - before

    # -- saturation ---------------------------------------------------------

    def saturate(self, members: Iterable[NCPoly], letters: Iterable[Gen],
                 schedule: Iterable[Iterable[tuple[int, Word]]] | None = None
                 ) -> list[list[tuple[int, Word]]]:
        """Adopt in place the two-letter rules implied by the products
        ``u*m`` and ``m*u`` of each relation-ideal member ``m`` with each
        letter ``u``; the rules are appended to ``rules`` in word order.
        Returns the schedule: per round, the ``(index, lhs)`` of each
        product that adopted a rule, in product order, where ``index``
        counts the products member by member, letter by letter, ``u*m``
        before ``m*u``.  So the schedule names each derived rule's seed
        product.

        Each product is an ideal member, so its reduced residual is one too;
        a nonzero residual whose largest word has two letters and is no rule
        yet becomes a rule oriented at that word (every other residual word
        sits strictly below it in the measure, a total order).  Each round
        adopts its rules together.

        Without ``schedule`` this searches: the first round reduces every
        product, and each later round re-reduces only the products with a
        word whose memoized normal form the new rules dropped (an unchanged
        residual cannot yield a rule, since its largest word is already a
        rule or has a length other than two), until a round yields no rule;
        there are finitely many two-letter words, so this stops.

        With a ``schedule`` that an earlier search returned, round k
        reduces only the products that round lists, with the rules adopted
        before it, and the system ends with the rules and the schedule the
        search found.  Every rule is still computed from its own product's
        reduction under the per-step measure assertion, so the schedule
        cannot make the system unsound: an entry whose product yields no
        rule or another left-hand side raises ``ScheduleError``.  That the
        replayed system is a fixpoint is not checked here: it is when a
        search over it returns ``[]``.  No confluence claim is made for the
        result; it is merely a larger sound system.
        """
        letters = [self.generator_order(u) for u in letters]
        products = []
        for den, terms in map(self._intern, members):
            for u in letters:
                products.append((den, {(u,) + w: c for w, c in terms.items()}))
                products.append((den, {w + (u,): c for w, c in terms.items()}))
        gens = self._id2gen

        def text(w):
            return "no rule" if w is None else format_word(
                tuple(gens[k] for k in w))

        rounds = None if schedule is None else iter(
            [(i, tuple(map(self.generator_order, lhs))) for i, lhs in entries]
            for entries in schedule)
        todo = ([(i, None) for i in range(len(products))] if rounds is None
                else next(rounds, []))
        found: list[list[tuple[int, Word]]] = []
        adopted: dict[tuple, tuple] = {}
        while todo:
            new: dict[tuple, tuple] = {}
            seeds = []
            for i, want in todo:
                lhs, body = self._residual_rule(products[i], new)
                if want is not None and lhs != want:
                    raise ScheduleError(
                        f"rank {self.rank} saturation round {len(found) + 1}:"
                        f" product {i} ({'m*u' if i % 2 else 'u*m'} with u ="
                        f" {gens[letters[i // 2 % len(letters)]]}, m = seed"
                        f" member {i // (2 * len(letters))}) yields"
                        f" {text(lhs)}, not the scheduled {text(want)}")
                if lhs is not None:
                    new[lhs] = body
                    seeds.append((i, tuple(gens[k] for k in lhs)))
            if not new:
                break
            found.append(seeds)
            adopted.update(new)
            dropped = self._adopt(new)
            todo = ([(i, None) for i, (_, terms) in enumerate(products)
                     if not dropped.isdisjoint(terms)] if rounds is None
                    else next(rounds, []))
        # letter ids follow the sort key, so id order is the word order
        self.rules += tuple(
            RewriteRule(tuple(gens[i] for i in lhs), self._extern(adopted[lhs]),
                        "swap", "word order at equal degree")
            for lhs in sorted(adopted))
        return found

    def _residual_rule(self, product: tuple, new: dict) -> tuple:
        """The ``(lhs, body)`` rule that ``product``'s reduced residual
        yields, or ``(None, None)``: when the residual is zero, its largest
        word has no two letters, or that word has a rule already, here or
        in ``new``."""
        _, resid = self._reduce(product)
        if not resid:
            return None, None
        lhs = max(resid, key=self._measure)
        if (len(lhs) != 2 or lhs in new or lhs in self._adjacent
                or lhs in self._elim):
            return None, None
        # lhs - resid / (coefficient of lhs): the residual's own
        # denominator cancels, the lhs coefficient becomes the new one
        t = resid[lhs]
        sign = -1 if t > 0 else 1
        rest = {w: sign * c for w, c in resid.items() if w != lhs}
        g = gcd(t, *rest.values())
        return lhs, (abs(t) // g, {w: c // g for w, c in rest.items()})

    def _adopt(self, new: dict[tuple, tuple]) -> set[tuple]:
        """Enter the two-letter rules ``new`` (id word -> body) into the rule
        table; returns the id words whose memoized normal forms were dropped.

        A new left-hand side is no key of any existing rule, so in a word
        that holds no new left-hand side as an adjacent pair the redex
        search finds what it found before.  An entry is therefore kept
        unless its word holds a new pair or a word of its stored first step
        was dropped; the memo stores children before parents, so one pass
        in its order decides every entry.
        """
        self._adjacent.update(new)
        dropped = set()
        kids = self._kids
        new_pairs = new.keys()
        for w in self._nf:
            if (not new_pairs.isdisjoint(zip(w, w[1:]))
                    or not dropped.isdisjoint(kids.get(w, ()))):
                dropped.add(w)
        for w in dropped:
            del self._nf[w]
            kids.pop(w, None)
        return dropped

    # -- termination bookkeeping --------------------------------------------

    def step_bound(self, p: NCPoly) -> int:
        """A computable ceiling on the rule applications reduce(p) can take.

        Rewriting never increases a word's total degree, and degree bounds
        length once the (finitely many) foreign letters are expanded, so
        every word reachable from ``p`` has length at most
        max(length, degree) over p's words.  The engine resolves each
        distinct word at most once (results are memoized), so the count of
        words up to that length over the alphabet bounds the steps.
        """
        if p.is_zero:
            return 0
        cap = max(max(len(w), sum(g.degree for g in w)) for w in p.terms)
        n = len(self._id2gen)
        return sum(n ** l for l in range(cap + 1))
