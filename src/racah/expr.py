"""Textual expression grammar for the CLI.

Identifiers: C{indices}, P{i}{j} or P{i}, D{i}{j}{k}, and at 4 indices the
pentagon labels Om{i}, om{i}, Ga{i}, which name subset polynomials and parse
to them (Om0 is C23; see core.pentagon_poly).  Operators: + - * ^, rational
literals p/q, [a,b] commutator, {a,b} anticommutator.  Juxtaposition
multiplies.  parse_expr round-trips with the canonical printer in
freealg.format_poly, which prints letters only: a pentagon label comes back
as its subset polynomial.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .core import d_poly, gen_C, gen_P, pentagon_poly
from .freealg import AlgebraError, Gen, NCPoly, anticommutator, commutator

# [0-9], not \d: \d and int() also take every other script's digits
_TOKEN = re.compile(r"""
    (?P<gen>(?:Om[0-9]|om[0-9]|Ga[0-9]|C[0-9]+|P[0-9][0-9]?|D[0-9]{3})(?![0-9]))
  | (?P<int>[0-9]+)
  | (?P<op>[-+*^/(),\[\]{}])
  | (?P<ws>\s+)
""", re.VERBOSE)


class ParseError(AlgebraError):
    pass


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} at {pos}")
        pos = m.end()
        if m.lastgroup != "ws":
            out.append(m.group())
    return out


# nesting levels of brackets and signs read, five stack frames each
MAX_DEPTH = 128

# Products expand: a nested commutator can more than double its terms per
# level and a power multiplies its base out, so a short input can name an
# expansion no memory holds.  One product may form at most MAX_TERMS term
# pairs and words of at most MAX_WORD letters; an exponent is at most
# MAX_WORD.
MAX_TERMS = 4096
MAX_WORD = 256


def _longest(p: NCPoly) -> int:
    return max(map(len, p.nums), default=0)


def _check_expansion(pairs: int, longest: int):
    """Raises unless an expansion of ``pairs`` term products with words of
    at most ``longest`` letters stays inside the caps."""
    if pairs > MAX_TERMS:
        raise ParseError(
            f"expression expands past {MAX_TERMS} terms in one product")
    if longest > MAX_WORD:
        raise ParseError(
            f"expression expands to words longer than {MAX_WORD} letters")


def _check_product(a: NCPoly, b: NCPoly):
    _check_expansion(len(a.nums) * len(b.nums), _longest(a) + _longest(b))


def _integer(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        # int() refuses strings of more than sys.get_int_max_str_digits()
        raise ParseError(f"integer of {len(tok)} digits is too long") from None


class _Parser:
    def __init__(self, tokens: list[str], rank: int):
        self.toks = tokens
        self.i = 0
        self.rank = rank
        self.depth = 0

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> str:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of expression")
        self.i += 1
        return t

    def expect(self, tok: str):
        t = self.next()
        if t != tok:
            raise ParseError(f"expected {tok!r}, found {t!r}")

    # expr := term (('+'|'-') term)*
    def expr(self) -> NCPoly:
        out = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    # term := ['-'] power (power | '*' power)*
    def term(self) -> NCPoly:
        sign = 1
        while self.peek() == "-":
            self.next()
            sign = -sign
        out = self.power()
        while True:
            t = self.peek()
            if t == "*":
                self.next()
            elif t is None or not (t[0].isdigit() or t[0] in "([{"
                                   or _TOKEN.match(t).lastgroup == "gen"):
                break
            rhs = self.power()
            _check_product(out, rhs)
            out = out * rhs
        return sign * out

    # power := atom ('^' int)?
    def power(self) -> NCPoly:
        base = self.atom()
        if self.peek() == "^":
            self.next()
            n = self.next()
            if not n.isdigit():
                raise ParseError(f"exponent must be a nonnegative integer, found {n!r}")
            n = _integer(n)
            if n > MAX_WORD:
                raise ParseError(f"exponent {n} is above the limit {MAX_WORD}")
            # base ** n multiplies base in n times; the last product is the
            # largest
            _check_expansion(len(base.nums) ** n, _longest(base) * n)
            return base ** n
        return base

    def atom(self) -> NCPoly:
        # every bracket and every sign nests through here
        if self.depth > MAX_DEPTH:
            raise ParseError(
                f"expression nested too deeply (limit {MAX_DEPTH})")
        self.depth += 1
        out = self.primary()
        self.depth -= 1
        return out

    def primary(self) -> NCPoly:
        t = self.next()
        if t == "(":
            out = self.expr()
            self.expect(")")
            return out
        if t == "[":
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect("]")
            _check_product(a, b)
            return commutator(a, b)
        if t == "{":
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect("}")
            _check_product(a, b)
            return anticommutator(a, b)
        if t == "-":
            return -self.atom()
        if t.isdigit():
            num = _integer(t)
            if self.peek() == "/":
                self.next()
                tok = self.next()
                if not tok.isdigit():
                    raise ParseError(f"malformed rational, found {tok!r}")
                den = _integer(tok)
                if den == 0:
                    raise ParseError(f"zero denominator in {t}/{tok}")
                return NCPoly.const(self.rank, Fraction(num, den))
            return NCPoly.const(self.rank, num)
        if _TOKEN.match(t).lastgroup != "gen":
            raise ParseError(f"unexpected token {t!r}")
        return self.generator(t)

    def generator(self, tok: str) -> NCPoly:
        kind = tok[:2] if tok[:2] in ("Om", "om", "Ga") else tok[0]
        digits = [int(ch) for ch in tok[len(kind):]]
        try:
            if kind == "C":
                if len(set(digits)) != len(digits):
                    raise ParseError(f"repeated index in {tok!r}")
                return gen_C(self.rank, digits)
            if kind == "P":
                if len(digits) == 1:
                    return gen_P(self.rank, digits[0], digits[0])
                return gen_P(self.rank, *digits)
            if kind == "D":
                return d_poly(self.rank, *digits)
            return pentagon_poly(self.rank, kind, digits[0])
        except ParseError:
            raise
        except AlgebraError as exc:
            raise ParseError(str(exc)) from None


def parse_expr(text: str, rank: int = 4) -> NCPoly:
    """Parse an expression over {1..rank}; decimals are rejected by the
    grammar (there is no '.' token)."""
    p = _Parser(_tokenize(text), rank)
    out = p.expr()
    if p.peek() is not None:
        raise ParseError(f"trailing input at token {p.peek()!r}")
    return out


def parse_letter(text: str) -> Gen:
    """The one rank-4 letter ``text`` parses to with coefficient 1: ``C23`` and
    ``Om0`` give the same letter; ``0``, ``2*C12`` and ``Ga0`` (a sum of two
    words) are no letter."""
    terms = parse_expr(text).terms
    if len(terms) == 1:
        ((word, c),) = terms.items()
        if len(word) == 1 and c == 1:
            return word[0]
    raise ParseError(f"{text!r} is not a single generator symbol")


__all__ = ["ParseError", "parse_expr", "parse_letter"]
