import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (fraction_product, fraction_substitution, fraction_sum,
                      poly_strategy)
import racah
from racah import core, representation as rep
from racah.core import gen_C, gen_P
from racah.expr import parse_letter
from racah.freealg import (
    AlgebraError,
    Gen,
    NCPoly,
    RankMismatchError,
    anticommutator,
    commutator,
)
from racah.symmetry import IndexPermutation


def word(rank, *gens):
    return NCPoly.from_word(rank, gens)


X = word(4, Gen("C", (1, 2)))
Y = word(4, Gen("C", (2, 3)))
ONE = NCPoly.const(4, 1)


def test_additive_identity():
    assert X + NCPoly.zero(4) == X


def test_additive_inverse():
    assert X + -X == NCPoly.zero(4)
    assert (X - X).is_zero


def test_like_term_collection():
    assert 2 * X + 3 * X == 5 * X


def test_unit_word():
    assert ONE * X == X
    assert X * ONE == X


def test_concatenation():
    prod = X * Y
    assert prod == word(4, Gen("C", (1, 2)), Gen("C", (2, 3)))
    assert prod.coeff((Gen("C", (1, 2)), Gen("C", (2, 3)))) == 1


@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@given(poly_strategy())
def test_unit_laws(p):
    assert ONE * p == p == p * ONE


def test_rank_mismatch():
    with pytest.raises(RankMismatchError):
        gen_C(3, (1, 2)) + gen_C(4, (1, 2))
    with pytest.raises(RankMismatchError):
        gen_C(3, (1,)) * gen_C(4, (1,))


def test_commutator_basics():
    assert commutator(X, X).is_zero
    assert commutator(X, ONE).is_zero
    c = commutator(X, Y)
    assert len(c.terms) == 2
    assert c.coeff((Gen("C", (1, 2)), Gen("C", (2, 3)))) == 1
    assert c.coeff((Gen("C", (2, 3)), Gen("C", (1, 2)))) == -1


def test_anticommutator_basics():
    assert anticommutator(X, ONE) == 2 * X
    assert anticommutator(X, X) == 2 * X * X
    a = anticommutator(X, Y)
    assert a.coeff((Gen("C", (2, 3)), Gen("C", (1, 2)))) == 1


def jacobi_defect(a, b, c):
    """[a,[b,c]] + [b,[c,a]] + [c,[a,b]], expanded in the free algebra."""
    return (commutator(a, commutator(b, c)) + commutator(b, commutator(c, a))
            + commutator(c, commutator(a, b)))


def test_jacobi_defect_vanishes_syntactically():
    assert jacobi_defect(X, X, Y).is_zero
    assert jacobi_defect(ONE, X, Y).is_zero
    assert jacobi_defect(X, Y, gen_P(4, 1, 4)).is_zero


@given(poly_strategy(max_words=2, max_len=2), poly_strategy(max_words=2, max_len=2),
       poly_strategy(max_words=2, max_len=2))
def test_jacobi_defect_vanishes_randomized(a, b, c):
    # associativity of the free product makes the cyclic defect collapse
    assert jacobi_defect(a, b, c).is_zero


def test_scalar_arithmetic_exact():
    p = Fraction(1, 3) * X + Fraction(1, 6) * X
    assert p == Fraction(1, 2) * X
    assert (p * 2).coeff((Gen("C", (1, 2)),)) == 1


# Fraction(0.1) would be 3602879701896397/36028797018963968, not 1/10

def test_const_rejects_floats():
    with pytest.raises(AlgebraError, match="float"):
        NCPoly.const(4, 0.1)
    assert NCPoly.const(4, 2) == NCPoly.const(4, Fraction(4, 2))


def test_constructor_rejects_float_coefficients():
    # a float coefficient used to be kept, and the rewrite engine then
    # failed on it with an AttributeError
    C12 = Gen("C", (1, 2))
    with pytest.raises(AlgebraError, match="float"):
        NCPoly(4, {(C12,): 0.5})
    half = NCPoly(4, {(C12,): Fraction(1, 2), (): 0})
    assert half + half == X and half.nums == {(C12,): 1} and half.den == 2
    rs = core.rewrite_system(4)
    assert rs.reduce(half + half) == rs.reduce(X)


def test_from_word_rejects_float_coefficients():
    C12 = Gen("C", (1, 2))
    with pytest.raises(AlgebraError, match="float"):
        NCPoly.from_word(4, (C12,), 0.1)
    assert NCPoly.from_word(4, (C12,), Fraction(1, 10)) == Fraction(1, 10) * X
    assert NCPoly.from_word(4, (C12,), 3) == 3 * X


# a number operand goes through the same exact conversion as a coefficient
_OPERATORS = {
    "add": lambda p, x: p + x,
    "sub": lambda p, x: p - x,
    "mul": lambda p, x: p * x,
    "radd": lambda p, x: x + p,
    "rsub": lambda p, x: x - p,
    "rmul": lambda p, x: x * p,
}


@pytest.mark.parametrize("op", _OPERATORS.values(), ids=_OPERATORS)
def test_operators_reject_float_operands(op):
    with pytest.raises(AlgebraError, match="float"):
        op(X, 0.1)
    # ints and Fractions stay exact
    assert op(X, Fraction(1, 10)) == op(X, NCPoly.const(4, Fraction(1, 10)))
    assert op(X, 3) == op(X, NCPoly.const(4, 3))


def test_equality_rejects_float_operands():
    # a float used to compare unequal to every polynomial, its value too
    for p, x in ((NCPoly.const(4, 1), 1.0), (NCPoly.zero(4), 0.0), (X, 0.1)):
        with pytest.raises(AlgebraError, match="float"):
            p == x
        with pytest.raises(AlgebraError, match="float"):
            x == p
    # ints and Fractions compare by value
    assert NCPoly.const(4, 1) == 1 and 0 == NCPoly.zero(4)
    assert NCPoly.const(4, Fraction(1, 2)) == Fraction(1, 2) != X


@pytest.mark.parametrize("op", _OPERATORS.values(), ids=_OPERATORS)
def test_operators_refuse_other_operands(op):
    # NotImplemented, so Python raises its own TypeError
    for other in ("C12", None, object()):
        with pytest.raises(TypeError):
            op(X, other)


def test_power():
    assert X ** 0 == ONE
    assert X ** 3 == X * X * X


def test_gen_pickled_in_one_process_hashes_afresh_in_another():
    # str hashes differ between processes: a letter pickled under one hash
    # seed is still found in a set built under another
    src = os.path.dirname(os.path.dirname(racah.__file__))

    def run(seed, code, data=b""):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-c", "import pickle, sys\n"
             "from racah.freealg import Gen\n" + code],
            input=data, capture_output=True, env=env, check=True).stdout

    data = run(0, "sys.stdout.buffer.write(pickle.dumps(Gen('C', (1, 2))))")
    found = run(1, "print(pickle.loads(sys.stdin.buffer.read())"
                   " in {Gen('C', (1, 2))})", data)
    assert found.strip() == b"True"


def test_a_letter_is_immutable():
    g = Gen("C", (1, 2))
    with pytest.raises(AttributeError):
        g.kind = "P"


def test_a_polynomial_is_immutable():
    p = X + Fraction(1, 2) * Y
    for name in ("rank", "den", "nums", "terms"):
        with pytest.raises(AttributeError):
            setattr(p, name, getattr(p, name))
    assert p == X + Fraction(1, 2) * Y
    # it still pickles and copies, as the value it is
    assert pickle.loads(pickle.dumps(p)) == p == copy.deepcopy(p)


def test_a_letter_is_one_value_however_it_is_reached():
    # letters match by value, not by object: no table shares them
    fresh = Gen("C", (1, 2))
    ((via_gen_C,),) = gen_C(4, (2, 1)).terms
    image = core._contiguous_image(4, Gen("P", (1, 2))).nums   # C12 - C1 - C2
    (via_image,) = (w[0] for w in image if str(w[0]) == "C12")
    images, _ = IndexPermutation.transposition(4, 1, 3).letter_map(4)
    reached = (parse_letter("C12"), via_gen_C, via_image,
               images[Gen("C", (2, 3))])
    for g in reached:
        assert g == fresh and hash(g) == hash(fresh)
        assert rep._STENCILS[g] is rep._STENCILS[fresh]


# -- the integer pair against Fraction maps -----------------------------------
# The reference (conftest's fraction_* helpers) spells each operation over
# {word: Fraction} maps, so it also fixes the order of the terms.

_LETTERS = [Gen("C", (1, 2)), Gen("C", (2, 3)), Gen("P", (1,))]
_COEFFS = st.fractions(min_value=-2, max_value=2, max_denominator=4)
_MAPS = st.dictionaries(
    st.lists(st.sampled_from(_LETTERS), max_size=2).map(tuple), _COEFFS,
    max_size=4)


def _ref_scale(a, q):
    return fraction_sum({w: c * q for w, c in a.items()})


def _ref_key(a):
    den = lcm(*(c.denominator for c in a.values()))
    return (4, den, tuple(sorted(((w, int(c * den)) for w, c in a.items()),
                                 key=lambda it: (len(it[0]), [
                                     g.sort_key() for g in it[0]]))))


def _assert_canonical(p):
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int and n for n in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1


_C12, _C23, _P1 = _LETTERS


@given(_MAPS, _MAPS, _COEFFS,
       st.fixed_dictionaries({g: _MAPS for g in _LETTERS}))
# a substitution whose word C23*C23 cancels inside the first word's
# expansion and comes back from the second, so it goes last
@example({(_C23, _C12): -1, (_C23, _C23): Fraction(1, 2)}, {}, 1,
         {_C12: {(): -1, (_C23, _C23): -1},
          _C23: {(_C12, _P1): Fraction(-1, 2), (_C23, _C23): 1, (): -1},
          _P1: {}})
@settings(max_examples=100)
def test_integer_pairs_agree_with_fraction_maps(a, b, q, image):
    p, r = NCPoly(4, a), NCPoly(4, b)
    a, b = fraction_sum(a), fraction_sum(b)
    image = {g: fraction_sum(m) for g, m in image.items()}
    cases = [
        (p, a), (-p, _ref_scale(a, -1)),
        (p + r, fraction_sum(a, b)),
        (p - r, fraction_sum(a, _ref_scale(b, -1))),
        (q - p, fraction_sum(_ref_scale(a, -1), {(): q})),
        (p * r, fraction_product(a, b)), (p * q, _ref_scale(a, q)),
        (q * p, _ref_scale(a, q)),
        (p.substitute(lambda g: NCPoly(4, image[g])),
         fraction_substitution(a, image.__getitem__)),
    ]
    for got, want in cases:
        _assert_canonical(got)
        assert list(got.terms.items()) == list(want.items())
        assert got.key() == _ref_key(want)
        assert all(got.coeff(w) == c for w, c in want.items())
    assert (p == r) == (a == b)
    # equal polynomials, however reached, have equal keys
    assert p + r == r + p and (p + r).key() == (r + p).key()
    assert (p * q) * r == p * (r * q)
    assert ((p * q) * r).key() == (p * (r * q)).key()
