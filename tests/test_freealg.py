import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given

from conftest import poly_strategy
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
ONE = NCPoly.one(4)


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
    # a letter stores its hash, and str hashes differ between processes
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


def test_a_letter_is_one_value_however_it_is_reached():
    # letters match by value, not by object: no table shares them
    fresh = Gen("C", (1, 2))
    ((via_gen_C,),) = gen_C(4, (2, 1)).terms
    _, image = core._contiguous_pair(4, Gen("P", (1, 2)))   # C12 - C1 - C2
    (via_image,) = (w[0] for w in image if str(w[0]) == "C12")
    images, _ = IndexPermutation.transposition(4, 1, 3).letter_map(4)
    reached = (parse_letter("C12"), via_gen_C, via_image,
               images[Gen("C", (2, 3))])
    for g in reached:
        assert g == fresh and hash(g) == hash(fresh)
        assert rep._STENCILS[g] is rep._STENCILS[fresh]
