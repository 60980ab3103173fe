import pytest
from hypothesis import given

from conftest import poly_strategy
from racah.core import d_poly, gen_C, gen_P, gen_P1, pentagon_poly
from racah.expr import ParseError, parse_expr, parse_letter
from racah.freealg import Gen, NCPoly, anticommutator, commutator, format_poly


def test_generators():
    assert parse_expr("C12") == gen_C(4, (1, 2))
    assert parse_expr("C1234") == gen_C(4, (1, 2, 3, 4))
    assert parse_expr("P4") == gen_P1(4, 4)
    assert parse_expr("D123") == d_poly(4, 1, 2, 3)
    assert parse_expr("Om0") == pentagon_poly(4, "Om", 0)
    assert parse_expr("om3") == pentagon_poly(4, "om", 3)


def test_spaced_integer_multiplies():
    assert parse_expr("P12 3") == 3 * gen_P(4, 1, 2)


def test_rational_literals():
    assert parse_expr("3/4") == NCPoly.const(4, "3/4")
    assert parse_expr("-2") == NCPoly.const(4, -2)


def test_brackets():
    a, b = gen_C(4, (1, 2)), gen_C(4, (2, 3))
    assert parse_expr("[C12,C23]") == commutator(a, b)
    assert parse_expr("{C12,C23}") == anticommutator(a, b)
    assert parse_expr("[C12, C23] + {C12, C23}") == 2 * a * b


def test_precedence_and_power():
    a = gen_C(4, (1,))
    assert parse_expr("2*C1^2 - C1") == 2 * a * a - a
    assert parse_expr("C1 C2") == parse_expr("C1*C2")
    assert parse_expr("1/2*(C12 + C23)") == \
        NCPoly.const(4, "1/2") * (gen_C(4, (1, 2)) + gen_C(4, (2, 3)))


def test_parse_errors():
    for bad in ("C0", "C12 +", "[C12,C23", "Q7", "1.5*C12", "C12 ^ -1", "D12",
                "Om5", "om9", "Ga7", "C11", "C112",
                # an operator where an atom belongs
                "+C12", "*", ",", ")", "C12*]", "^2", "[C12,]"):
        with pytest.raises(ParseError):
            parse_expr(bad)


def test_nesting_depth():
    # every bracket and every sign is one level of the recursive descent
    from racah.expr import MAX_DEPTH
    parens = lambda n: "(" * n + "C12" + ")" * n
    brackets = lambda n: "[C12," * n + "C23" + "]" * n
    signs = lambda n: "C12*" + "-" * n + "C12"
    assert parse_expr(parens(MAX_DEPTH)) == parse_expr("C12")
    assert not parse_expr(brackets(MAX_DEPTH)).is_zero
    assert parse_expr(signs(MAX_DEPTH)) == parse_expr("C12*C12")
    for nested in (parens, brackets, signs):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_expr(nested(MAX_DEPTH + 1))


def test_expansion_caps():
    # a product forms at most MAX_TERMS term pairs and words of at most
    # MAX_WORD letters; past either the parser raises instead of expanding
    from racah.expr import MAX_TERMS, MAX_WORD
    nested = lambda n: "[C12,[C23," * n + "C34" + "]]" * n
    assert len(parse_expr(nested(6)).terms) == 2030         # 12 levels
    with pytest.raises(ParseError, match=f"past {MAX_TERMS} terms"):
        parse_expr(nested(10))
    assert MAX_TERMS == 2 ** 12
    assert len(parse_expr("(C12+C23)^12").terms) == MAX_TERMS
    for text in ("(C12+C23)^13", "(C12+C23)^30", "(C12+C23)(C12+C23)^12"):
        with pytest.raises(ParseError, match=f"past {MAX_TERMS} terms"):
            parse_expr(text)
    assert parse_expr(f"C1^{MAX_WORD}") == parse_expr("C1") ** MAX_WORD
    with pytest.raises(ParseError, match=f"above the limit {MAX_WORD}"):
        parse_expr("C1^100000")
    with pytest.raises(ParseError, match=f"longer than {MAX_WORD} letters"):
        parse_expr("C12 " * (MAX_WORD + 1))
    with pytest.raises(ParseError, match=f"longer than {MAX_WORD} letters"):
        parse_expr(f"(C12 C23)^{MAX_WORD // 2 + 1}")
    # int() refuses more than 4300 digits by default
    for text in ("1" * 5000, "1/" + "1" * 5000, "C1^" + "1" * 5000):
        with pytest.raises(ParseError, match="5000 digits is too long"):
            parse_expr(text)


def test_parse_letter():
    assert parse_letter("C23") == parse_letter("Om0") == Gen("C", (2, 3))
    assert parse_letter("D231") == Gen("D", (1, 2, 3))      # even reordering
    # no letter: zero, a sum, a coefficient, a sign, a product
    for bad in ("0", "C12+C13", "2*C12", "Ga0", "-C12", "D213", "C12 C23"):
        with pytest.raises(ParseError, match="single generator symbol"):
            parse_letter(bad)
    with pytest.raises(ParseError):
        parse_letter("C5")                                   # rank 4


def test_star_import_names_only_what_expr_has():
    namespace = {}
    exec("from racah.expr import *", namespace)
    assert {"ParseError", "parse_expr", "parse_letter"} <= namespace.keys()


def test_rank_bounds():
    with pytest.raises(Exception):
        parse_expr("C5", rank=4)
    assert parse_expr("C5", rank=5) == gen_C(5, (5,))
    with pytest.raises(ParseError):
        parse_expr("Om0", rank=3)


@given(poly_strategy(max_words=4, max_len=3))
def test_round_trip(p):
    assert parse_expr(format_poly(p)) == p


def test_round_trip_examples():
    for text in ("0", "-D123 + 1/2*C12*C23", "2*Om0*Ga3 - om1"):
        p = parse_expr(text)
        assert parse_expr(format_poly(p)) == p
