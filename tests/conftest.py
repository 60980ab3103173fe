from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from racah import core
from racah.freealg import NCPoly
from racah.representation import OperatorContext, default_param_sets

settings.register_profile(
    "suite", deadline=None, max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
settings.load_profile("suite")


@pytest.fixture(scope="session")
def rs3():
    return core.rewrite_system(3)


@pytest.fixture(scope="session")
def rs4():
    return core.rewrite_system(4)


@pytest.fixture(scope="session")
def param_sets():
    return default_param_sets()


@pytest.fixture(scope="session")
def contexts(param_sets):
    return [(name, OperatorContext(p, w)) for name, p, w in param_sets]


@pytest.fixture(scope="session")
def ctx_integer(contexts):
    return contexts[0][1]


@pytest.fixture(scope="session")
def ctx_generic(contexts):
    return contexts[1][1]


COEFFS = [Fraction(n) for n in (-3, -2, -1, 1, 2, 3)] + \
         [Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)]


# A reference for NCPoly arithmetic over {word: Fraction} maps: sums in
# insertion order, zeros dropped at the end of each sum, as a product of
# polynomials drops them; so the reference also fixes the order of terms.

def fraction_sum(*maps):
    out = {}
    for m in maps:
        for w, c in m.items():
            out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def fraction_product(a, b):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
    return fraction_sum(out)


def fraction_substitution(a, image):
    """``a`` with each letter ``g`` replaced by the map ``image(g)``."""
    parts = []
    for w, c in a.items():
        part = {(): c}
        for g in w:
            part = fraction_product(part, image(g))
        parts.append(part)
    return fraction_sum(*parts)


def poly_strategy(rank=4, alphabet=None, max_words=3, max_len=3,
                  coeffs=COEFFS):
    import hypothesis.strategies as st

    gens = alphabet if alphabet is not None else core.alphabet(rank)
    words = st.lists(st.sampled_from(gens), min_size=0, max_size=max_len) \
        .map(tuple)
    term = st.tuples(words, st.sampled_from(coeffs))
    return st.lists(term, min_size=0, max_size=max_words).map(
        lambda terms: sum((NCPoly.from_word(rank, w, c) for w, c in terms),
                          NCPoly.zero(rank)))
