"""buchberger against the definition of a reduced Groebner basis.

The pair criteria drop S-polynomials without reducing them; these
properties check on drawn generator sets that nothing needed was dropped
and that the result is the one reduced basis of the ideal.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from escalier.field import inv_mod
from escalier.polynomials import (
    Polynomial,
    Reducer,
    buchberger,
    is_groebner,
    normal_form,
    s_polynomial,
)
from escalier.terms import TermOrder, divides, lcm, term_div

ORDERS = st.sampled_from([TermOrder(kind) for kind in ("lex", "deglex", "degrevlex")])
PRIMES = st.sampled_from([7, 32003])


@st.composite
def generator_sets(draw):
    """(generators, a permutation of them, a scale factor for each): 1-4
    polynomials in 2-3 variables, sometimes all monomials, sometimes with
    a combination of the others appended."""
    n, p = draw(st.sampled_from([2, 3])), draw(PRIMES)
    terms = st.tuples(*[st.integers(min_value=0, max_value=2)] * n)
    coeff = st.integers(min_value=1, max_value=p - 1)
    size = 1 if draw(st.booleans()) else 4
    polys = st.dictionaries(terms, coeff, min_size=1, max_size=size)
    gens = [Polynomial(n, p, c) for c in draw(st.lists(polys, min_size=1, max_size=4))]
    if len(gens) > 1 and draw(st.booleans()):
        a, b = gens[0], gens[-1]
        c, t = draw(coeff), draw(terms)
        gens.append(a * Polynomial(n, p, {t: c}) + b.scale(draw(coeff)))
    perm = draw(st.permutations(gens))
    return gens, perm, draw(st.lists(coeff, min_size=len(gens), max_size=len(gens)))


def _is_reduced(elements, order) -> bool:
    leads = [g.leading_term(order) for g in elements]
    for g, lead in zip(elements, leads):
        if g.leading_coefficient(order) != 1:
            return False
        others = [t for t in leads if t != lead]
        if any(divides(t, s) for t in others for s in g.support()):
            return False
        if any(divides(lead, s) for s in g.support() if s != lead):
            return False
    return len(set(leads)) == len(leads)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=generator_sets(), order=ORDERS)
def test_buchberger_gives_the_reduced_basis(case, order):
    gens, perm, scales = case
    gb = buchberger(gens, order)
    elements = list(gb.elements)
    assert is_groebner(elements, order)
    assert all(normal_form(f, Reducer(elements, order)).is_zero() for f in gens)
    assert _is_reduced(elements, order)

    again = buchberger([f.scale(c) for f, c in zip(perm, scales)], order)
    assert again.elements == gb.elements


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=generator_sets(), order=ORDERS)
def test_s_polynomial_is_the_difference_of_two_shifted_copies(case, order):
    gens = [g for g in case[0] if not g.is_zero()]
    for f in gens:
        for g in gens:
            (tf, cf), (tg, cg) = f.leading_data(order), g.leading_data(order)
            d, p = lcm(tf, tg), f.p
            want = g * Polynomial(f.n, p, {term_div(d, tg): inv_mod(cg, p)}) - f * Polynomial(
                f.n, p, {term_div(d, tf): inv_mod(cf, p)}
            )
            got = s_polynomial(f, g, order)
            assert got == want and d not in got.support()
            assert all(0 < c < p for _, c in got.items())
