"""buchberger against the definition of a reduced Groebner basis.

The pair criteria drop S-polynomials without reducing them; these
properties check on drawn generator sets that nothing needed was dropped
and that the result is the one reduced basis of the ideal.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from escalier import polynomials
from escalier.field import inv_mod
from escalier.polynomials import (
    Polynomial,
    Reducer,
    buchberger,
    normal_form,
    parse_polynomial,
    s_polynomial,
)
from escalier.terms import TermOrder, divides, lcm

from helpers import is_groebner, reference_buchberger

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
        if g.leading_data(order)[1] != 1:
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
            qg, qf = (tuple(x - y for x, y in zip(d, t)) for t in (tg, tf))
            want = g * Polynomial(f.n, p, {qg: inv_mod(cg, p)}) - f * Polynomial(
                f.n, p, {qf: inv_mod(cf, p)}
            )
            got = s_polynomial(f, g, order)
            assert got == want and d not in got.support()
            assert all(0 < c < p for _, c in got.items())


def _random_ideal(rng):
    """1-3 polynomials of 1-4 terms and degree at most 3 in 1-5 variables."""
    n, p = rng.randint(1, 5), rng.choice([2, 3, 7, 32003])
    gens = []
    for _ in range(rng.randint(1, 3)):
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            t = [0] * n
            for _ in range(rng.randint(0, 3)):
                t[rng.randrange(n)] += 1
            coeffs[tuple(t)] = rng.randrange(1, p)
        gens.append(Polynomial(n, p, coeffs))
    return gens


def _elements(gb):
    """The element tuple down to term order inside each element."""
    return [list(g.items()) for g in gb.elements]


def test_buchberger_matches_the_tuple_loop():
    # the graded loop runs on packed terms, lex on tuples: both must give
    # the reference loop's elements, their terms and coefficients, in order
    rng = random.Random(20)
    for _ in range(1500):
        gens = _random_ideal(rng)
        order = TermOrder(rng.choice(["lex", "deglex", "degrevlex"]))
        assert _elements(buchberger(gens, order)) == _elements(reference_buchberger(gens, order))


def test_a_lead_past_the_width_restarts_wider(monkeypatch):
    # degree-3 generators give 4-bit fields, so leads stay below degree 8;
    # this basis has an element of degree 9, found by a seeded search
    n, p, order = 3, 32003, TermOrder("degrevlex")
    gens = [
        parse_polynomial(text, n, p)
        for text in ("5265*X2*X3^2 + 10930*X1*X2*X3 + 4556*X1^3", "21573*X2^3 + 30740")
    ]
    widths = []
    packed_ring = polynomials._packed_ring

    def recording(n, kind, w):
        widths.append(w)
        return packed_ring(n, kind, w)

    monkeypatch.setattr(polynomials, "_packed_ring", recording)
    gb = buchberger(gens, order)
    assert widths == [4, 8]
    assert max(g.degree() for g in gb.elements) == 9
    assert _elements(gb) == _elements(reference_buchberger(gens, order))


def test_rings_of_thousands_of_variables(monkeypatch):
    # the widest ring that runs packed and the narrowest that runs on tuples
    # give the reference loop's elements; the wide one never packs a term
    widths = []
    packed_ring = polynomials._packed_ring

    def recording(n, kind, w):
        widths.append(n)
        return packed_ring(n, kind, w)

    monkeypatch.setattr(polynomials, "_packed_ring", recording)
    edge = polynomials._PACKED_MAX_VARIABLES
    for n in (edge, edge + 1):
        texts = ("X1 + X2", "X2^2 + X3", "X1*X3 + 1", f"X{n}^2 + X{n - 1}*X1 + 5")
        gens = [parse_polynomial(text, n, 32003) for text in texts]
        for kind in ("deglex", "degrevlex"):
            order = TermOrder(kind)
            assert _elements(buchberger(gens, order)) == _elements(reference_buchberger(gens, order))
    assert set(widths) == {edge}
