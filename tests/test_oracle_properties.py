"""can_poly against its definition by linearity, and member_T against
divisibility, in both algebras.

The paper defines Can(f) as the sum of c * Can(t) over the support of f
and charges |supp(f)| queries for it. These properties check, on small
drawn rings under every term order and the word order, that can_poly
returns that sum with that charge, and that a canonical form is its own
canonical form. Membership in a monomial ideal is decided by its
generators alone: a term is inside iff some generator divides it
componentwise, a word iff some generator is a factor of it.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from escalier.nc_polynomials import NcPolynomial
from escalier.oracle import CanOracle
from escalier.polynomials import Polynomial
from escalier.terms import TermOrder

PRIMES = st.sampled_from([2, 3, 7])
TERM_ORDERS = st.sampled_from([TermOrder(kind) for kind in ("lex", "deglex", "degrevlex")])


def coefficient_maps(monomials, p, max_size):
    return st.dictionaries(monomials, st.integers(min_value=1, max_value=p - 1), max_size=max_size)


@st.composite
def commutative_cases(draw):
    """(oracle, f): the oracle of 0-3 generators in 1-3 variables."""
    n, p, order = draw(st.integers(1, 3)), draw(PRIMES), draw(TERM_ORDERS)
    terms = st.tuples(*[st.integers(min_value=0, max_value=2)] * n)
    gens = draw(st.lists(coefficient_maps(terms, p, 3), max_size=3))
    oracle = CanOracle.commutative(
        [Polynomial(n, p, g) for g in gens], order, n=n, p=p
    )
    wide = st.tuples(*[st.integers(min_value=0, max_value=3)] * n)
    return oracle, Polynomial(n, p, draw(coefficient_maps(wide, p, 6)))


@st.composite
def free_cases(draw):
    """(oracle, f): the oracle of 1-3 words or binomials over 1-2 letters
    that pass the overlap check."""
    n, p = draw(st.integers(1, 2)), draw(PRIMES)
    words = st.lists(st.integers(1, n), max_size=3).map(tuple)
    basis = [
        NcPolynomial(n, p, g)
        for g in draw(st.lists(coefficient_maps(words, p, 2), min_size=1, max_size=3))
    ]
    try:
        oracle = CanOracle.noncommutative(basis)
    except ValueError:
        assume(False)
    return oracle, NcPolynomial(n, p, draw(coefficient_maps(words, p, 6)))


def check_linear(oracle, f):
    before = oracle.queries
    got = oracle.can_poly(f)
    charged = oracle.queries - before
    assert charged == len(f.support())

    before = oracle.queries
    expected = type(f)(f.n, f.p)
    for t, c in f.items():
        expected = expected + oracle.can_term(t).scale(c)
    assert oracle.queries - before == charged
    assert got == expected

    for t in f.support():
        can = oracle.can_term(t)
        assert oracle.can_poly(can) == can


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=commutative_cases())
def test_can_poly_is_linear_in_the_ring(case):
    check_linear(*case)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=free_cases())
def test_can_poly_is_linear_in_the_free_algebra(case):
    check_linear(*case)


@st.composite
def term_membership_cases(draw):
    """(n, generators, terms): 1-6 monomial generators in 1-6 variables
    with exponents up to 300, past any byte width, and terms to ask: each
    generator moved by a few units in each variable, up only (inside) and
    either way (near the border), and random ones."""
    n = draw(st.integers(1, 6))
    terms = st.tuples(*[st.integers(0, 300)] * n)
    gens = draw(st.lists(terms, min_size=1, max_size=6))
    shifts = st.tuples(*[st.integers(-3, 3)] * n)
    moves = [(g, draw(shifts)) for g in gens]
    up = [tuple(e + abs(d) for e, d in zip(g, s)) for g, s in moves]
    near = [tuple(max(0, e + d) for e, d in zip(g, s)) for g, s in moves]
    return n, gens, up + near + draw(st.lists(terms, max_size=6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=term_membership_cases())
def test_term_member_is_componentwise_divisibility(case):
    n, gens, asked = case
    oracle = CanOracle.commutative(
        [Polynomial.term(g, 32003) for g in gens], TermOrder("deglex"), n=n, p=32003
    )
    for t in asked:
        expected = any(all(a <= b for a, b in zip(g, t)) for g in gens)
        assert oracle.member_T(t) == expected
    assert oracle.queries == len(asked)


@st.composite
def word_membership_cases(draw):
    """(n, generators, words): 1-4 nonempty words of length up to 3 over
    1-3 letters, and words up to length 7 to ask."""
    n = draw(st.integers(1, 3))
    letters = st.integers(1, n)
    gens = draw(st.lists(st.lists(letters, min_size=1, max_size=3).map(tuple),
                         min_size=1, max_size=4, unique=True))
    return n, gens, draw(st.lists(st.lists(letters, max_size=7).map(tuple), max_size=10))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=word_membership_cases())
def test_word_member_is_a_factor_test(case):
    n, gens, asked = case
    oracle = CanOracle.noncommutative([NcPolynomial(n, 32003, {g: 1}) for g in gens])
    for w in asked:
        expected = any(
            w[i : i + len(g)] == g for g in gens for i in range(len(w) - len(g) + 1)
        )
        assert oracle.member_T(w) == expected
    assert oracle.queries == len(asked)
