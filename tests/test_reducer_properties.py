"""A reused Reducer against a fresh, memo-free reduction, in both algebras.

A Reducer remembers the reduction step of every monomial it has seen and
forgets, on add, only the steps the new rule takes over. These properties
draw small rings under every term order and the word order, raw
generator sets (mostly not Groebner bases, and free bases whose
ambiguities need not resolve), and a session of reductions interleaved
with add calls. After every step the reused reducer must give exactly
the result of the reference loop over the basis as it stands.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escalier.nc_polynomials import NcPolynomial
from escalier.polynomials import Polynomial, Reducer, normal_form
from escalier.terms import TermOrder
from escalier.words import WordOrder

from helpers import reference_normal_form

PRIMES = st.sampled_from([2, 3, 7])
TERM_ORDERS = st.sampled_from([TermOrder(kind) for kind in ("lex", "deglex", "degrevlex")])


def polynomials(cls, n, p, monomials, max_size):
    coeffs = st.dictionaries(monomials, st.integers(min_value=1, max_value=p - 1), max_size=max_size)
    return coeffs.map(lambda c: cls(n, p, c))


def sessions(draw, cls, n, p, order, short, long):
    """(order, basis, steps): steps are ("add", g) or ("reduce", f)."""
    basis = draw(st.lists(polynomials(cls, n, p, short, 3), max_size=3))
    step = st.one_of(
        st.tuples(st.just("add"), polynomials(cls, n, p, short, 3)),
        st.tuples(st.just("reduce"), polynomials(cls, n, p, long, 6)),
    )
    return order, basis, draw(st.lists(step, min_size=1, max_size=8))


@st.composite
def commutative_sessions(draw):
    n, p, order = draw(st.integers(1, 3)), draw(PRIMES), draw(TERM_ORDERS)
    short = st.tuples(*[st.integers(min_value=0, max_value=2)] * n)
    long = st.tuples(*[st.integers(min_value=0, max_value=3)] * n)
    return sessions(draw, Polynomial, n, p, order, short, long)


@st.composite
def free_sessions(draw):
    n, p = draw(st.integers(1, 3)), draw(PRIMES)
    short = st.lists(st.integers(1, n), max_size=3).map(tuple)
    long = st.lists(st.integers(1, n), max_size=5).map(tuple)
    return sessions(draw, NcPolynomial, n, p, WordOrder(), short, long)


def check_session(order, basis, steps):
    basis = list(basis)
    reducer = Reducer(basis, order)
    seen = []
    for kind, g in steps:
        if kind == "add":
            reducer.add(g)
            basis.append(g)
        else:
            seen.append(g)
        # every polynomial reduced so far, against the basis as it stands
        for f in seen:
            assert normal_form(f, reducer) == reference_normal_form(f, basis, order)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=commutative_sessions())
def test_reused_reducer_matches_fresh_reduction_in_the_ring(case):
    check_session(*case)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=free_sessions())
def test_reused_reducer_matches_fresh_reduction_in_the_free_algebra(case):
    check_session(*case)


def test_the_earlier_rule_keeps_winning_a_tie():
    # X2 + X1 and X2 + 1 share their lead; the first one added reduces X2
    order = TermOrder("deglex")
    first = Polynomial(2, 7, {(0, 1): 1, (1, 0): 1})
    second = Polynomial(2, 7, {(0, 1): 1, (0, 0): 1})
    f = Polynomial(2, 7, {(0, 2): 1})
    reducer = Reducer([first], order)
    assert normal_form(f, reducer) == Polynomial(2, 7, {(2, 0): 1})
    reducer.add(second)
    assert normal_form(f, reducer) == Polynomial(2, 7, {(2, 0): 1})
    assert normal_form(f, Reducer([second, first], order)) == Polynomial(2, 7, {(0, 0): 1})


RING_CLASHES = [
    # the basis has fewer variables; map kernels would truncate the terms
    (Polynomial(2, 7, {(1, 1): 1}), Polynomial(1, 7, {(1,): 1, (0,): 1})),
    # another modulus
    (Polynomial(2, 7, {(1, 1): 1}), Polynomial(2, 11, {(1, 0): 1, (0, 0): 1})),
    # another algebra, both ways
    (NcPolynomial(2, 7, {(1, 2): 1}), Polynomial(2, 7, {(1, 0): 1})),
    (Polynomial(2, 7, {(1, 1): 1}), NcPolynomial(2, 7, {(1,): 1})),
    (NcPolynomial(2, 7, {(1, 2): 1}), NcPolynomial(3, 7, {(1,): 1})),
    (NcPolynomial(2, 7, {(1, 2): 1}), NcPolynomial(2, 3, {(1,): 1})),
]


@pytest.mark.parametrize("f, g", RING_CLASHES)
def test_reduction_refuses_a_basis_from_another_ring(f, g):
    order = f.monoid.default_order
    with pytest.raises(ValueError, match="polynomials live in different rings"):
        normal_form(f, Reducer([g], order))
    with pytest.raises(ValueError, match="polynomials live in different rings"):
        normal_form(f.scale(0), Reducer([g], order))


@pytest.mark.parametrize("f, g", RING_CLASHES)
def test_add_refuses_an_element_from_another_ring(f, g):
    reducer = Reducer([g], g.monoid.default_order)
    with pytest.raises(ValueError, match="polynomials live in different rings"):
        reducer.add(f)

