"""The two algebras against each other.

In one variable the free algebra and the polynomial ring coincide: the
word X1^k is the term (k,), WordOrder agrees with deglex, and a lead is a
factor of a word exactly when it divides the matching term. Reduction
through either monoid must therefore give the same coefficient map.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from escalier.nc_polynomials import NcPolynomial
from escalier.polynomials import Polynomial, Reducer, normal_form
from escalier.terms import TermOrder
from escalier.words import WordOrder

PRIMES = st.sampled_from([2, 7, 32003])
DEGREES = st.integers(min_value=0, max_value=9)


def one_variable(coeffs, p):
    """The same polynomial, exponent -> coefficient, in both algebras."""
    comm = Polynomial(1, p, {(k,): c for k, c in coeffs.items()})
    free = NcPolynomial(1, p, {(1,) * k: c for k, c in coeffs.items()})
    return comm, free


def as_exponents(free):
    return {(len(w),): c for w, c in free.items()}


polys = st.dictionaries(DEGREES, st.integers(min_value=0, max_value=10**6), max_size=8)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=PRIMES, f=polys, basis=st.lists(polys, min_size=0, max_size=3))
def test_reduction_agrees_in_one_variable(p, f, basis):
    f_comm, f_free = one_variable(f, p)
    pairs = [one_variable(g, p) for g in basis]
    r_comm = normal_form(f_comm, Reducer([c for c, _ in pairs], TermOrder("deglex")))
    r_free = normal_form(f_free, Reducer([w for _, w in pairs], WordOrder()))
    assert as_exponents(r_free) == dict(r_comm.items())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(p=PRIMES, f=polys, g=polys)
def test_products_agree_in_one_variable(p, f, g):
    f_comm, f_free = one_variable(f, p)
    g_comm, g_free = one_variable(g, p)
    assert as_exponents(f_free * g_free) == dict((f_comm * g_comm).items())
