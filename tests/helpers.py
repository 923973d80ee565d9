"""Shared builders for the test suite."""

import random

from escalier import CanOracle, NcPolynomial, Polynomial, TermOrder
from escalier.terms import minimal_terms

P = 32003
DEGLEX = TermOrder("deglex")
DEGREVLEX = TermOrder("degrevlex")
LEX = TermOrder("lex")


def poly(text: str, n: int = 2, p: int = P) -> Polynomial:
    from escalier import parse_polynomial

    return parse_polynomial(text, n, p)


def ncpoly(text: str, n: int = 2, p: int = P) -> NcPolynomial:
    from escalier import parse_polynomial

    return parse_polynomial(text, n, p, NcPolynomial)


def compare(order, a, b) -> int:
    """-1, 0 or 1 as a precedes, equals or follows b under order."""
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def monomial_oracle(gens, n, p=P, order=DEGLEX) -> CanOracle:
    polys = [Polynomial.term(t, p) for t in gens]
    return CanOracle.commutative(polys, order, n=n, p=p)


def zero_oracle(n, p=P, order=DEGLEX) -> CanOracle:
    return CanOracle.commutative([], order, n=n, p=p)


def random_term(rng: random.Random, n: int, cap: int):
    return tuple(rng.randrange(0, cap + 1) for _ in range(n))


def random_monomial_ideal(rng: random.Random, n: int, cap: int, kmax: int = 5):
    """Nonempty divisibility-minimal set of nonunit terms inside the cap box."""
    k = rng.randrange(1, kmax + 1)
    gens = set()
    while len(gens) < k:
        t = random_term(rng, n, cap)
        if sum(t) > 0:
            gens.add(t)
    return minimal_terms(gens)


def random_poly(rng: random.Random, n: int, p: int = P, deg: int = 2, terms: int = 4):
    coeffs = {}
    for _ in range(terms):
        t = tuple(rng.randrange(0, deg + 1) for _ in range(n))
        if sum(t) <= deg + 1:
            coeffs[t] = rng.randrange(1, p)
    return Polynomial(n, p, coeffs)
