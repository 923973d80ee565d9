"""Reduced bases cross-checked against an independent implementation."""

import random

import pytest

sympy = pytest.importorskip("sympy")

from sympy import groebner, symbols

from escalier.polynomials import Polynomial, buchberger
from escalier.terms import TermOrder

from helpers import P, random_poly

SYMS = symbols("x1 x2 x3")
SYMPY_ORDER = {"deglex": "grlex", "degrevlex": "grevlex", "lex": "lex"}


def to_sympy(f, syms):
    expr = 0
    for t, c in f.items():
        mono = 1
        for e, s in zip(t, syms):
            mono *= s ** e
        expr += int(c) * mono
    return expr


def test_reduced_bases_match_sympy():
    rng = random.Random(2024)
    checked = 0
    while checked < 60:
        n = rng.choice([2, 3])
        syms = SYMS[:n]
        kind = rng.choice(["deglex", "degrevlex", "lex"])
        order = TermOrder(kind)
        polys = []
        for _ in range(rng.randrange(2, 4)):
            f = random_poly(rng, n, terms=rng.randrange(2, 5))
            if not f.is_zero():
                polys.append(f)
        if not polys:
            continue
        mine = buchberger(polys, order)
        # the element tuple is monic with strictly ascending leads: key,
        # forge and ideal files are rendered in this order
        assert all(g.leading_data(order)[1] == 1 for g in mine.elements)
        keys = [order.key(t) for t in mine.leading_terms()]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        # this library's largest variable is Xn; sympy's is the first
        # generator, so the symbol list is handed over reversed
        theirs = groebner(
            [to_sympy(f, syms) for f in polys],
            *reversed(syms),
            order=SYMPY_ORDER[kind],
            modulus=P,
        )
        converted = set()
        for g in theirs.polys:
            coeffs = {}
            for mono, c in zip(g.monoms(), g.coeffs()):
                coeffs[tuple(int(e) for e in reversed(mono))] = int(c) % P
            converted.add(Polynomial(n, P, coeffs).monic(order))
        assert set(mine.elements) == converted
        checked += 1
