import random

import pytest

from escalier.errors import ParseError
from escalier.nc_polynomials import (
    NcPolynomial,
    overlap_check,
    parse_free_file,
    render_free_file,
)
from escalier.polynomials import Reducer, normal_form, parse_polynomial
from escalier.words import WordOrder

from helpers import P, ncpoly

ORDER = WordOrder()


def words_up_to(n, length):
    out = [()]
    frontier = [()]
    for _ in range(length):
        frontier = [w + (i,) for w in frontier for i in range(1, n + 1)]
        out.extend(frontier)
    return out


class TestArithmetic:
    def test_noncommutative_product(self):
        x = NcPolynomial.term((1,), 2, P)
        y = NcPolynomial.term((2,), 2, P)
        assert x * y != y * x
        assert (x * y).support() == {(1, 2)}

    def test_sandwich(self):
        g = ncpoly("X1*X2 - 1")
        assert g.sandwich((1,), (2,)) == ncpoly("X1*X1*X2*X2 - X1*X2")

    def test_leading_word(self):
        f = ncpoly("X1*X2 + X2*X1 + X1")
        assert f.leading_term(ORDER) == (2, 1)

    def test_letters_validated(self):
        with pytest.raises(ValueError):
            NcPolynomial(2, P, {(3,): 1})


class TestNormalForm:
    def test_zero(self):
        assert normal_form(NcPolynomial.zero(2, P), Reducer([ncpoly("X1*X2")], ORDER)).is_zero()

    def test_two_sided_multiple_vanishes(self):
        g = ncpoly("X1*X2 - 1")
        f = g.sandwich((2, 2), (1,))
        assert normal_form(f, Reducer([g], ORDER)).is_zero()

    def test_factor_removal(self):
        g = ncpoly("X1*X2")
        f = ncpoly("X1*X1*X2*X1 + X2*X1")
        assert normal_form(f, Reducer([g], ORDER)) == ncpoly("X2*X1")

    def test_idempotent(self):
        rng = random.Random(0)
        basis = [ncpoly("X1*X2 - 1")]
        pool = words_up_to(2, 4)
        for _ in range(50):
            f = NcPolynomial(
                2, P, {w: rng.randrange(P) for w in pool if rng.random() < 0.3}
            )
            r = normal_form(f, Reducer(basis, ORDER))
            assert normal_form(r, Reducer(basis, ORDER)) == r

    def test_linearity_over_verified_basis(self):
        rng = random.Random(1)
        basis = [ncpoly("X1*X2 - 1")]
        assert overlap_check(Reducer(basis, ORDER))
        pool = words_up_to(2, 3)
        for _ in range(50):
            f = NcPolynomial(2, P, {w: rng.randrange(P) for w in pool if rng.random() < 0.4})
            g = NcPolynomial(2, P, {w: rng.randrange(P) for w in pool if rng.random() < 0.4})
            a, b = rng.randrange(P), rng.randrange(P)
            lhs = normal_form(f.scale(a) + g.scale(b), Reducer(basis, ORDER))
            rhs = normal_form(f, Reducer(basis, ORDER)).scale(a) + normal_form(
                g, Reducer(basis, ORDER)
            ).scale(b)
            assert lhs == rhs

    def test_two_sided_stability(self):
        rng = random.Random(2)
        basis = [ncpoly("X1*X2"), ncpoly("X2*X2*X1")]
        for _ in range(100):
            w = tuple(rng.randrange(1, 3) for _ in range(rng.randrange(0, 5)))
            inside = not normal_form(
                NcPolynomial.term(w, 2, P), Reducer(basis, ORDER)
            ) == NcPolynomial.term(w, 2, P)
            if inside:
                l = tuple(rng.randrange(1, 3) for _ in range(2))
                padded = NcPolynomial.term(l + w, 2, P)
                assert normal_form(padded, Reducer(basis, ORDER)) != padded


class TestOverlapCheck:
    def test_monomial_pair(self):
        assert overlap_check(Reducer([ncpoly("X1*X2"), ncpoly("X2*X1")], ORDER))

    def test_square_monomial(self):
        assert overlap_check(Reducer([parse_polynomial("X1*X1", 1, P, NcPolynomial)], ORDER))

    def test_invertible_pair_relation(self):
        # only ambiguity-free leads; reduction is confluent outright
        assert overlap_check(Reducer([ncpoly("X1*X2 - 1")], ORDER))

    def test_self_overlap_failure(self):
        # X1^2 -> X2 is not confluent: the cube reduces two ways into the
        # commutator, which nothing rewrites
        assert not overlap_check(Reducer([ncpoly("X1*X1 - X2")], ORDER))

    def test_self_overlap_success(self):
        # X1^2 -> 1 resolves its own cube overlap
        assert overlap_check(Reducer([ncpoly("X1*X1 - 1")], ORDER))

    def test_commutator(self):
        assert overlap_check(Reducer([ncpoly("X2*X1 - X1*X2")], ORDER))

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            overlap_check(Reducer([ncpoly("2*X1*X2")], ORDER))

    def test_prepared_reducer_gives_the_same_answer(self):
        # the reducer keeps what the check reduced, and reduces afterwards
        # exactly as a fresh one over the same basis
        bases = [
            [ncpoly("X1*X2"), ncpoly("X2*X1")],
            [ncpoly("X1*X1 - X2")],
            [ncpoly("X1*X1 - 1")],
            [ncpoly("X2*X1 - X1*X2")],
            [ncpoly("X1*X2*X1 - X2"), ncpoly("X2*X2 - 1")],
        ]
        probe = ncpoly("X1*X1*X1*X2*X1 + 3*X2*X1*X2*X1 + X2*X2*X2")
        for basis in bases:
            reducer = Reducer(basis, ORDER)
            assert overlap_check(reducer) == overlap_check(Reducer(basis, ORDER))
            assert normal_form(probe, reducer) == normal_form(probe, Reducer(basis, ORDER))


class TestText:
    def test_roundtrip(self):
        rng = random.Random(3)
        pool = words_up_to(2, 3)
        for _ in range(100):
            f = NcPolynomial(2, P, {w: rng.randrange(P) for w in pool if rng.random() < 0.4})
            assert parse_polynomial(f.to_text(), 2, P, NcPolynomial) == f

    def test_file_roundtrip(self):
        polys = [ncpoly("X1*X2 - 1"), ncpoly("3*X2*X1*X1")]
        text = render_free_file(polys, 2, P)
        n, p, back = parse_free_file(text)
        assert (n, p) == (2, P)
        assert back == polys

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_free_file("ring n=2 p=7 order=lex\nX1\n")
