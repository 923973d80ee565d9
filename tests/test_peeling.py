import random

import pytest

from escalier.nc_polynomials import NcPolynomial
from escalier.oracle import CanOracle
from escalier.peeling import candidate_terms, covering_basis, peel
from escalier.polynomials import Reducer, normal_form
from escalier.words import WordOrder, is_factor

from helpers import P, ncpoly

ORDER = WordOrder()


def nc_oracle(*polys):
    return CanOracle.noncommutative(list(polys))


class _AllInside:
    """Membership stub for the unit ideal, which the real oracle refuses."""

    queries = 0

    def member_T(self, w):
        return True


class _Forgetful:
    """Answers membership honestly but calls every word canonical, so each
    element covering_basis builds is zero and nothing ever reduces."""

    def __init__(self, inner):
        self.inner, self.n, self.p = inner, inner.n, inner.p

    def member_T(self, w):
        return self.inner.member_T(w)

    def can_term(self, w):
        return NcPolynomial.term(w, self.n, self.p)


class TestCandidates:
    def test_factor_dropped(self):
        g = NcPolynomial(2, P, {(1, 2): 1, (1, 2, 1): 1})
        assert candidate_terms(g) == [(1, 2, 1)]

    def test_incomparable_kept(self):
        g = NcPolynomial(2, P, {(1, 1): 1, (2, 2): 1})
        assert candidate_terms(g) == [(1, 1), (2, 2)]

    def test_letters_dropped(self):
        g = NcPolynomial(2, P, {(1,): 1, (2,): 1, (1, 2): 1})
        assert candidate_terms(g) == [(1, 2)]

    def test_zero_raises(self):
        with pytest.raises(ValueError):
            candidate_terms(NcPolynomial.zero(2, P))


class TestPeel:
    def test_monomial_ideal(self):
        o = nc_oracle(ncpoly("X1*X2"))
        assert peel(o, (1, 1, 2, 2)) == (1, 2)

    def test_already_minimal(self):
        o = nc_oracle(ncpoly("X1*X2"))
        assert peel(o, (1, 2)) == (1, 2)

    def test_reversed_factor(self):
        o = nc_oracle(ncpoly("X2*X1"))
        w = peel(o, (1, 2, 1, 2))
        assert w == (2, 1)

    def test_certificates(self):
        rng = random.Random(0)
        basis = [ncpoly("X1*X2"), ncpoly("X2*X2*X1")]
        o = nc_oracle(*basis)
        for _ in range(40):
            start = tuple(rng.randrange(1, 3) for _ in range(rng.randrange(2, 7)))
            fresh = o.fresh_copy()
            if not fresh.member_T(start):
                continue
            w = peel(o.fresh_copy(), start)
            check = o.fresh_copy()
            assert is_factor(w, start)
            assert check.member_T(w)
            if len(w) > 1:
                assert not check.member_T(w[:-1])
                assert not check.member_T(w[1:])

    def test_outside_raises(self):
        o = nc_oracle(ncpoly("X1*X2"))
        with pytest.raises(ValueError):
            peel(o, (2, 2))

    def test_empty_word_raises(self):
        with pytest.raises(ValueError):
            peel(_AllInside(), ())


class TestCoveringBasis:
    def test_single_generator_monomial(self):
        gamma = ncpoly("X1*X2")
        o = nc_oracle(gamma)
        g = gamma.sandwich((2,), (1, 1))
        h = covering_basis(o, [g])
        assert h == [gamma]

    def test_already_reduced_inputs(self):
        basis = [ncpoly("X1*X2 - 1")]
        o = nc_oracle(*basis)
        h = covering_basis(o, [b.scale(5) for b in basis])
        assert h == [b.monic(ORDER) for b in basis]

    def test_two_round_example(self):
        o = nc_oracle(ncpoly("X1*X2"), ncpoly("X2*X1"))
        g = NcPolynomial(2, P, {(1, 1, 2, 2): 1, (2, 1): 1})
        trace = []
        h = covering_basis(o, [g], trace=trace)
        assert {x.leading_term(ORDER) for x in h} == {(1, 2), (2, 1)}
        assert len(trace) == 2
        assert all(line.startswith("round ") for line in trace)

    def test_queries_are_the_rounds_alone(self):
        # round 1 finds X2*X1 inside (1 query), peels it (3) and asks its
        # element (1); round 2 does the same for X1*X1*X2*X2 (1 + 5 + 1);
        # no query checks the public member up front
        o = nc_oracle(ncpoly("X1*X2"), ncpoly("X2*X1"))
        g = NcPolynomial(2, P, {(1, 1, 2, 2): 1, (2, 1): 1})
        covering_basis(o, [g])
        assert o.queries == 12

    def test_contract_on_random_instances(self):
        rng = random.Random(1)
        private = [ncpoly("X1*X2"), ncpoly("X2*X2*X1")]
        o = nc_oracle(*private)
        publics = []
        for _ in range(3):
            g = NcPolynomial.zero(2, P)
            for b in private:
                left = tuple(rng.randrange(1, 3) for _ in range(rng.randrange(0, 3)))
                right = tuple(rng.randrange(1, 3) for _ in range(rng.randrange(0, 3)))
                g = g + b.sandwich(left, right).scale(rng.randrange(1, P))
            if not g.is_zero():
                publics.append(g)
        h = covering_basis(o, publics)
        # the contract: all public polynomials vanish modulo h
        for g in publics:
            assert normal_form(g, Reducer(h, ORDER)).is_zero()
        # each element is a reduced-basis member: minimal lead, normal tail
        check = o.fresh_copy()
        leads = [x.leading_term(ORDER) for x in h]
        for i, x in enumerate(h):
            w = leads[i]
            assert check.member_T(w)
            if len(w) > 1:
                assert not check.member_T(w[:-1])
                assert not check.member_T(w[1:])
            for tail in x.support() - {w}:
                assert not check.member_T(tail)
            assert check.can_poly(x).is_zero()
        # no lead is a factor of another
        for i in range(len(leads)):
            for j in range(len(leads)):
                if i != j:
                    assert not is_factor(leads[i], leads[j])

    def test_repeated_generator_raises(self):
        o = _Forgetful(nc_oracle(ncpoly("X1*X2")))
        with pytest.raises(RuntimeError):
            covering_basis(o, [ncpoly("X1*X2")])

    def test_rejects_foreign_polynomial(self):
        o = nc_oracle(ncpoly("X1*X2"))
        with pytest.raises(ValueError):
            covering_basis(o, [ncpoly("X2*X1 + 1")])

    def test_rejects_foreign_polynomial_with_an_inside_candidate(self):
        # X1*X2 is inside and is peeled first; the residual X2*X1 is not
        o = nc_oracle(ncpoly("X1*X2"))
        with pytest.raises(ValueError):
            covering_basis(o, [ncpoly("X1*X2 + X2*X1")])
