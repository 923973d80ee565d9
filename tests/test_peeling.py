import gc
import random
import weakref

import pytest

from escalier.crypto import nc_attack_probe
from escalier.nc_polynomials import NcPolynomial
from escalier.oracle import CanOracle, _sessions
from escalier.peeling import candidate_terms, covering_basis, peel
from escalier.polynomials import Reducer, normal_form
from escalier.words import WordOrder, is_factor

from helpers import P, ncpoly, reference_peel

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


class _Recording:
    """Membership in the ideal of the given leading words, with every
    asked word recorded in order."""

    def __init__(self, leads):
        self.leads, self.asked = leads, []

    def member_T(self, w):
        self.asked.append(w)
        return any(is_factor(lead, w) for lead in self.leads)


def _word(rng, n, longest):
    """A random word of 1 to longest letters from X1..Xn."""
    return tuple(rng.randrange(1, n + 1) for _ in range(rng.randrange(1, longest + 1)))


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
            candidate_terms(NcPolynomial(2, P))


class TestPeel:
    def test_monomial_ideal(self):
        o = nc_oracle(ncpoly("X1*X2"))
        assert peel(o, [(1, 1, 2, 2)]) == (1, 2)

    def test_already_minimal(self):
        o = nc_oracle(ncpoly("X1*X2"))
        assert peel(o, [(1, 2)]) == (1, 2)

    def test_reversed_factor(self):
        o = nc_oracle(ncpoly("X2*X1"))
        w = peel(o, [(1, 2, 1, 2)])
        assert w == (2, 1)

    def test_certificates(self):
        rng = random.Random(0)
        basis = [ncpoly("X1*X2"), ncpoly("X2*X2*X1")]
        o = nc_oracle(*basis)
        for _ in range(40):
            start = tuple(rng.randrange(1, 3) for _ in range(rng.randrange(2, 7)))
            if not o.member_T(start):
                continue
            w = peel(o, [start])
            assert is_factor(w, start)
            assert o.member_T(w)
            if len(w) > 1:
                assert not o.member_T(w[:-1])
                assert not o.member_T(w[1:])

    def test_matches_the_reference_peel(self):
        # same word, same member_T sequence: up to 3 letters, up to 3
        # leads of length at most 3, starts of length at most 5
        rng = random.Random(14)
        peeled = 0
        for _ in range(3000):
            n = rng.randrange(1, 4)
            leads = [_word(rng, n, 3) for _ in range(rng.randrange(1, 4))]
            start = _word(rng, n, 5)
            new, old = _Recording(leads), _Recording(leads)
            try:
                want = reference_peel(old, start)
            except ValueError:
                assert peel(new, [start]) is None
            else:
                assert peel(new, [start]) == want
                peeled += 1
            assert new.asked == old.asked
        assert peeled > 1000

    def test_first_inside_word_is_the_start(self):
        # each word is asked once, in turn, and the scan stops at the
        # first inside one, which is not asked again
        o = _Recording([(1, 2)])
        assert peel(o, [(2, 2), (2, 1, 2, 2), (1, 1, 2), (1, 2)]) == (1, 2)
        assert o.asked == [(2, 2), (2, 1, 2, 2), (1, 2, 2), (2, 2), (1, 2), (1,)]

    def test_outside_gives_none(self):
        o = nc_oracle(ncpoly("X1*X2"))
        assert peel(o, [(2, 2)]) is None
        assert peel(o, [(2, 1), (2, 2, 1)]) is None and o.queries == 3
        assert peel(o, []) is None and o.queries == 3

    def test_empty_word_raises(self):
        with pytest.raises(ValueError):
            peel(_AllInside(), [()])


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
        assert trace == [
            "round 1: peeled X2*X1, residual supports 2",
            "round 2: peeled X1*X2, residual supports 1",
        ]
        # without a trace the rounds do the same work, minus the count
        assert covering_basis(nc_oracle(ncpoly("X1*X2"), ncpoly("X2*X1")), [g]) == h

    def test_queries_are_the_rounds_alone(self):
        # round 1 finds X2*X1 inside (1 query), strips it by X1 and X2
        # (2) and asks its element (1); round 2 finds X1*X1*X2*X2 (1),
        # strips it by X1*X2*X2, X2*X2, X1*X2 and X1, which round 1
        # already asked (3), and asks its element (1); the start found is
        # not asked again, and no query checks the public member up front
        o = nc_oracle(ncpoly("X1*X2"), ncpoly("X2*X1"))
        g = NcPolynomial(2, P, {(1, 1, 2, 2): 1, (2, 1): 1})
        covering_basis(o, [g])
        assert o.queries == 9

    def test_contract_on_random_instances(self):
        rng = random.Random(1)
        private = [ncpoly("X1*X2"), ncpoly("X2*X2*X1")]
        o = nc_oracle(*private)
        publics = []
        for _ in range(3):
            g = NcPolynomial(2, P)
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
        leads = [x.leading_term(ORDER) for x in h]
        for i, x in enumerate(h):
            w = leads[i]
            assert o.member_T(w)
            if len(w) > 1:
                assert not o.member_T(w[:-1])
                assert not o.member_T(w[1:])
            for tail in x.support() - {w}:
                assert not o.member_T(tail)
            assert o.can_poly(x).is_zero()
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


class TestSession:
    """One attacker session per oracle: no word is asked of it twice."""

    PUBLIC = NcPolynomial(2, P, {(1, 1, 2, 2): 1, (2, 1): 1})

    def oracle(self):
        return nc_oracle(ncpoly("X1*X2"), ncpoly("X2*X1"))

    def test_second_cover_asks_nothing(self):
        o, first, second = self.oracle(), [], []
        h = covering_basis(o, [self.PUBLIC], trace=first)
        assert o.queries == 9
        again = covering_basis(o, [self.PUBLIC], trace=second)
        assert o.queries == 9
        assert again == h and again is not h and second == first and len(first) == 2

    def test_probe_reuses_the_cover(self):
        # the alphabet 1, X1, X2, X1*X1 is outside; the cover asked X1
        # and X2, so only 1 and X1*X1 are new
        o, fresh = self.oracle(), self.oracle()
        covering_basis(o, [self.PUBLIC])
        rng, fresh_rng = random.Random(3), random.Random(3)
        report = nc_attack_probe(o, [self.PUBLIC], 5, rng)
        assert report == nc_attack_probe(fresh, [self.PUBLIC], 5, fresh_rng)
        assert o.queries == 9 + 2 and fresh.queries == 9 + 2
        assert rng.random() == fresh_rng.random()

    def test_session_dies_with_its_oracle(self):
        o = self.oracle()
        covering_basis(o, [self.PUBLIC])
        gc.collect()
        held, alive = len(_sessions), weakref.ref(o)
        del o
        gc.collect()
        assert alive() is None and len(_sessions) == held - 1

    def test_a_cover_that_raises_raises_again(self):
        # X1*X2 is peeled, then the residual X2*X1 is outside: the cover
        # is not kept, but the membership answers and the element of X1*X2
        # are, so the second call asks nothing and raises the same way
        o = nc_oracle(ncpoly("X1*X2"))
        outside = [ncpoly("X1*X2 + X2*X1")]
        with pytest.raises(ValueError):
            covering_basis(o, outside)
        asked = o.queries
        with pytest.raises(ValueError):
            covering_basis(o, outside)
        assert o.queries == asked
