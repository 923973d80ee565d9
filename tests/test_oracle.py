import random

import pytest

from escalier.nc_polynomials import NcPolynomial
from escalier.oracle import CanOracle, serve_line
from escalier.polynomials import Polynomial

from helpers import DEGLEX, P, monomial_oracle, ncpoly, poly, random_poly, zero_oracle


def toy_oracle():
    return CanOracle.commutative([poly("X1^2 + X2"), poly("X2^2 + 1")], DEGLEX)


class TestCanTerm:
    def test_single_reduction_step(self):
        o = toy_oracle()
        can = o.can_term((2, 0))
        assert can == poly("-X2")
        # difference lies in the ideal
        diff = Polynomial.term((2, 0), P) - can
        o2 = toy_oracle()
        assert o2.can_poly(diff).is_zero()

    def test_fixed_point(self):
        o = toy_oracle()
        t = (1, 1)
        assert o.can_term(t) == Polynomial.term(t, P)

    def test_monomial_member_reduces_to_zero(self):
        o = monomial_oracle([(2, 2), (1, 3), (4, 1), (0, 8)], 2)
        assert o.can_term((2, 2)).is_zero()

    def test_ring_mismatch(self):
        o = toy_oracle()
        with pytest.raises(ValueError):
            o.can_term((1, 2, 3))


class TestMemberT:
    def test_one_outside_for_proper_ideal(self):
        assert not toy_oracle().member_T((0, 0))

    def test_staircase_examples(self):
        o = monomial_oracle([(2, 2), (1, 3), (4, 1), (0, 8)], 2)
        assert not o.member_T((1, 2))
        assert o.member_T((2, 2))

    def test_unit_ideal(self):
        o = CanOracle.commutative([poly("1")], DEGLEX)
        assert o.member_T((0, 0))

    def test_matches_can_term(self):
        rng = random.Random(0)
        o = toy_oracle()
        for _ in range(100):
            t = tuple(rng.randrange(0, 4) for _ in range(2))
            fixed = o.can_term(t) == Polynomial.term(t, P)
            assert o.member_T(t) == (not fixed)

    def test_semigroup_stability(self):
        rng = random.Random(9)
        o = monomial_oracle([(2, 1), (0, 3)], 2)
        for _ in range(80):
            t = tuple(rng.randrange(0, 5) for _ in range(2))
            if o.member_T(t):
                pad = tuple(rng.randrange(0, 3) for _ in range(2))
                assert o.member_T(tuple(a + b for a, b in zip(t, pad)))

    def test_canonical_support_is_fixed(self):
        o = toy_oracle()
        res = o.can_term((3, 1))
        for t in res.support():
            assert o.can_term(t) == Polynomial.term(t, P)


class TestCanPoly:
    def test_zero(self):
        assert toy_oracle().can_poly(Polynomial.zero(2, P)).is_zero()

    def test_ideal_members_vanish(self):
        rng = random.Random(1)
        o = toy_oracle()
        gens = [poly("X1^2 + X2"), poly("X2^2 + 1")]
        for _ in range(30):
            combo = Polynomial.zero(2, P)
            for g in gens:
                combo = combo + random_poly(rng, 2) * g
            assert o.can_poly(combo).is_zero()

    def test_message_plus_noise(self):
        o = toy_oracle()
        msg = poly("3*X1*X2 + 5")
        noisy = msg + poly("X1 + 2") * poly("X1^2 + X2")
        assert o.can_poly(noisy) == msg


class TestLedger:
    def test_fresh_zero(self):
        assert toy_oracle().queries == 0

    def test_member_counts(self):
        o = toy_oracle()
        for t in [(1, 0), (2, 0), (0, 2)]:
            o.member_T(t)
        assert o.queries == 3

    @pytest.mark.parametrize(
        "t", [(True, 0), (1, False), (1, -1), (1.0, 0), (1, 2.5), (1,), (1, 2, 3), "ab"]
    )
    def test_bad_terms_refused_and_not_charged(self, t):
        o = toy_oracle()
        with pytest.raises(ValueError):
            o.member_T(t)
        with pytest.raises(ValueError):
            o.can_term(t)
        assert o.queries == 0

    def test_can_poly_counts_support(self):
        o = toy_oracle()
        f = poly("X1^3 + 2*X2 + 7")
        o.can_poly(f)
        assert o.queries == 3



class TestSealing:
    def test_no_obvious_private_surface(self):
        o = toy_oracle()
        for name in ("basis", "elements", "order", "leads", "_basis", "_elements"):
            assert not hasattr(o, name)


class TestPresentationIndependence:
    def test_different_generating_sets(self):
        rng = random.Random(2)
        g = poly("X1^2 + X2 + 1")
        h = poly("X2^3 + X1")
        o1 = CanOracle.commutative([g, h], DEGLEX)
        o2 = CanOracle.commutative(
            [g.scale(17), h + poly("X1*X2") * g, g + h], DEGLEX
        )
        for _ in range(50):
            t = tuple(rng.randrange(0, 5) for _ in range(2))
            assert o1.can_term(t) == o2.can_term(t)

    def test_zero_ideal(self):
        o = zero_oracle(2)
        assert o.can_term((3, 1)) == Polynomial.term((3, 1), P)
        assert not o.member_T((5, 5))


class TestMasked:
    def test_trivial_decomposition(self):
        o = toy_oracle()
        one = Polynomial.constant(2, P, 1)
        assert o.masked_can((2, 0), [(one, one)]) == o.can_term((2, 0))

    def test_scalar_split(self):
        o = toy_oracle()
        c = Polynomial.constant(2, P, 12)
        rest = Polynomial.constant(2, P, 1 - 12)
        one = Polynomial.constant(2, P, 1)
        assert o.masked_can((2, 0), [(c, one), (rest, one)]) == o.can_term((2, 0))

    def test_random_polynomial_splits(self):
        rng = random.Random(3)
        o = toy_oracle()
        one = Polynomial.constant(2, P, 1)
        for _ in range(20):
            left = random_poly(rng, 2, deg=1)
            # complete the split so the pieces sum back to the bare term
            rest = one - left
            t = (2, 0)
            got = o.masked_can(t, [(left, one), (rest, one)])
            assert got == o.can_term(t)

    def test_bad_decomposition(self):
        o = toy_oracle()
        two = Polynomial.constant(2, P, 2)
        one = Polynomial.constant(2, P, 1)
        with pytest.raises(ValueError):
            o.masked_can((2, 0), [(two, one)])

    def test_empty_decomposition_refused_before_any_query(self):
        o = toy_oracle()
        with pytest.raises(ValueError):
            o.masked_can((2, 0), [])
        assert o.queries == 0


class TestNcOracle:
    def test_requires_confluent_basis(self):
        with pytest.raises(ValueError):
            CanOracle.noncommutative([ncpoly("X1*X1 - X2")])

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_refuses_a_composite_modulus_first(self, c):
        # refused before the monic step and the overlap check, which would
        # accept c = 1 and fail c = 2 and 3 on other grounds
        with pytest.raises(ValueError, match="modulus 8 is not prime"):
            CanOracle.noncommutative([ncpoly(f"{c}*X1*X2 + 3", p=8)])

    def test_refuses_unit_ideal(self):
        with pytest.raises(ValueError):
            CanOracle.noncommutative([ncpoly("1")])
        with pytest.raises(ValueError):
            CanOracle.noncommutative([ncpoly("X1*X2"), ncpoly("3")])

    def test_member_two_sided_stability(self):
        o = CanOracle.noncommutative([ncpoly("X1*X2"), ncpoly("X2*X2*X1")])
        rng = random.Random(4)
        for _ in range(60):
            w = tuple(rng.randrange(1, 3) for _ in range(rng.randrange(0, 4)))
            if o.member_T(w):
                l = tuple(rng.randrange(1, 3) for _ in range(2))
                r = tuple(rng.randrange(1, 3) for _ in range(1))
                assert o.member_T(l + w + r)

    def test_can_fixed_points_stay_fixed(self):
        o = CanOracle.noncommutative([ncpoly("X1*X2 - 1")])
        res = o.can_term((1, 2, 1))
        for w in res.support():
            assert o.can_term(w) == NcPolynomial.term(w, 2, P)

    def test_masked_nc(self):
        o = CanOracle.noncommutative([ncpoly("X1*X2 - 1")])
        one = NcPolynomial.constant(2, P, 1)
        half = NcPolynomial.constant(2, P, 9)
        rest = NcPolynomial.constant(2, P, 1 - 9)
        t = (1, 2, 2)
        assert o.masked_can(t, [(half, one), (one, rest)]) == o.can_term(t)


class TestProtocol:
    def test_can_and_count(self):
        o = toy_oracle()
        assert serve_line(o, "CAN X1^2") == "32002*X2"
        assert serve_line(o, "COUNT") == "1"

    def test_unknown_and_bad_term(self):
        o = toy_oracle()
        assert serve_line(o, "NOPE").startswith("ERR")
        assert serve_line(o, "CAN Y2").startswith("ERR")

    def test_unknown_request_is_clipped(self):
        # echoed through errors.clip: 60 characters and "...", not 5,000
        reply = serve_line(toy_oracle(), "FOO " + "x" * 5000)
        assert reply == "ERR unknown request '" + "FOO " + "x" * 56 + "...'"

    def test_nc_protocol(self):
        o = CanOracle.noncommutative([ncpoly("X1*X2 - 1")])
        assert serve_line(o, "CAN X1*X2") == "1"
