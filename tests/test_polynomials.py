import random
import time

import pytest

from escalier.errors import ParseError
from escalier.nc_polynomials import NcPolynomial
from escalier.oracle import CanOracle
from escalier.polynomials import (
    Polynomial,
    Reducer,
    buchberger,
    gb_degree,
    normal_form,
    parse_ideal_file,
    parse_polynomial,
    render_ideal_file,
    s_polynomial,
)
from escalier.terms import TermOrder, lcm
from escalier.words import WordOrder

from helpers import (
    DEGLEX,
    DEGREVLEX,
    LEX,
    P,
    compare,
    is_groebner,
    ncpoly,
    poly,
    random_poly,
    reference_normal_form,
)


class TestLeadingData:
    def test_degree_wins(self):
        f = poly("X1^2*X2^2 + X1*X2")
        assert f.leading_term(DEGLEX) == (2, 2)

    def test_single_term(self):
        f = poly("3*X1")
        assert f.leading_data(DEGLEX) == ((1, 0), 3)

    def test_lex(self):
        f = poly("X1 + X2")
        assert f.leading_term(LEX) == (0, 1)

    def test_zero_raises(self):
        with pytest.raises(ValueError):
            Polynomial(2, P).leading_term(DEGLEX)
        with pytest.raises(ValueError):
            Polynomial(2, P).leading_term(LEX)

    def test_cached_lead_follows_the_order(self):
        f = poly("X1^3 + X2")
        assert f.leading_term(LEX) == (0, 1)
        assert f.leading_data(DEGLEX) == ((3, 0), 1)
        assert f.leading_term(LEX) == (0, 1)
        assert f.leading_term(TermOrder("lex")) == (0, 1)

    def test_cached_word_lead_follows_the_order(self):
        f = ncpoly("X1*X2 + 5*X2*X1")
        assert f.leading_term(WordOrder()) == (2, 1)
        assert f.leading_data(WordOrder()) == ((2, 1), 5)
        assert f.monic(WordOrder()).leading_data(WordOrder()) == ((2, 1), 1)


class TestSPolynomial:
    def test_self_cancellation(self):
        f = poly("X1^2 + X2")
        assert s_polynomial(f, f, DEGLEX).is_zero()

    def test_hand_expansion(self):
        # X1^2*(X2^2+1) - X2^2*(X1^2+X2) = X1^2 - X2^3
        f = poly("X1^2 + X2")
        g = poly("X2^2 + 1")
        assert s_polynomial(f, g, DEGLEX) == poly("X1^2 - X2^3")

    def test_monomials_cancel(self):
        f = poly("X1^2")
        g = poly("X1*X2")
        assert s_polynomial(f, g, DEGLEX).is_zero()

    def test_lead_cancellation_property(self):
        rng = random.Random(0)
        seen = 0
        while seen < 50:
            f = random_poly(rng, 2)
            g = random_poly(rng, 2)
            if f.is_zero() or g.is_zero():
                continue
            s = s_polynomial(f, g, DEGLEX)
            big = lcm(f.leading_term(DEGLEX), g.leading_term(DEGLEX))
            if not s.is_zero():
                assert compare(DEGLEX, s.leading_term(DEGLEX), big) == -1
            seen += 1


class TestNormalForm:
    def test_zero(self):
        assert normal_form(Polynomial(2, P), Reducer([poly("X1")], DEGLEX)).is_zero()

    def test_self_reduction(self):
        g = poly("X1^2 + X2")
        assert normal_form(g, Reducer([g], DEGLEX)).is_zero()

    def test_two_step_reduction(self):
        # X1^4 = (X1^2 - X2)(X1^2 + X2) + X2^2
        f = poly("X1^4")
        g = poly("X1^2 + X2")
        r = normal_form(f, Reducer([g], DEGLEX))
        assert r == poly("X2^2")
        assert f - r == poly("X1^2 - X2") * g

    def test_idempotent(self):
        rng = random.Random(1)
        basis = [poly("X1^2 + X2"), poly("X2^3 + X1")]
        for _ in range(50):
            f = random_poly(rng, 2, deg=3)
            r = normal_form(f, Reducer(basis, DEGLEX))
            assert normal_form(r, Reducer(basis, DEGLEX)) == r

    def test_ideal_membership(self):
        rng = random.Random(2)
        gb = buchberger([poly("X1^2 + X2"), poly("X2^2 + 1")], DEGLEX)
        for _ in range(50):
            combo = Polynomial(2, P)
            for g in gb.elements:
                combo = combo + random_poly(rng, 2) * g
            assert normal_form(combo, Reducer(list(gb.elements), DEGLEX)).is_zero()

    def test_cancelled_monomial_comes_back(self):
        # reducing X1*X2^2 by the second element cancels X1*X2; reducing
        # X1^2*X2 by the first brings it back with coefficient -20 = 1
        basis = [poly("X1^2*X2 + 4*X1*X2", p=7), poly("2*X2^2 + 4*X2", p=7)]
        reducer = Reducer(basis, DEGLEX)
        assert normal_form(poly("X1*X2^2 + 2*X1*X2", p=7), reducer).is_zero()
        f = poly("X1*X2^2 + 5*X1^2*X2 + 2*X1*X2", p=7)
        assert normal_form(f, reducer) == poly("X1*X2", p=7)
        assert normal_form(f, reducer) == reference_normal_form(f, basis, DEGLEX)

    def test_difference_reduces(self):
        rng = random.Random(3)
        basis = [poly("X1^2 + X2"), poly("X2^2 + 1")]
        for _ in range(30):
            f = random_poly(rng, 2, deg=4)
            r = normal_form(f, Reducer(basis, DEGLEX))
            assert normal_form(f - r, Reducer(basis, DEGLEX)).is_zero()


class TestBuchberger:
    def test_coprime_leads_unchanged(self):
        f = poly("X1^2 + X2")
        g = poly("X2^2 + 1")
        gb = buchberger([f, g], DEGLEX)
        assert set(gb.elements) == {f, g}
        assert is_groebner(list(gb.elements), DEGLEX)

    def test_monomial_staircase_fixed(self):
        minimal = [(2, 2), (1, 3), (4, 1), (0, 8)]
        # plus a redundant multiple and a duplicate with another coefficient
        gens = [Polynomial.term(t, P) for t in minimal] + [poly("X1^5*X2^2"), poly("7*X2^8")]
        for order in (LEX, DEGLEX, DEGREVLEX):
            want = tuple(Polynomial.term(t, P) for t in sorted(minimal, key=order.key))
            assert buchberger(gens, order).elements == want
            assert buchberger(gens + [poly("3")], order).elements == (poly("1"),)

    def test_generators_from_different_rings_refused(self):
        # coprime leads form no pair, so only an up-front check sees the rings
        for pair in (("X1", "X2"), ("X1 + 1", "X2 + 1")):
            with pytest.raises(ValueError, match="different rings"):
                buchberger([poly(pair[0], p=7), poly(pair[1], p=11)], DEGLEX)
        with pytest.raises(ValueError, match="different rings"):
            buchberger([poly("X1"), poly("X2", n=3)], DEGLEX)

    def test_redundant_generator_dropped(self):
        f = poly("X1^2 + X2 + 1")
        gb = buchberger([f, f.scale(2)], DEGLEX)
        assert gb.elements == (f,)

    def test_all_zero_raises(self):
        with pytest.raises(ValueError):
            buchberger([Polynomial(2, P)], DEGLEX)

    def test_canonicity_permute_and_scale(self):
        rng = random.Random(4)
        for trial in range(30):
            polys = []
            while len(polys) < 3:
                f = random_poly(rng, 2, deg=2)
                if not f.is_zero():
                    polys.append(f)
            gb1 = buchberger(polys, DEGLEX)
            shuffled = polys[::-1]
            scaled = [g.scale(rng.randrange(1, P)) for g in shuffled]
            gb2 = buchberger(scaled, DEGLEX)
            assert gb1.elements == gb2.elements

    def test_extends_to_unit_ideal(self):
        # S-pair of these drops to a nonzero constant
        gb = buchberger([poly("X1^2 + X2"), poly("X1^3 + X1*X2 + 1")], DEGLEX)
        assert gb.elements == (Polynomial.constant(2, P, 1),)


class TestIsGroebner:
    def test_single_monomial(self):
        assert is_groebner([poly("X1^2*X2")], DEGLEX)

    def test_coprime_pair(self):
        assert is_groebner([poly("X1^2 + X2"), poly("X2^2 + 1")], DEGLEX)

    def test_incomplete_pair(self):
        f = poly("X1^2 + X2")
        g = poly("X1") * f + poly("1")
        assert not is_groebner([f, g], DEGLEX)
        grown = buchberger([f, g], DEGLEX)
        assert set(grown.elements) != {f.monic(DEGLEX), g.monic(DEGLEX)}


class TestDegrees:
    def test_single(self):
        gb = buchberger([poly("X1^3*X2^2")], DEGLEX)
        assert gb_degree(gb) == 5

    def test_pair(self):
        gb = buchberger([poly("X1^2 + X2"), poly("X2^2 + 1")], DEGLEX)
        assert gb_degree(gb) == 2

    def test_two_monomials(self):
        gb = buchberger([poly("X1^2*X2^4"), poly("X1^4*X2^3")], DEGLEX)
        assert gb_degree(gb) == 7


class TestText:
    def test_roundtrip(self):
        rng = random.Random(5)
        for _ in range(100):
            f = random_poly(rng, 3, deg=3)
            assert parse_polynomial(f.to_text(), 3, P) == f

    def test_signs_and_constants(self):
        assert poly("X1 - X2") == poly("X1 + 32002*X2")
        assert poly("-1") == Polynomial.constant(2, P, P - 1)
        assert poly("0").is_zero()

    def test_duplicate_monomials_accumulate(self):
        assert poly("X1 + X1") == poly("2*X1")

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_polynomial("", 2, P)
        with pytest.raises(ParseError):
            parse_polynomial("X1 + $", 2, P)


class TestIdealFile:
    def test_roundtrip(self):
        polys = [poly("X1^2 + X2"), poly("X2^2 + 1")]
        text = render_ideal_file(polys, DEGLEX, 2, P)
        n, p, order, back = parse_ideal_file(text)
        assert (n, p, order.kind) == (2, P, "deglex")
        assert back == polys

    def test_comments_and_blanks(self):
        text = "ring n=1 p=7 order=lex\n# c\n\nX1 + 3\n"
        n, p, order, back = parse_ideal_file(text)
        assert back == [parse_polynomial("X1 + 3", 1, 7)]

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_ideal_file("whatever n=2\nX1\n")
        with pytest.raises(ParseError):
            parse_ideal_file("ring n=2 p=10 order=lex\nX1\n")

    def test_variable_limit(self):
        assert parse_ideal_file("ring n=10000 p=7 order=lex\n")[0] == 10000
        for n in ("10001", "4000000", "9" * 5000):
            start = time.perf_counter()
            with pytest.raises(ParseError):
                parse_ideal_file(f"ring n={n} p=7 order=lex\nX1\n")
            assert time.perf_counter() - start < 1

    def test_modulus_limit(self):
        assert parse_ideal_file("ring n=1 p=2147483647 order=lex\n")[1] == 2**31 - 1
        # the next prime after 2^31, a 23-digit prime, and a 5,000-digit value
        for p in ("2147483659", "10000000000000000000009", "9" * 5000):
            start = time.perf_counter()
            with pytest.raises(ParseError):
                parse_ideal_file(f"ring n=1 p={p} order=lex\nX1\n")
            assert time.perf_counter() - start < 1


class TestBoundaryValidation:
    """Public constructors and oracle entry points check every monomial;
    arithmetic inside one ring builds its results without re-checking."""

    @pytest.mark.parametrize(
        "bad", [(1,), (1, 2, 3), (1, -1), (-2, 0), (1.5, 0), (2.0, 0), (True, 0), ("1", 0)]
    )
    def test_polynomial_refuses_bad_terms(self, bad):
        with pytest.raises(ValueError):
            Polynomial(2, P, {bad: 1})

    @pytest.mark.parametrize("bad", [(0,), (3,), (1, 2, 3), (1.5,), (2.0,), (True,), ("1",)])
    def test_nc_polynomial_refuses_bad_letters(self, bad):
        with pytest.raises(ValueError):
            NcPolynomial(2, P, {bad: 1})

    def test_caller_factors_are_checked(self):
        with pytest.raises(ValueError):
            ncpoly("X1*X2").sandwich((3,), ())

    def test_oracle_entry_points_refuse_bad_monomials(self):
        o = CanOracle.commutative([poly("X1^2 + X2")], DEGLEX)
        one = Polynomial.constant(2, P, 1)
        for ask in (o.can_term, o.member_T, lambda t: o.masked_can(t, [(one, one)])):
            for bad in ((1, -1), (2.5, 0), (2.0, 0), (True, 1)):
                with pytest.raises(ValueError):
                    ask(bad)
        nc = CanOracle.noncommutative([ncpoly("X1*X2 - 1")])
        for ask in (nc.can_term, nc.member_T):
            for bad in ((1.5,), (True, 2)):
                with pytest.raises(ValueError):
                    ask(bad)
        assert nc.queries == 0
        with pytest.raises(ValueError):
            o.can_poly(poly("X1", n=3))
        with pytest.raises(ValueError):
            o.can_poly(ncpoly("X1"))
        assert o.queries == 0

    def test_arithmetic_matches_a_validated_build(self):
        rng = random.Random(11)
        for _ in range(40):
            f, g = random_poly(rng, 2, p=7), random_poly(rng, 2, p=7)
            for h in (f + g, f - g, f.scale(3), f * g):
                assert h == Polynomial(2, 7, dict(h.items()))
                assert all(0 < c < 7 for _, c in h.items())
