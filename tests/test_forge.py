from itertools import combinations_with_replacement

import pytest

from escalier.forge import build_counterexample, demonstrate_bound_necessity
from escalier.polynomials import Reducer, gb_degree, is_groebner, normal_form
from escalier.staircase import reconstruct
from escalier.terms import Box, box_enumerate, divides

from helpers import DEGLEX, DEGREVLEX, LEX, poly


def degree_terms(n, d):
    out = set()
    for combo in combinations_with_replacement(range(n), d):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        out.add(tuple(exps))
    return out


class TestBuild:
    def test_pure_power_golden(self):
        pair = build_counterexample([poly("X1^2")], DEGREVLEX, 3)
        # cap lead by independent enumeration of degree-4 leading-ideal terms
        candidates = [t for t in degree_terms(2, 4) if divides((2, 0), t)]
        assert candidates and pair.cap_lead == min(candidates, key=DEGREVLEX.key)
        assert pair.cap_lead == (4, 0)
        assert pair.cap_poly == poly("X1^4")
        assert [g.to_text(DEGREVLEX) for g in pair.extended_set] == [
            "X1^4",
            "X1^2*X2",
        ]
        assert pair.extended_is_groebner
        assert pair.closed_form_matches

    def test_nontrivial_tail_golden(self):
        pair = build_counterexample([poly("X1^2 + X2")], DEGLEX, 3)
        assert pair.cap_poly == poly("X1^4 - X2^2")
        assert list(pair.extended_set) == [
            poly("X1^4 - X2^2"),
            poly("X1^2*X2 + X2^2"),
        ]
        assert pair.extended_is_groebner
        assert is_groebner(list(pair.extended_set), DEGLEX)

    def test_shifted_ideal_contained_in_extended(self):
        pair = build_counterexample([poly("X1^2 + X2")], DEGLEX, 3)
        ext = list(pair.extended_basis.elements)
        for g in pair.shifted_set:
            assert normal_form(g, Reducer(ext, DEGLEX)).is_zero()

    def test_degree_gap(self):
        pair = build_counterexample([poly("X1^2")], DEGREVLEX, 3)
        assert gb_degree(pair.extended_basis) > pair.agree_degree
        assert gb_degree(pair.shifted_basis) <= pair.agree_degree

    def test_delta_too_small(self):
        with pytest.raises(ValueError):
            build_counterexample([poly("X1^2")], DEGLEX, 2)

    def test_lex_rejected(self):
        with pytest.raises(ValueError):
            build_counterexample([poly("X1^2")], LEX, 3)


class TestAgreementBelowThreshold:
    def test_membership_and_canonical_forms_agree(self):
        pair = build_counterexample([poly("X1^2 + X2")], DEGLEX, 3)
        a = pair.shifted_oracle()
        b = pair.extended_oracle()
        for t in box_enumerate(Box(2, pair.agree_degree)):
            if sum(t) <= pair.agree_degree:
                assert a.member_T(t) == b.member_T(t)
                assert a.can_term(t) == b.can_term(t)

    def test_divergence_above(self):
        pair = build_counterexample([poly("X1^2 + X2")], DEGLEX, 3)
        t = pair.cap_lead
        assert pair.extended_oracle().member_T(t)
        assert not pair.shifted_oracle().member_T(t)


class TestDemo:
    def test_golden_bounds(self):
        pair = build_counterexample([poly("X1^2")], DEGREVLEX, 3)
        demo = demonstrate_bound_necessity(pair)
        assert demo.small_generators == {(2, 1)}
        assert demo.big_generators == {(2, 1), (4, 0)}
        assert demo.small_matches_shifted
        assert demo.big_matches_extended
        assert demo.differ

    def test_small_bound_cannot_tell_the_oracles_apart(self):
        pair = build_counterexample([poly("X1^2")], DEGREVLEX, 3)
        d = pair.agree_degree
        on_shifted = reconstruct(pair.shifted_oracle(), pair.n, d)
        on_extended = reconstruct(pair.extended_oracle(), pair.n, d)
        assert on_shifted.generators == on_extended.generators

    def test_family_of_forges(self):
        # staircases with a pure X1 power of minimal degree keep the cap
        # outside the small box, which is what the bound story needs
        cases = [
            ([poly("X1^2 - 3"), poly("X2^3 - 5")], DEGLEX, 4),
            ([poly("X1^3 - X2 - 1"), poly("X2^4 - 2")], DEGLEX, 6),
            ([poly("X1^2 - 7*X2 - 2"), poly("X2^5 - 11")], DEGREVLEX, 7),
        ]
        for gens, order, delta in cases:
            pair = build_counterexample(gens, order, delta)
            assert pair.extended_is_groebner
            demo = demonstrate_bound_necessity(pair)
            assert demo.small_matches_shifted
            assert demo.big_matches_extended
            assert demo.differ
