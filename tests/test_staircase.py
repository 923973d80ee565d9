import random

import pytest

from escalier.oracle import CanOracle
from escalier.polynomials import buchberger
from escalier.staircase import (
    brute_force_generators,
    parse_result,
    reconstruct,
    render_result,
)
from helpers import (
    DEGLEX,
    monomial_oracle,
    poly,
    random_monomial_ideal,
    zero_oracle,
)

EX51 = [(2, 2), (1, 3), (4, 1), (0, 8)]
EX52 = [(3, 2)]
EX53 = [(2, 4), (4, 3)]
EX6 = [(1, 3, 4), (0, 5, 3), (3, 2, 2), (4, 0, 1)]


class TestTwoVariables:
    @pytest.mark.parametrize(
        "gens,bound,budget",
        [(EX51, 8, 81), (EX52, 5, 36), (EX53, 7, 64)],
    )
    def test_golden_staircases(self, gens, bound, budget):
        o = monomial_oracle(gens, 2)
        got = reconstruct(o, 2, bound).generators
        assert got == set(gens)
        assert o.queries < budget

    def test_zero_ideal(self):
        assert reconstruct(zero_oracle(2), 2, 5).generators == set()

    def test_unit_ideal(self):
        o = CanOracle.commutative([poly("1")], DEGLEX)
        assert reconstruct(o, 2, 5).generators == {(0, 0)}

    def test_brute_force_counts(self):
        o = monomial_oracle(EX51, 2)
        got = brute_force_generators(o, 2, 8)
        assert got == set(EX51)
        assert o.queries == 81

    def test_brute_force_zero_ideal(self):
        o = zero_oracle(3)
        assert brute_force_generators(o, 3, 2) == set()
        assert o.queries == 27


class TestReconstruct:
    def test_three_var_golden(self):
        o = monomial_oracle(EX6, 3)
        res = reconstruct(o, 3, 8)
        assert res.generators == set(EX6)
        assert res.queries_used < 729

    def test_zero_ideal(self):
        res = reconstruct(zero_oracle(3), 3, 4)
        assert res.generators == frozenset()
        assert res.reduced_basis == ()

    def test_one_variable(self):
        o = monomial_oracle([(3,)], 1)
        assert reconstruct(o, 1, 6).generators == {(3,)}

    def test_reduced_basis_contract(self):
        o = monomial_oracle(EX51, 2)
        res = reconstruct(o, 2, 8)
        check = monomial_oracle(EX51, 2)
        for g in res.reduced_basis:
            assert g.leading_term(DEGLEX) in res.generators
            assert check.can_poly(g).is_zero()

    def test_non_monomial_reduced_basis(self):
        gb = buchberger([poly("X1^2 + X2"), poly("X2^2 + 1")], DEGLEX)
        res = reconstruct(CanOracle.commutative(gb), 2, 2)
        got = sorted(res.reduced_basis, key=lambda g: DEGLEX.key(g.leading_term(DEGLEX)))
        assert tuple(got) == gb.elements

    def test_soundness_via_classify(self):
        # every generator is a corner: inside, with every predecessor outside
        res = reconstruct(monomial_oracle(EX6, 3), 3, 8)
        fresh = monomial_oracle(EX6, 3)
        for t in res.generators:
            assert fresh.member_T(t)
            for i in range(3):
                if t[i] > 0:
                    pred = tuple(e - (k == i) for k, e in enumerate(t))
                    assert not fresh.member_T(pred)

    def test_level_growth_off_the_witness_line(self):
        # slice tower (0,5) -> (0,5),(4,2) -> (0,2): dropping a single
        # diagonal witness from the top slice dives past the middle level
        gens = [(0, 2, 4), (4, 2, 3), (0, 5, 2)]
        res = reconstruct(monomial_oracle(gens, 3), 3, 8)
        assert res.generators == set(gens)

    @pytest.mark.parametrize(
        "gens,n,bound",
        [
            ([(0, 0, 2)], 3, 8),
            ([(0, 0, 2), (5, 0, 0)], 3, 8),
            ([(0, 8, 0)], 3, 8),
            ([(2, 2, 2, 2)], 4, 6),
            ([(0, 0, 0, 3), (3, 0, 0, 0)], 4, 6),
        ],
    )
    def test_pure_power_edges(self, gens, n, bound):
        res = reconstruct(monomial_oracle(gens, n), n, bound)
        assert res.generators == set(gens)
        assert res.queries_used < (bound + 1) ** n

    def test_equivalence_random(self):
        rng = random.Random(42)
        for _ in range(60):
            n = rng.choice([2, 3, 4])
            gens = random_monomial_ideal(rng, n, 6)
            got = reconstruct(monomial_oracle(gens, n), n, 6).generators
            brute = brute_force_generators(monomial_oracle(gens, n), n, 6)
            # the sampled generators are the oracle-free ground truth here
            assert got == frozenset(brute) == frozenset(gens)

    def test_equivalence_generators_outside_box(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.choice([2, 3])
            gens = random_monomial_ideal(rng, n, 9)
            got = reconstruct(monomial_oracle(gens, n), n, 5).generators
            brute = brute_force_generators(monomial_oracle(gens, n), n, 5)
            assert got == frozenset(brute)

    def test_query_frugality_on_goldens(self):
        for gens, n, bound in [(EX51, 2, 8), (EX52, 2, 5), (EX53, 2, 7), (EX6, 3, 8)]:
            o = monomial_oracle(gens, n)
            res = reconstruct(o, n, bound)
            assert res.queries_used < (bound + 1) ** n


class TestBinarySearchMode:
    def test_same_output_fewer_scans(self):
        for gens, n, bound in [(EX51, 2, 8), (EX6, 3, 8)]:
            linear = reconstruct(monomial_oracle(gens, n), n, bound)
            fast = reconstruct(monomial_oracle(gens, n), n, bound, binary=True)
            assert linear.generators == fast.generators

    def test_random_agreement(self):
        rng = random.Random(44)
        for _ in range(30):
            n = rng.choice([2, 3])
            gens = random_monomial_ideal(rng, n, 6)
            a = reconstruct(monomial_oracle(gens, n), n, 6).generators
            b = reconstruct(monomial_oracle(gens, n), n, 6, binary=True).generators
            assert a == b


class TestSerialization:
    def test_roundtrip(self):
        res = reconstruct(monomial_oracle(EX51, 2), 2, 8)
        back = parse_result(render_result(res))
        assert back == res

    def test_empty_roundtrip(self):
        res = reconstruct(zero_oracle(2), 2, 3)
        assert parse_result(render_result(res)) == res
