"""The forge's shortcuts against the computations they stand for.

build_counterexample reads the cap lead, the shifted ideal's reduced
basis and the Groebner test of the extended set off data it already
holds, and demonstrate_bound_necessity runs both reconstructions over one
prepared oracle. These properties draw seeded random ideals in 2-3
variables over several primes, under deglex and degrevlex, and compare
each shortcut with the full computation: the smallest leading-ideal term
among all terms of the cap degree, buchberger on the shifted set, the
all-pairs is_groebner on the extended set, and two reconstructions on one
oracle, whose generators are checked against two separately built
oracles.
"""

import random
from itertools import product

import pytest

from escalier.forge import BoundDemo, build_counterexample, demonstrate_bound_necessity
from escalier.oracle import CanOracle
from escalier.polynomials import Polynomial, buchberger, gb_degree
from escalier.staircase import reconstruct
from escalier.terms import TermOrder, minimal_terms

from helpers import is_groebner

ORDERS = (TermOrder("deglex"), TermOrder("degrevlex"))
PRIMES = (3, 7, 101, 32003)


def random_pair(seed: int):
    """A forged pair from 1-3 random generators of degree at most 3."""
    rng = random.Random(seed)
    n, p, order = rng.choice((2, 3)), rng.choice(PRIMES), rng.choice(ORDERS)
    while True:
        gens = []
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(1, 4)
            coeffs = {
                tuple(rng.randint(0, 3 if n == 2 else 2) for _ in range(n)): rng.randrange(1, p)
                for _ in range(size)
            }
            gens.append(Polynomial(n, p, coeffs))
        if any(not g.is_zero() for g in gens):
            break
    base = buchberger(gens, order)
    return build_counterexample(base, order, gb_degree(base) + 1 + rng.randrange(2))


SEEDS = range(160)


def test_cap_lead_is_the_smallest_lead_ideal_term_of_its_degree():
    outcomes = set()
    for seed in SEEDS:
        pair = random_pair(seed)
        d = pair.agree_degree + 1
        leads = pair.base.leading_terms()
        candidates = [
            t
            for t in product(range(d + 1), repeat=pair.n)
            if sum(t) == d and any(all(a <= b for a, b in zip(l, t)) for l in leads)
        ]
        assert pair.cap_lead == min(candidates, key=pair.order.key), seed
        outcomes.add(pair.closed_form_matches)
    # the padded smallest lead must both hit and miss the cap in the draw
    assert outcomes == {True, False}


def test_shifted_basis_is_the_completed_shifted_set():
    for seed in SEEDS:
        pair = random_pair(seed)
        full = buchberger(list(pair.shifted_basis.elements), pair.order)
        assert tuple(pair.shifted_basis.elements) == tuple(full.elements), seed
        assert pair.shifted_basis.order == full.order


def test_extended_groebner_flag_is_the_all_pairs_test():
    outcomes = set()
    for seed in SEEDS:
        pair = random_pair(seed)
        expected = is_groebner(list(pair.extended_set), pair.order)
        assert pair.extended_is_groebner == expected, seed
        outcomes.add(expected)
    # the draw must exercise both answers, or the comparison shows little
    assert outcomes == {True, False}


@pytest.mark.parametrize("seed", range(0, 160, 8))
def test_demo_equals_two_separate_oracles(seed):
    # the demo's two reconstructions share one oracle, so the second is
    # charged its new queries only; its generators are those of two
    # separately built oracles
    pair = random_pair(seed)
    small, big = pair.agree_degree, pair.agree_degree + 1
    oracle = CanOracle.commutative(pair.extended_basis)
    res_small, res_big = reconstruct(oracle, pair.n, small), reconstruct(oracle, pair.n, big)
    for res in (res_small, res_big):
        fresh = reconstruct(CanOracle.commutative(pair.extended_basis), pair.n, res.bound)
        assert res.generators == fresh.generators and res.reduced_basis == fresh.reduced_basis
    expected_small = frozenset(
        t for t in minimal_terms(pair.shifted_basis.leading_terms()) if max(t) <= small
    )
    expected_big = frozenset(
        t for t in minimal_terms(pair.extended_basis.leading_terms()) if max(t) <= big
    )
    expected = BoundDemo(
        bound_small=small,
        bound_big=big,
        small_generators=res_small.generators,
        big_generators=res_big.generators,
        small_matches_shifted=res_small.generators == expected_small,
        big_matches_extended=res_big.generators == expected_big,
        differ=res_small.generators != res_big.generators,
        queries_small=res_small.queries_used,
        queries_big=res_big.queries_used,
    )
    got = demonstrate_bound_necessity(pair)
    assert type(got) is BoundDemo and got == expected
