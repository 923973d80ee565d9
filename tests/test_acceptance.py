"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time

from escalier.crypto import (
    attack_commutative,
    decrypt,
    encrypt,
    keygen,
    recover_basis_element,
)
from escalier.forge import build_counterexample, demonstrate_bound_necessity
from escalier.nc_polynomials import NcPolynomial
from escalier.oracle import CanOracle
from escalier.peeling import covering_basis
from escalier.polynomials import (
    Polynomial,
    Reducer,
    buchberger,
    gb_degree,
    normal_form,
    render_ideal_file,
)
from escalier.staircase import brute_force_generators, reconstruct
from escalier.words import WordOrder

from helpers import (
    DEGLEX,
    DEGREVLEX,
    P,
    monomial_oracle,
    ncpoly,
    poly,
    random_monomial_ideal,
    random_poly,
)

WORDS = WordOrder()


def _ok(num, label):
    print(f"\n[acceptance] criterion {num} ({label}): PASS")


def test_criterion_1_staircase_four_corners():
    start = time.monotonic()
    o = monomial_oracle([(2, 2), (1, 3), (4, 1), (0, 8)], 2)
    res = reconstruct(o, 2, 8)
    elapsed = time.monotonic() - start
    assert res.generators == {(2, 2), (1, 3), (4, 1), (0, 8)}
    assert res.queries_used < 81
    assert elapsed < 1.0
    _ok(1, "four-corner staircase, bound 8")


def test_criterion_2_single_generator():
    o = monomial_oracle([(3, 2)], 2)
    res = reconstruct(o, 2, 5)
    assert res.generators == {(3, 2)}
    assert res.queries_used < 36
    _ok(2, "single generator, bound 5")


def test_criterion_3_two_generators():
    o = monomial_oracle([(2, 4), (4, 3)], 2)
    res = reconstruct(o, 2, 7)
    assert res.generators == {(2, 4), (4, 3)}
    assert res.queries_used < 64
    _ok(3, "two generators, bound 7")


def test_criterion_4_three_variables():
    gens = [(1, 3, 4), (0, 5, 3), (3, 2, 2), (4, 0, 1)]
    start = time.monotonic()
    o = monomial_oracle(gens, 3)
    res = reconstruct(o, 3, 8)
    elapsed = time.monotonic() - start
    assert res.generators == set(gens)
    assert res.queries_used < 729
    assert elapsed < 5.0
    _ok(4, "three-variable corners, bound 8")


def test_criterion_5_randomized_monomial_equivalence():
    start = time.monotonic()
    rng = random.Random(20240501)
    mismatches = 0
    trials = 0
    for n, count in ((2, 80), (3, 70), (4, 60)):
        for _ in range(count):
            gens = random_monomial_ideal(rng, n, 6)
            got = reconstruct(monomial_oracle(gens, n), n, 6).generators
            brute = brute_force_generators(monomial_oracle(gens, n), n, 6)
            if got != frozenset(brute):
                mismatches += 1
            trials += 1
    elapsed = time.monotonic() - start
    assert trials >= 200
    assert mismatches == 0
    assert elapsed < 60.0
    _ok(5, f"{trials} random monomial ideals, {elapsed:.1f}s")


def test_criterion_6_general_ideals():
    rng = random.Random(20240502)
    done = 0
    while done < 50:
        n = rng.choice([2, 3])
        order = rng.choice([DEGLEX, DEGREVLEX])
        polys = []
        for _ in range(rng.randrange(2, 4)):
            f = random_poly(rng, n, deg=2, terms=rng.randrange(2, 5))
            if not f.is_zero():
                polys.append(f)
        if not polys:
            continue
        gb = buchberger(polys, order)
        bound = gb_degree(gb)
        if bound == 0:
            continue
        res = reconstruct(CanOracle.commutative(gb), n, bound)
        got = sorted(
            res.reduced_basis, key=lambda g: order.key(g.leading_term(order))
        )
        assert tuple(got) == gb.elements
        done += 1
    _ok(6, "50 general ideals, reduced basis recovered element for element")


def test_criterion_7_bound_necessity():
    rng = random.Random(20240503)
    families = [
        (2, 3, DEGLEX),
        (2, 4, DEGREVLEX),
        (3, 4, DEGLEX),
        (2, 5, DEGLEX),
        (3, 5, DEGREVLEX),
        (2, 3, DEGREVLEX),
        (3, 6, DEGLEX),
        (2, 6, DEGREVLEX),
        (2, 4, DEGLEX),
        (3, 3, DEGLEX),
    ]
    count = 0
    for d, e, order in families:
        u = rng.randrange(1, P)
        v = rng.randrange(1, P)
        w = rng.randrange(P)
        gens = [
            poly(f"X1^{d} - {u % P}*X2 - {w % P}"),
            poly(f"X2^{e} - {v % P}"),
        ]
        pair = build_counterexample(gens, order, e + 1 + (count % 2))
        assert pair.extended_is_groebner
        demo = demonstrate_bound_necessity(pair)
        assert demo.small_matches_shifted
        assert demo.big_matches_extended
        assert demo.differ
        count += 1
    assert count >= 10
    _ok(7, f"{count} forged pairs, small bound misled, big bound exact")


def _nc_instances():
    rng = random.Random(20240504)
    cases = []
    monomial_pools = [
        [(1, 2)],
        [(2, 1)],
        [(1, 2), (2, 1)],
        [(1, 1)],
        [(1, 2, 2)],
        [(2, 2, 1), (1, 2)],
        [(1, 1, 2)],
        [(2,)],
        [(1, 2), (2, 2, 2)],
        [(1, 1), (2, 2)],
        [(1, 2, 1)],
        [(2, 1, 1), (1, 2, 2)],
        [(1, 3), (3, 2)],
        [(3, 3)],
    ]
    for pool in monomial_pools:
        n = max(max(w) for w in pool)
        basis = [NcPolynomial.term(w, n, P) for w in pool]
        cases.append((n, basis, rng))
    non_monomial = [
        [ncpoly("X1*X2 - 1")],
        [ncpoly("X1*X1 - 1", n=1)],
        [ncpoly("X2*X1 - X1*X2")],
        [ncpoly("X1*X2 - 1"), ncpoly("X2*X1 - 1")],
        [ncpoly("X2*X1 - X1")],
        [ncpoly("X2*X1*X2 - X2")],
    ]
    for basis in non_monomial:
        cases.append((basis[0].n, basis, rng))
    return cases


def test_criterion_8_covering_basis_contract():
    cases = _nc_instances()
    assert len(cases) >= 20
    rng = random.Random(20240505)
    for n, basis, _ in cases:
        oracle = CanOracle.noncommutative(basis)
        publics = []
        while len(publics) < 2:
            g = NcPolynomial.zero(n, P)
            for b in basis:
                left = tuple(rng.randrange(1, n + 1) for _ in range(rng.randrange(0, 3)))
                right = tuple(rng.randrange(1, n + 1) for _ in range(rng.randrange(0, 3)))
                g = g + b.sandwich(left, right).scale(rng.randrange(1, P))
            if not g.is_zero():
                publics.append(g)
        h = covering_basis(oracle, publics)
        for g in publics:
            assert normal_form(g, Reducer(h, WORDS)).is_zero()
        check = oracle.fresh_copy()
        for x in h:
            lead = x.leading_term(WORDS)
            before = check.queries
            assert check.member_T(lead)
            if len(lead) > 1:
                assert not check.member_T(lead[:-1])
                assert not check.member_T(lead[1:])
            elif len(lead) == 1:
                assert not check.member_T(())
            assert check.queries - before <= max(2, 2 * len(lead))
            for tail in x.support() - {lead}:
                assert check.can_term(tail) == NcPolynomial.term(tail, n, P)
    _ok(8, f"{len(cases)} free-algebra instances, covering basis verified")


def test_criterion_9_crypto_round_trip_and_attacks():
    keys = keygen(
        [poly("X1^2 + X2"), poly("X2^2 + 1")], DEGLEX, 2, 1, 4, random.Random(31)
    )
    pk = keys.public

    # round trip on 100 random messages
    for i in range(100):
        rng = random.Random(5000 + i)
        msg = Polynomial(pk.n, pk.p, {t: rng.randrange(pk.p) for t in pk.normal_terms})
        c = encrypt(pk, msg, rng)
        assert decrypt(keys.oracle(), c) == msg

    # every private element recovered exactly, masked and unmasked
    one = Polynomial.constant(pk.n, pk.p, 1)
    for gamma in keys.basis.elements:
        lead = gamma.leading_term(DEGLEX)
        plain = recover_basis_element(keys.oracle(), lead)
        c = Polynomial.constant(pk.n, pk.p, 7)
        masked = recover_basis_element(
            keys.oracle(), lead, masking=[(c, one), (one - c, one)]
        )
        assert plain == masked == gamma

    # full attack at the public cap agrees with the oracle on fresh traffic
    assert pk.degree_cap >= gb_degree(keys.basis)
    att = attack_commutative(keys.oracle(), pk)
    got = sorted(att.basis, key=lambda g: DEGLEX.key(g.leading_term(DEGLEX)))
    assert tuple(got) == keys.basis.elements
    for i in range(100):
        rng = random.Random(9000 + i)
        msg = Polynomial(pk.n, pk.p, {t: rng.randrange(pk.p) for t in pk.normal_terms})
        c = encrypt(pk, msg, rng)
        assert att.decrypt(c.poly) == decrypt(keys.oracle(), c)

    # a scheme whose cap understates the basis degree mis-decrypts
    pair = build_counterexample([poly("X1^2")], DEGLEX, 3)
    forged = keygen(pair.extended_basis, DEGLEX, 2, 1, 4, random.Random(33))
    oracle = forged.oracle()
    bad = attack_commutative(oracle, forged.public, bound=pair.agree_degree)
    probe = Polynomial.term(pair.cap_lead, P)
    assert bad.decrypt(probe) != oracle.can_poly(probe)
    _ok(9, "round trip, element recovery, full attack, forged mis-decryption")


def test_criterion_10_buchberger_canonicity():
    rng = random.Random(20240506)
    done = 0
    while done < 50:
        n = rng.choice([2, 3])
        order = rng.choice([DEGLEX, DEGREVLEX])
        polys = []
        for _ in range(rng.randrange(2, 4)):
            f = random_poly(rng, n, deg=2, terms=rng.randrange(2, 5))
            if not f.is_zero():
                polys.append(f)
        if len(polys) < 2:
            continue
        gb1 = buchberger(polys, order)
        perm = polys[::-1]
        scaled = [g.scale(rng.randrange(1, P)) for g in perm]
        gb2 = buchberger(scaled, order)
        text1 = render_ideal_file(gb1.elements, order, n, P)
        text2 = render_ideal_file(gb2.elements, order, n, P)
        assert text1.encode() == text2.encode()
        done += 1
    _ok(10, "50 ideals, permuted and rescaled inputs give identical bytes")
