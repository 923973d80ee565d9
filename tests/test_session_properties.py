"""The attacker's memory: one session per oracle, for both algebras.

Every attack asks its oracle through the oracle's session, which keeps
each membership answer and each element t - Can(t) it has read. These
properties check, on small drawn ideals under deglex and degrevlex and on
drawn free-algebra instances, that a run of every attack entry point asks
no oracle the same question twice, and that what an oracle already holds
never changes an answer: reconstruct over an oracle that earlier runs
have asked gives the generators and basis of a fresh oracle.
"""

import random
from collections import Counter
from unittest.mock import patch

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from escalier.crypto import (
    attack_commutative,
    decrypt,
    encrypt,
    keygen,
    nc_attack_probe,
    recover_basis_element,
)
from escalier.errors import ParseError
from escalier.forge import build_counterexample, demonstrate_bound_necessity
from escalier.oracle import CanOracle
from escalier.peeling import covering_basis
from escalier.polynomials import Polynomial, buchberger, gb_degree
from escalier.staircase import reconstruct
from escalier.terms import TermOrder

from helpers import free_instances

ORDERS = st.sampled_from([TermOrder("deglex"), TermOrder("degrevlex")])


@st.composite
def small_ideals(draw, n_values=(2, 3)):
    """(generators, order, n, p): 1-3 polynomials of 1-2 terms of degree
    at most 2 in n variables, not all zero."""
    n, p, order = draw(st.sampled_from(n_values)), draw(st.sampled_from([5, 7, 101])), draw(ORDERS)
    terms = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
    gens = [
        Polynomial(n, p, g)
        for g in draw(st.lists(
            st.dictionaries(terms, st.integers(1, p - 1), min_size=1, max_size=2),
            min_size=1, max_size=3,
        ))
    ]
    assume(any(not g.is_zero() for g in gens))
    return gens, order, n, p


class _Ledger:
    """Patches CanOracle so every question an attack asks is recorded as
    (oracle, kind, argument); a can_poly that masked_can asks for its
    pieces is part of that one masked question. The oracles are kept
    alive, so no two share an id."""

    KINDS = ("member_T", "can_term", "can_poly", "masked_can")

    def __init__(self):
        self.asked, self.oracles, self.depth = [], [], 0

    def _wrap(self, kind):
        inner = CanOracle.__dict__[kind]

        def asking(oracle, arg, *rest):
            if not self.depth:
                self.oracles.append(oracle)
                self.asked.append((id(oracle), kind, arg if kind == "can_poly" else tuple(arg)))
            self.depth += 1
            try:
                return inner(oracle, arg, *rest)
            finally:
                self.depth -= 1

        return asking

    def __enter__(self):
        self.patches = [patch.object(CanOracle, k, self._wrap(k)) for k in self.KINDS]
        for p in self.patches:
            p.start()
        return self

    def __exit__(self, *exc):
        for p in self.patches:
            p.stop()

    def repeats(self) -> list:
        return [q for q, times in Counter(self.asked).items() if times > 1]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(ideal=small_ideals(), seed=st.integers(0, 2**32))
def test_commutative_attacks_ask_no_question_twice(ideal, seed):
    gens, order, n, p = ideal
    rng = random.Random(seed)
    try:
        keys = keygen(gens, order, 2, 1, 2, rng)
    except ParseError:  # a unit ideal, or too few normal terms
        assume(False)
    one, mask = Polynomial.constant(n, p, 1), Polynomial.constant(n, p, 2)
    messages = {Polynomial(n, p, {t: rng.randrange(1, p)}) for t in keys.public.normal_terms}
    ciphers = [encrypt(keys.public, m, rng) for m in messages]
    leads = keys.basis.leading_terms()
    with _Ledger() as ledger:
        oracle = keys.oracle()
        plain = [decrypt(oracle, c) for c in ciphers]
        recovered = [recover_basis_element(oracle, t) for t in leads]
        masked = [recover_basis_element(oracle, t, [(mask, one), (one - mask, one)]) for t in leads]
        attack = attack_commutative(oracle, keys.public)
        pair = build_counterexample(keys.basis, order, gb_degree(keys.basis) + 1)
        demo = demonstrate_bound_necessity(pair)
    assert ledger.repeats() == []
    assert set(plain) == messages
    assert recovered == masked == list(keys.basis.elements)
    assert set(attack.basis) == set(keys.basis.elements)
    for bound, generators in ((demo.bound_small, demo.small_generators),
                              (demo.bound_big, demo.big_generators)):
        fresh = reconstruct(CanOracle.commutative(pair.extended_basis), n, bound)
        assert generators == fresh.generators


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(instance=free_instances(), trials=st.integers(0, 4), seed=st.integers(0, 2**32))
def test_free_attacks_ask_no_question_twice(instance, trials, seed):
    basis, publics = instance
    with _Ledger() as ledger:
        oracle = CanOracle.noncommutative(basis)
        covering_basis(oracle, publics)
        nc_attack_probe(oracle, publics, trials, random.Random(seed))
    assert ledger.repeats() == []


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    ideal=small_ideals(n_values=(1, 2, 3, 4, 5)),
    bounds=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    binary=st.tuples(st.booleans(), st.booleans()),
    prior=st.sampled_from(["reconstruct", "recover"]),
)
def test_prior_answers_change_no_reconstruction(ideal, bounds, binary, prior):
    # a corner known inside from an earlier run must still be lowered to
    # its generator, and an element read earlier must be the same element
    gens, order, n, p = ideal
    basis = buchberger(gens, order)
    oracle = CanOracle.commutative(basis)
    if prior == "reconstruct":
        reconstruct(oracle, n, bounds[0], binary=binary[0])
    else:
        for g in basis.elements:
            lead = g.leading_term(order)
            # a lead given as a list is the same question as the tuple
            assert recover_basis_element(oracle, list(lead)) == g
    before = oracle.queries
    got = reconstruct(oracle, n, bounds[1], binary=binary[1])
    fresh = reconstruct(CanOracle.commutative(basis), n, bounds[1], binary=binary[1])
    assert (got.generators, got.reduced_basis) == (fresh.generators, fresh.reduced_basis)
    assert got.queries_used == oracle.queries - before <= fresh.queries_used


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(ideal=small_ideals(), masked=st.booleans())
def test_recovery_takes_a_lead_as_any_sequence(ideal, masked):
    gens, order, n, p = ideal
    basis = buchberger(gens, order)
    one, mask = Polynomial.constant(n, p, 1), Polynomial.constant(n, p, 3)
    masking = [(mask, one), (one - mask, one)] if masked else None
    for g in basis.elements:
        lead = g.leading_term(order)
        oracle = CanOracle.commutative(basis)
        assert recover_basis_element(oracle, list(lead), masking) == g
        assert recover_basis_element(oracle, lead, masking) == g
        assert recover_basis_element(oracle, iter(lead), masking) == g
