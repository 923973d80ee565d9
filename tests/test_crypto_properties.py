"""nc_attack_probe against the trial loop it replaced.

The probe sums each ciphertext's noise in one dict, drawing each factor
as (word, coefficient) pairs. On random free-algebra instances it must
reduce the ciphertexts and give the report tests/helpers.reference_nc_probe
gives, and leave the generator where the reference leaves it. Its
alphabet scan asks through the oracle's attacker session, so it spends
the reference's queries less the words its cover already asked.
"""

import random
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from escalier.crypto import nc_attack_probe
from escalier.oracle import CanOracle
from escalier.polynomials import normal_form

from helpers import free_instances, reference_nc_probe


class _Logged:
    """A free oracle whose member_T words are logged in order."""

    def __init__(self, inner):
        self.inner, self.n, self.p, self.asked = inner, inner.n, inner.p, []

    def member_T(self, w):
        self.asked.append(w)
        return self.inner.member_T(w)

    def can_term(self, w):
        return self.inner.can_term(w)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(instance=free_instances(), trials=st.integers(0, 6), seed=st.integers(0, 2**32))
def test_probe_matches_the_reference_loop(instance, trials, seed):
    basis, publics = instance
    oracle, ref_oracle = CanOracle.noncommutative(basis), CanOracle.noncommutative(basis)
    logged = _Logged(ref_oracle)
    rng, ref = random.Random(seed), random.Random(seed)
    seen, ref_seen = [], []

    def recording(f, reducer):
        seen.append(f)
        return normal_form(f, reducer)

    with patch("escalier.crypto.normal_form", recording):
        report = nc_attack_probe(oracle, publics, trials, rng)
    assert report == reference_nc_probe(logged, publics, trials, ref, ref_seen)
    assert seen == ref_seen and len(seen) == trials
    # the reference's cover asks through a session, each word once, and
    # its scan asks without one: each repeat the probe's session answers
    hits = len(logged.asked) - len(set(logged.asked))
    assert oracle.queries == ref_oracle.queries - hits
    assert rng.random() == ref.random()
