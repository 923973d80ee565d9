"""nc_attack_probe against the trial loop it replaced.

The probe sums each ciphertext's noise in one dict, drawing each factor
as (word, coefficient) pairs. On random free-algebra instances it must
reduce the ciphertexts and give the report tests/helpers.reference_nc_probe
gives, spend the same queries, and leave the generator where the
reference leaves it.
"""

import random
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from escalier.crypto import nc_attack_probe
from escalier.nc_polynomials import NcPolynomial
from escalier.oracle import CanOracle
from escalier.polynomials import normal_form, parse_polynomial

from helpers import reference_nc_probe

# non-monomial bases that resolve every ambiguity, as text in n letters
FIXED = [
    (2, ["X1*X2 - 1"]),
    (1, ["X1*X1 - 1"]),
    (2, ["X2*X1 - X1*X2"]),
    (2, ["X1*X2 - 1", "X2*X1 - 1"]),
    (2, ["X2*X1 - X1"]),
    (3, ["X2*X1*X2 - X2"]),
]


@st.composite
def free_instances(draw):
    p = draw(st.sampled_from([2, 7, 32003]))
    if draw(st.booleans()):
        n = draw(st.integers(2, 3))
        word = st.lists(st.integers(1, n), min_size=2, max_size=3).map(tuple)
        words = draw(st.lists(word, min_size=1, max_size=3, unique=True))
        basis = [NcPolynomial(n, p, {w: 1}) for w in words]
    else:
        n, texts = draw(st.sampled_from(FIXED))
        basis = [parse_polynomial(t, n, p, NcPolynomial) for t in texts]
    side = st.lists(st.integers(1, n), max_size=2).map(tuple)
    publics = []
    for _ in range(draw(st.integers(1, 3))):
        g = NcPolynomial(n, p)
        for b in basis:
            c = draw(st.integers(1, p - 1))
            g = g + b.sandwich(draw(side), draw(side)).scale(c)
        publics.append(g)
    return basis, publics


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(instance=free_instances(), trials=st.integers(0, 6), seed=st.integers(0, 2**32))
def test_probe_matches_the_reference_loop(instance, trials, seed):
    basis, publics = instance
    oracle, ref_oracle = CanOracle.noncommutative(basis), CanOracle.noncommutative(basis)
    rng, ref = random.Random(seed), random.Random(seed)
    seen, ref_seen = [], []

    def recording(f, reducer):
        seen.append(f)
        return normal_form(f, reducer)

    with patch("escalier.crypto.normal_form", recording):
        report = nc_attack_probe(oracle, publics, trials, rng)
    assert report == reference_nc_probe(ref_oracle, publics, trials, ref, ref_seen)
    assert seen == ref_seen and len(seen) == trials
    assert oracle.queries == ref_oracle.queries
    assert rng.random() == ref.random()
