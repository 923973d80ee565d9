"""covering_basis against the round loop it replaced.

peel now finds its own start among the candidate words, and the rounds
ask through the oracle's attacker session, so no word is asked twice. On
random free-algebra instances covering_basis must give the elements
tests/helpers.reference_covering_basis gives, and ask the reference's
queries in the same order, less every word the reference asks again.
"""

from hypothesis import given, settings

from escalier.oracle import CanOracle
from escalier.peeling import covering_basis

from helpers import free_instances, reference_covering_basis


class _Logged:
    """A free oracle whose queries are logged in order: (word, answer)
    for member_T, (word, None) for can_term."""

    def __init__(self, basis):
        self.inner, self.log = CanOracle.noncommutative(basis), []
        self.n, self.p = self.inner.n, self.inner.p

    def member_T(self, w):
        inside = self.inner.member_T(w)
        self.log.append((w, inside))
        return inside

    def can_term(self, w):
        self.log.append((w, None))
        return self.inner.can_term(w)


def _without_repeated_words(log):
    """The reference's log less every member_T entry of a word asked
    before: the start each round asks again, and any word an earlier
    round asked."""
    asked = set()
    out = []
    for w, inside in log:
        if inside is None or w not in asked:
            out.append((w, inside))
        if inside is not None:
            asked.add(w)
    return out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(instance=free_instances())
def test_covering_basis_matches_the_reference_rounds(instance):
    basis, publics = instance
    oracle, ref_oracle = _Logged(basis), _Logged(basis)
    assert covering_basis(oracle, publics) == reference_covering_basis(ref_oracle, publics)
    asked = _without_repeated_words(ref_oracle.log)
    assert oracle.log == asked
    assert oracle.inner.queries == ref_oracle.inner.queries - (len(ref_oracle.log) - len(asked))
