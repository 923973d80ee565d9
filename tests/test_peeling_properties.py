"""covering_basis against the round loop it replaced.

peel now finds its own start among the candidate words, so the start the
scan finds is no longer asked again. On random free-algebra instances
covering_basis must give the elements tests/helpers.reference_covering_basis
gives, and ask the reference's queries in the same order, less one
repeated start per round.
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


def _without_repeated_starts(log):
    """The reference's log less the start asked again in each round: the
    round's first inside answer ends its scan, and the entry after it,
    peel's entry check, repeats it."""
    out, scanning, repeat = [], True, False
    for entry in log:
        if repeat:
            assert entry == out[-1]
            repeat = False
            continue
        out.append(entry)
        w, inside = entry
        if inside is None:
            scanning = True
        elif inside and scanning:
            scanning, repeat = False, True
    return out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(instance=free_instances())
def test_covering_basis_matches_the_reference_rounds(instance):
    basis, publics = instance
    oracle, ref_oracle = _Logged(basis), _Logged(basis)
    assert covering_basis(oracle, publics) == reference_covering_basis(ref_oracle, publics)
    rounds = sum(inside is None for _, inside in ref_oracle.log)
    assert oracle.log == _without_repeated_starts(ref_oracle.log)
    assert oracle.inner.queries == ref_oracle.inner.queries - rounds
