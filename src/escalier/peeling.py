"""Free-algebra reconstruction: peel a minimal generator of the hidden
leading-word ideal out of a known member, and grow a partial reduced
basis until every public polynomial reduces to zero.

A word with first letter a, middle u and last letter b is a minimal
generator exactly when a+u and u+b both lie outside the leading-word
ideal while the full word lies inside, so peeling only ever needs
one-letter strips verified by membership queries.
"""

from __future__ import annotations

from typing import Optional

from .nc_polynomials import NcPolynomial
from .polynomials import Reducer, normal_form
from .words import Word, is_factor, word_to_text


def candidate_terms(g: NcPolynomial) -> list[Word]:
    """Support words that are not proper factors of another support word,
    shortest first. Computed from the support alone, without any order."""
    if g.is_zero():
        raise ValueError("zero polynomial has no candidate terms")
    supp = sorted(g.support(), key=lambda w: (len(w), w))
    out = []
    for w in supp:
        if not any(v != w and is_factor(w, v) for v in supp):
            out.append(w)
    return out


def peel(oracle, start: Word) -> Word:
    """Shrink a member of the leading-word ideal to a minimal generator
    that is a factor of it, in at most len(start) verified strips.

    Phase one drops leftmost letters while the remainder stays inside;
    phase two drops rightmost letters of the middle while the kept first
    letter plus the shortened middle stays inside. Assumes a proper ideal
    (the empty word is outside), so the empty start is refused.
    """
    t = tuple(start)
    if not t:
        raise ValueError("cannot peel the empty word: it lies in no proper ideal")
    if not oracle.member_T(t):
        raise ValueError("peeling must start inside the leading-word ideal")
    while len(t) > 1:
        rest = t[1:]
        if oracle.member_T(rest):
            t = rest
        else:
            break
    if len(t) == 1:
        return t
    head, body = t[0], t[1:]
    # body is outside; so are all its prefixes
    while body:
        trunk = body[:-1]
        if oracle.member_T((head,) + trunk):
            body = trunk
        else:
            return (head,) + body
    return (head,)


def covering_basis(
    oracle, public_gens: list[NcPolynomial], trace: Optional[list] = None
) -> list[NcPolynomial]:
    """Subset H of the hidden reduced basis with every public polynomial
    reducing to zero modulo H.

    Each round fully reduces the public set by the current H, held in one
    Reducer, peels a new generator out of a surviving support word, and
    adds the oracle's element for it to H. Full tail reduction keeps every
    remaining support word free of known leading words, so each peel lands
    on a fresh generator; support word lengths never grow, so the rounds
    terminate.

    The rounds spend membership queries only on candidate words of one
    residual at a time, and no query checks the public set up front. A
    residual modulo part of the hidden basis lies in the ideal exactly
    when its public member does, and a nonzero ideal element has its
    leading word inside. That word is a longest support word, so it is
    always a candidate: a nonzero residual with no candidate inside
    proves its member outside the ideal, and raises ValueError.
    """
    reducer = Reducer((), NcPolynomial.monoid.default_order)
    leads: set[Word] = set()
    rounds = 0
    while True:
        residual = [normal_form(g, reducer) for g in public_gens]
        support_total = sum(len(r.support()) for r in residual)
        target = next((r for r in residual if not r.is_zero()), None)
        if target is None:
            break
        start = next((w for w in candidate_terms(target) if oracle.member_T(w)), None)
        if start is None:
            raise ValueError("public set inconsistent with oracle: element outside the ideal")
        w = peel(oracle, start)
        if w in leads:
            raise RuntimeError("peeled a generator that was already reduced away")
        leads.add(w)
        reducer.add(NcPolynomial.term(w, oracle.n, oracle.p) - oracle.can_term(w))
        rounds += 1
        if trace is not None:
            trace.append(
                f"round {rounds}: peeled {word_to_text(w)}, residual supports {support_total}"
            )
    return reducer.elements
