"""Free-algebra reconstruction: peel a minimal generator of the hidden
leading-word ideal out of a known member, and grow a partial reduced
basis until every public polynomial reduces to zero.

A word with first letter a, middle u and last letter b is a minimal
generator exactly when a+u and u+b both lie outside the leading-word
ideal while the full word lies inside; peeling tests exactly that, with
two strips of one-letter steps verified by membership queries.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .nc_polynomials import NcPolynomial
from .polynomials import Reducer, normal_form
from .words import Word, is_factor, word_to_text


def candidate_terms(g: NcPolynomial) -> list[Word]:
    """Support words that are not proper factors of another support word,
    shortest first. Computed from the support alone, without any order."""
    if g.is_zero():
        raise ValueError("zero polynomial has no candidate terms")
    supp = sorted(g.support(), key=lambda w: (len(w), w))
    return [w for w in supp if not any(v != w and is_factor(w, v) for v in supp)]


def peel(oracle, words: Iterable[Word]) -> Optional[Word]:
    """Shrink the first of words inside the leading-word ideal, asked in
    turn, to a minimal generator that is a factor of it, in at most one
    verified strip per letter; None if no word is inside.

    The first strip drops the first letter while the rest stays inside,
    the second the last letter. The result t is inside, t[:-1] outside,
    and t[1:] outside too: it is a prefix of the rest the first strip
    stopped on, and a prefix of an outside word is outside. So t is a
    minimal generator. Assumes a proper ideal (the empty word is
    outside), so an inside empty word is refused.
    """
    t = next((tuple(w) for w in words if oracle.member_T(w)), None)
    if t is None:
        return None
    if not t:
        raise ValueError("cannot peel the empty word: it lies in no proper ideal")
    while len(t) > 1 and oracle.member_T(t[1:]):
        t = t[1:]
    while len(t) > 1 and oracle.member_T(t[:-1]):
        t = t[:-1]
    return t


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
    while True:
        residual = [normal_form(g, reducer) for g in public_gens]
        target = next((r for r in residual if not r.is_zero()), None)
        if target is None:
            break
        w = peel(oracle, candidate_terms(target))
        if w is None:
            raise ValueError("public set inconsistent with oracle: element outside the ideal")
        if w in leads:
            raise RuntimeError("peeled a generator that was already reduced away")
        leads.add(w)
        reducer.add(NcPolynomial.term(w, oracle.n, oracle.p) - oracle.can_term(w))
        if trace is not None:
            supports = sum(len(r.items()) for r in residual)
            trace.append(
                f"round {len(leads)}: peeled {word_to_text(w)}, residual supports {supports}"
            )
    return reducer.elements
