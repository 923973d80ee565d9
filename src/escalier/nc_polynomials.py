"""Free-algebra polynomials and the overlap-ambiguity confluence check for
finite bases.

NcPolynomial is Polynomial over the word monoid, so arithmetic, the text
grammar (words instead of terms) and two-sided reduction by normal_form
are shared with the commutative ring. Files carry the header
``free n=<n> p=<p>``.
"""

from __future__ import annotations

from typing import Iterable

from .polynomials import Polynomial, Reducer, header, normal_form, parse_polynomial, write_file
from .words import Word, WordMonoid


class NcPolynomial(Polynomial):
    """Immutable sparse free-algebra polynomial: word -> nonzero residue."""

    __slots__ = ()
    monoid = WordMonoid

    @classmethod
    def term(cls, w: Word, n: int, p: int) -> "NcPolynomial":
        return cls(n, p, {tuple(w): 1})

    def sandwich(self, left: Word, right: Word) -> "NcPolynomial":
        """left * self * right for plain words."""
        validate = self.monoid.validate
        left, right = validate(left, self.n), validate(right, self.n)
        return self._ring(
            self.n, self.p, {left + w + right: c for w, c in self._coeffs.items()}
        )


def overlap_check(reducer: Reducer) -> bool:
    """Diamond-lemma confluence test for a finite monic basis, prepared
    as a Reducer, which keeps the steps the check remembered.

    Every overlap and inclusion ambiguity between leading words must
    reduce to zero under normal_form; then reduction modulo the basis
    computes canonical forms, and those are linear (Bergman 1978).
    """
    order, elems = reducer.order, reducer.elements
    for g in elems:
        if g.leading_data(order)[1] != 1:
            raise ValueError("overlap check requires monic elements")
    leads = [g.leading_term(order) for g in elems]

    def ambiguities():
        for wi, gi in zip(leads, elems):
            for wj, gj in zip(leads, elems):
                # overlaps: wi = a b, wj = b c with b nonempty, word = a b c
                for k in range(1, min(len(wi), len(wj))):
                    if wi[len(wi) - k :] == wj[:k]:
                        yield gi.sandwich((), wj[k:]) - gj.sandwich(wi[: len(wi) - k], ())
                # inclusions: wi occurs inside wj, at every position
                if gi is not gj:
                    for i in range(len(wj) - len(wi) + 1):
                        if wj[i : i + len(wi)] == wi:
                            yield gj - gi.sandwich(wj[:i], wj[i + len(wi) :])

    return all(normal_form(s, reducer).is_zero() for s in ambiguities())


def render_free_file(polys: Iterable[NcPolynomial], n: int, p: int) -> str:
    return write_file(f"free n={n} p={p}", (f.to_text() for f in polys))


def parse_free_file(text: str):
    """-> (n, p, polynomials)."""
    (n, p), body = header(text, "free", ("n", "p"))
    return n, p, [parse_polynomial(ln, n, p, NcPolynomial) for ln in body]
