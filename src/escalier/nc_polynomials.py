"""Free-algebra polynomials and the overlap-ambiguity confluence check for
finite bases.

NcPolynomial is Polynomial over the word monoid, so arithmetic, the text
grammar (words instead of terms) and two-sided reduction by normal_form
are shared with the commutative ring. Files carry the header
``free n=<n> p=<p>``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .polynomials import Polynomial, content_lines, header, normal_form, parse_polynomial
from .words import Word, WordMonoid, WordOrder, subword_occurrences


class NcPolynomial(Polynomial):
    """Immutable sparse free-algebra polynomial: word -> nonzero residue."""

    __slots__ = ()
    monoid = WordMonoid

    @classmethod
    def term(cls, w: Word, n: int, p: int, coeff: int = 1) -> "NcPolynomial":
        return cls(n, p, {tuple(w): coeff})

    def leading_word(self, order: WordOrder) -> Word:
        return self.leading_term(order)

    def sandwich(self, left: Word, right: Word) -> "NcPolynomial":
        """left * self * right for plain words."""
        left, right = tuple(left), tuple(right)
        return NcPolynomial(
            self.n, self.p, {left + w + right: c for w, c in self._coeffs.items()}
        )


def overlap_check(
    basis: list[NcPolynomial], order: WordOrder, length_bound: Optional[int] = None
) -> bool:
    """Diamond-lemma confluence test for a finite monic basis.

    Every overlap and inclusion ambiguity between leading words of length
    at most length_bound (default: all of them) must reduce to zero under
    normal_form; then reduction modulo the basis computes canonical
    forms.
    """
    elems = [g for g in basis if not g.is_zero()]
    for g in elems:
        if g.leading_coefficient(order) != 1:
            raise ValueError("overlap check requires monic elements")
    leads = [g.leading_word(order) for g in elems]
    if length_bound is not None:
        keep = [i for i, w in enumerate(leads) if len(w) <= length_bound]
    else:
        keep = list(range(len(elems)))

    for i in keep:
        wi, gi = leads[i], elems[i]
        for j in keep:
            wj, gj = leads[j], elems[j]
            # overlaps: wi = a b, wj = b c with b nonempty, word = a b c
            for k in range(1, min(len(wi), len(wj))):
                if wi[len(wi) - k :] != wj[:k]:
                    continue
                left = wi[: len(wi) - k]
                right = wj[k:]
                s = gi.sandwich((), right) - gj.sandwich(left, ())
                if not normal_form(s, elems, order).is_zero():
                    return False
            # inclusions: wi occurs inside wj
            if i != j:
                for left, right in subword_occurrences(wi, wj):
                    s = gj - gi.sandwich(left, right)
                    if not normal_form(s, elems, order).is_zero():
                        return False
    return True


def render_free_file(polys: Iterable[NcPolynomial], n: int, p: int) -> str:
    lines = [f"free n={n} p={p}"]
    lines.extend(f.to_text() for f in polys)
    return "\n".join(lines) + "\n"


def parse_free_file(text: str):
    """-> (n, p, polynomials)."""
    head, *body = content_lines(text) or [""]
    n, p = header(head, "free", ("n", "p"))
    return n, p, [parse_polynomial(ln, n, p, NcPolynomial) for ln in body]
