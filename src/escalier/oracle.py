"""The canonical-form oracle: a sealed holder of a hidden basis and order
that answers Can(t) while counting queries.

The hidden state is kept in name-mangled attributes and is never exposed
through the query surface; reconstruction code is written against the
member_T / can_term / can_poly / queries interface only. One oracle
instance belongs to one session at a time (the ledger mutates); distinct
instances are independent.

The ledger keeps the paper's cost model: member_T and can_term cost one
query each, and Can(f) costs |supp(f)|, one per term of f. The charge is
a cost model, not the work done. The oracle only holds bases with unique
normal forms (a reduced Groebner basis, or a free-algebra basis whose
every ambiguity resolves), so reduction is linear: the normal form of f
is the sum of c * Can(t) over the terms of f, and can_poly answers with
that one reduction.

Every answer is reduced over one Reducer, prepared once per basis,
which remembers the reduction step of each monomial it has reduced. The
memory saves computation only: the ledger charges every query exactly as
without it. It grows with the distinct monomials the oracle has reduced,
and lives as long as the oracle, which a long line-protocol session
should bear in mind. Answers never depend on the ledger, so callers that
run several sessions over one oracle measure each as a difference of
queries.
"""

from __future__ import annotations

from itertools import repeat
from operator import le
from typing import Iterable, Optional, Union

from .errors import ParseError, clip
from .field import validate_prime
from .nc_polynomials import NcPolynomial, overlap_check
from .polynomials import GroebnerBasis, Polynomial, Reducer, buchberger, normal_form
from .terms import TermMonoid, TermOrder


class CanOracle:
    """Answers canonical forms for a hidden ideal and term order.

    Answers depend only on the ideal and the order, never on the
    presentation: commutative generator lists are completed to the
    reduced basis on construction, and free-algebra bases must pass the
    overlap confluence check. Both algebras share one query path; the
    polynomial class of the basis fixes the monoid.
    """

    def __init__(self):
        raise TypeError("use CanOracle.commutative or CanOracle.noncommutative")

    # --- construction -------------------------------------------------

    @classmethod
    def _build(cls, algebra, reducer, n, p):
        self = object.__new__(cls)
        self.__algebra = algebra
        self.__monoid = algebra.monoid
        self.__reducer = reducer
        self.__leads = tuple(g.leading_term(reducer.order) for g in reducer.elements)
        self.__n = n
        self.__p = p
        self.__count = 0
        return self

    @classmethod
    def commutative(
        cls,
        generators: Union[GroebnerBasis, Iterable[Polynomial]],
        order: Optional[TermOrder] = None,
        *,
        n: Optional[int] = None,
        p: Optional[int] = None,
    ) -> "CanOracle":
        """Oracle for the ideal of the generators; an empty generator list
        (with explicit n and p) gives the zero ideal."""
        if not isinstance(generators, GroebnerBasis):
            gens = [g for g in generators if not g.is_zero()]
            order = order or TermOrder("deglex")
            generators = buchberger(gens, order) if gens else GroebnerBasis((), order)
        order, elems = generators.order, generators.elements
        if elems:
            n, p = elems[0].n, elems[0].p
        if n is None or p is None:
            raise ValueError("zero ideal oracle needs explicit n and p")
        validate_prime(p)
        return cls._build(Polynomial, Reducer(elems, order), n, p)

    @classmethod
    def noncommutative(cls, basis: Iterable[NcPolynomial]) -> "CanOracle":
        """Oracle backed by a finite free-algebra basis of a proper ideal
        under the word order; the basis must pass the full overlap_check
        so canonical forms are well defined."""
        order = NcPolynomial.monoid.default_order
        elems = [g for g in basis if not g.is_zero()]
        if not elems:
            raise ParseError("free-algebra oracle needs a nonempty basis")
        validate_prime(elems[0].p)
        elems = [g.monic(order) for g in elems]
        if any(not g.leading_term(order) for g in elems):
            raise ParseError("basis generates the whole free algebra (a lead is 1)")
        reducer = Reducer(elems, order)
        if not overlap_check(reducer):
            raise ValueError("basis fails the overlap confluence check")
        return cls._build(NcPolynomial, reducer, elems[0].n, elems[0].p)

    # --- public ring data ----------------------------------------------

    @property
    def n(self) -> int:
        return self.__n

    @property
    def p(self) -> int:
        return self.__p

    @property
    def monoid(self):
        """The monoid of the oracle's monomials: terms or words."""
        return self.__monoid

    @property
    def queries(self) -> int:
        return self.__count

    # --- queries --------------------------------------------------------

    def can_term(self, t):
        """Canonical form of a single term; one ledger query."""
        t = self.__monoid.validate(t, self.__n)
        self.__count += 1
        return normal_form(self.__algebra._ring(self.__n, self.__p, {t: 1}), self.__reducer)

    def member_T(self, t) -> bool:
        """True iff t lies in the hidden leading-term ideal; one query."""
        monoid = self.__monoid
        t = monoid.validate(t, self.__n)
        self.__count += 1
        if monoid is TermMonoid:  # divisibility only: a C-level scan, no quotient built
            return any(map(all, map(map, repeat(le), self.__leads, repeat(t))))
        cofactor = monoid.cofactor
        return any(cofactor(lt, t) is not None for lt in self.__leads)

    def can_poly(self, f):
        """Canonical form of f; |supp(f)| ledger queries.

        Can(f) is defined term by term, as the sum of c * can_term(t),
        and charged that way. Normal forms over the oracle's basis are
        unique, hence linear, so one reduction of f gives the same sum.
        """
        if type(f) is not self.__algebra:
            raise ValueError(f"expected a {self.__algebra.__name__}")
        if f.n != self.__n or f.p != self.__p:
            raise ValueError("polynomial is not in the oracle's ring")
        self.__count += len(f.items())
        return normal_form(f, self.__reducer)

    def masked_can(self, t, decomposition):
        """Canonical form of t asked through a masking decomposition.

        decomposition is a list of polynomial pairs (l, r) whose combined
        products satisfy sum(l * t * r) = t, checked before any query; the
        masked answers are summed, and the result equals can_term(t).
        """
        term = self.__algebra._ring(self.__n, self.__p, {self.__monoid.validate(t, self.__n): 1})
        zero = self.__algebra(self.__n, self.__p)
        pieces = [left * term * right for left, right in decomposition]
        if sum(pieces, zero) != term:
            raise ValueError("decomposition does not sum back to the term")
        return sum(map(self.can_poly, pieces), zero)


# --- line protocol ------------------------------------------------------


def serve_line(oracle: CanOracle, line: str) -> str:
    """One request: ``CAN <term>`` -> polynomial text, ``COUNT`` -> integer."""
    parts = line.strip().split(None, 1)
    if not parts:
        return ""
    cmd = parts[0].upper()
    if cmd == "COUNT":
        return str(oracle.queries)
    if cmd == "CAN" and len(parts) == 2:
        try:
            return oracle.can_term(oracle.monoid.parse(parts[1], oracle.n)).to_text()
        except (ParseError, ValueError) as e:
            return f"ERR {e}"
    return f"ERR unknown request {clip(line.strip())!r}"
