"""Commutative terms, term orders, and the term monoid.

A term X1^a1 * ... * Xn^an is a plain tuple of n nonnegative ints; entry
i-1 holds the exponent of Xi. Variable indices are 1-based everywhere,
matching the X1..Xn naming of the text grammar, and every term order
ranks the variables X1 < X2 < ... < Xn. All values are immutable
and all operations are pure, so they are safe to share across threads.
TermMonoid packages the operations a polynomial ring over terms needs,
and is the one place that enumerates, multiplies and divides terms.

The componentwise primitives are C-level ``map`` kernels over ``operator``
functions. The public ones (divides, lcm) check arity, since ``map``, like
``zip``, would silently truncate; scans over one ring's terms (minimal_terms,
corner splitting, term membership) inline the unchecked all(map(le, a, b)).
packed_monoid packs terms into ints for Buchberger's graded pair loop.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import repeat
from operator import add, le, lshift, neg, pos, sub
from typing import Iterable, Iterator, Optional

from .errors import ParseError, clip, decimal

Term = tuple[int, ...]

ORDER_KINDS = ("lex", "deglex", "degrevlex")

def _check_arity(a: Term, b: Term) -> None:
    if len(a) != len(b):
        raise ValueError(f"variable counts differ: {len(a)} vs {len(b)}")


def variable(n: int, i: int) -> Term:
    """The term Xi in n variables."""
    if not 1 <= i <= n:
        raise ValueError(f"variable index {i} out of range 1..{n}")
    return tuple(1 if k == i - 1 else 0 for k in range(n))


def divides(a: Term, b: Term) -> bool:
    """True iff a divides b componentwise."""
    _check_arity(a, b)
    return all(map(le, a, b))


def lcm(a: Term, b: Term) -> Term:
    _check_arity(a, b)
    return tuple(map(max, a, b))


def terms_of_degree(n: int, d: int) -> Iterator[Term]:
    """Terms of total degree d in n >= 1 variables, descending as tuples
    (combinations_with_replacement order). A step moves a unit of the
    last nonzero exponent i < n - 1, and all of exponent n - 1, to i + 1."""
    exps = [d] + [0] * (n - 1)
    while True:
        yield tuple(exps)
        i = n - 2
        while i >= 0 and not exps[i]:
            i -= 1
        if i < 0:
            return
        tail, exps[-1] = exps[-1], 0
        exps[i] -= 1
        exps[i + 1] = tail + 1


def minimal_terms(terms: Iterable[Term]) -> set[Term]:
    """Divisibility-minimal elements of a finite term set."""
    pool = sorted(set(terms), key=lambda t: (sum(t), t))
    kept: list[Term] = []
    for t in pool:
        if not any(map(all, map(map, repeat(le), kept, repeat(t)))):
            kept.append(t)
    return set(kept)


class TermOrder:
    """A total noetherian semigroup order on terms of equal arity.

    kind is one of lex, deglex, degrevlex; the variables are ordered
    X1 < X2 < ... < Xn under every kind. Orders compare via sort keys, so
    leading-term extraction is a plain max(). Each kind has one immutable
    instance, which TermOrder(kind), copies and unpickling all return.
    """

    __slots__ = ("kind",)

    def __new__(cls, kind: str = "deglex") -> TermOrder:
        if kind not in ORDER_KINDS:  # a tuple scan, so unhashable kinds land here
            raise ValueError(f"unknown order kind {clip(str(kind))!r}")
        return _ORDERS[kind]

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("a TermOrder is shared by every caller and cannot change")

    def __reduce__(self):
        return TermOrder, (self.kind,)

    @property
    def degree_compatible(self) -> bool:
        return self.kind in ("deglex", "degrevlex")

    def key(self, t: Term):
        """Sort key: k(a) < k(b) iff a precedes b."""
        if self.kind == "lex":
            return t[::-1]
        if self.kind == "deglex":
            return (sum(t), t[::-1])
        # degrevlex: graded; ties go to the term with the larger exponent
        # at the earliest small variable.
        return (sum(t), tuple(map(neg, t)))


_ORDERS = {kind: object.__new__(TermOrder) for kind in ORDER_KINDS}
for _kind, _order in _ORDERS.items():
    object.__setattr__(_order, "kind", _kind)


_FACTOR = re.compile(r"X(\d+)(?:\^(\d+))?")


def term_to_text(t: Term) -> str:
    """Render as X1^2*X3 style; 1 for the empty term."""
    parts = []
    for i, e in enumerate(t, start=1):
        if e == 1:
            parts.append(f"X{i}")
        elif e > 1:
            parts.append(f"X{i}^{e}")
    return "*".join(parts) if parts else "1"


def read_monomial(text: str, n: int, factor: re.Pattern, what: str) -> Iterator[tuple[int, int]]:
    """(i, e) for each factor Xi or Xi^e of a '*'-joined product, 1 factors
    skipped. factor is the grammar's pattern for one factor: group 1 the
    index, an optional group 2 the exponent; what names it in refusals."""
    body = text.strip()
    if not body:
        raise ParseError(f"empty {what}")
    for raw in body.split("*"):
        part = raw.strip()
        if part == "1":
            continue
        m = factor.fullmatch(part)
        if not m:
            raise ParseError(f"bad {what} factor {clip(part)!r}")
        i = decimal(m[1])
        if not 1 <= i <= n:
            raise ParseError(f"variable X{clip(str(i))} out of range 1..{n}")
        yield i, decimal(m[2]) if m.lastindex == 2 else 1


def parse_term(text: str, n: int) -> Term:
    """Parse the term grammar: factors Xi and Xi^e, exponents adding up."""
    exps = [0] * n
    for i, e in read_monomial(text, n, _FACTOR, "term"):
        exps[i - 1] += e
    return tuple(exps)


class TermMonoid:
    """Terms under multiplication: the monoid of the commutative ring.

    A leading term reduces every term it divides; the cofactor is the
    exact quotient, applied to a tail term by multiplication. mul is apply:
    neither checks arity, since a ring only passes them its own terms.
    """

    default_order = TermOrder("deglex")
    degree = staticmethod(sum)
    of_degree = staticmethod(terms_of_degree)
    render = staticmethod(term_to_text)
    parse = staticmethod(parse_term)

    @staticmethod
    def one(n: int) -> Term:
        return (0,) * n

    @staticmethod
    def validate(t, n: int) -> Term:
        t = tuple(t)
        if len(t) != n or any(type(e) is not int or e < 0 for e in t):
            raise ValueError(f"term {t} does not live in {n} variables")
        return t

    @staticmethod
    def cofactor(lead: Term, t: Term) -> Optional[Term]:
        """t / lead, or None when lead does not divide t."""
        if all(map(le, lead, t)):
            return tuple(map(sub, t, lead))
        return None

    @staticmethod
    def apply(q: Term, s: Term) -> Term:
        return tuple(map(add, q, s))

    mul = apply

    @staticmethod
    def lcm(a: Term, b: Term) -> Term:
        return tuple(map(max, a, b))


@cache
def packed_monoid(n: int, kind: str, w: int) -> type:
    """n-variable terms packed into ints for the graded order kind, which the
    class also serves as: the degree in the top field, below it one field per
    variable (X1 lowest under deglex, highest under degrevlex), each w value
    bits under a guard bit. While degrees stay below 2^w, a product is +, a
    failed division sets a guard bit and key sorts as TermOrder.key does."""
    step, field, top = w + 1, (1 << w) - 1, n * (w + 1)
    shifts = [k * step for k in range(n)][:: -1 if kind == "degrevlex" else 1]
    ones = sum(1 << s for s in shifts)
    guard, low, spread, degree = ones << w, ones * field, ones << step, field << top

    class PackedMonoid:
        key = pos if kind == "deglex" else low.__xor__
        mul = apply = add
        limit = 1 << (top + w - 1)  # the least term of degree 2^(w-1)

        @staticmethod
        def cofactor(lead: int, t: int) -> Optional[int]:
            return None if (d := t - lead) & guard else d

        @staticmethod
        def lcm(a: int, b: int) -> int:
            # the guard bits of (a | guard) - b mark the fields where a >= b;
            # v * spread sums the fields of the max into the degree field
            a, b = a & low, b & low
            m = ((a | guard) - b) & guard
            v = b ^ ((a ^ b) & (m - (m >> w)))
            return v | (v * spread & degree)

        @staticmethod
        def pack(coeffs: dict) -> dict:
            return {sum(map(lshift, t, shifts), sum(t) << top): c for t, c in coeffs.items()}

        @staticmethod
        def unpack(coeffs: dict) -> dict:
            return {tuple([t >> s & field for s in shifts]): c for t, c in coeffs.items()}

    return PackedMonoid
