"""Commutative terms, term orders, box enumeration, and the term monoid.

A term X1^a1 * ... * Xn^an is a plain tuple of n nonnegative ints; entry
i-1 holds the exponent of Xi. Variable indices are 1-based everywhere,
matching the X1..Xn naming of the text grammar. All values are immutable
and all operations are pure, so they are safe to share across threads.
TermMonoid packages the operations a polynomial ring over terms needs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Optional

from .errors import ParseError

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


def degree(t: Term) -> int:
    return sum(t)


def term_mul(a: Term, b: Term) -> Term:
    _check_arity(a, b)
    return tuple(x + y for x, y in zip(a, b))


def divides(a: Term, b: Term) -> bool:
    """True iff a divides b componentwise."""
    _check_arity(a, b)
    return all(x <= y for x, y in zip(a, b))


def term_div(a: Term, b: Term) -> Term:
    """Exact quotient a / b; raises when b does not divide a."""
    _check_arity(a, b)
    if not all(y <= x for x, y in zip(a, b)):
        raise ValueError(f"{term_to_text(b)} does not divide {term_to_text(a)}")
    return tuple(x - y for x, y in zip(a, b))


def lcm(a: Term, b: Term) -> Term:
    _check_arity(a, b)
    return tuple(max(x, y) for x, y in zip(a, b))


def minimal_terms(terms: Iterable[Term]) -> set[Term]:
    """Divisibility-minimal elements of a finite term set."""
    pool = sorted(set(terms), key=lambda t: (sum(t), t))
    kept: list[Term] = []
    for t in pool:
        if not any(divides(m, t) for m in kept):
            kept.append(t)
    return set(kept)


@dataclass(frozen=True)
class TermOrder:
    """A total noetherian semigroup order on terms of equal arity.

    kind is one of lex, deglex, degrevlex. precedence lists the variables
    from smallest to largest; the default is X1 < X2 < ... < Xn. Orders
    compare via sort keys, so leading-term extraction is a plain max().
    """

    kind: str = "deglex"
    precedence: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in ORDER_KINDS:
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.precedence is not None:
            prec = tuple(self.precedence)
            if sorted(prec) != list(range(1, len(prec) + 1)):
                raise ValueError("precedence must be a permutation of 1..n")
            object.__setattr__(self, "precedence", prec)

    @property
    def degree_compatible(self) -> bool:
        return self.kind in ("deglex", "degrevlex")

    def _prec(self, n: int) -> tuple[int, ...]:
        if self.precedence is None:
            return tuple(range(1, n + 1))
        if len(self.precedence) != n:
            raise ValueError(
                f"order is fixed to {len(self.precedence)} variables, got a term in {n}"
            )
        return self.precedence

    def key(self, t: Term):
        """Sort key: k(a) < k(b) iff a precedes b."""
        prec = self._prec(len(t))
        if self.kind == "lex":
            return tuple(t[v - 1] for v in reversed(prec))
        if self.kind == "deglex":
            return (sum(t), tuple(t[v - 1] for v in reversed(prec)))
        # degrevlex: graded; ties go to the term with the larger exponent
        # at the earliest small variable.
        return (sum(t), tuple(-t[v - 1] for v in prec))


@dataclass(frozen=True)
class Box:
    """All terms with every exponent at most bound; (bound+1)**n terms."""

    n: int
    bound: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one variable")
        if self.bound < 0:
            raise ValueError("bound must be nonnegative")

    @property
    def size(self) -> int:
        return (self.bound + 1) ** self.n


def box_enumerate(box: Box, order: Optional[TermOrder] = None) -> Iterator[Term]:
    """Yield each box term once: graded, ties broken by order (default deglex)."""
    order = order or TermOrder("deglex")
    for t in sorted(
        product(range(box.bound + 1), repeat=box.n),
        key=lambda t: (sum(t), order.key(t)),
    ):
        yield t


_FACTOR = re.compile(r"^X(\d+)(?:\^(\d+))?$")


def term_to_text(t: Term) -> str:
    """Render as X1^2*X3 style; 1 for the empty term."""
    parts = []
    for i, e in enumerate(t, start=1):
        if e == 1:
            parts.append(f"X{i}")
        elif e > 1:
            parts.append(f"X{i}^{e}")
    return "*".join(parts) if parts else "1"


def parse_term(text: str, n: int) -> Term:
    """Parse the term grammar (optional whitespace around factors)."""
    body = text.strip()
    if not body:
        raise ParseError("empty term")
    exps = [0] * n
    for raw in body.split("*"):
        factor = raw.strip()
        if factor == "1":
            continue
        m = _FACTOR.match(factor)
        if not m:
            raise ParseError(f"bad term factor {factor!r}")
        i = int(m.group(1))
        if not 1 <= i <= n:
            raise ParseError(f"variable X{i} out of range 1..{n}")
        exps[i - 1] += int(m.group(2)) if m.group(2) else 1
    return tuple(exps)


class TermMonoid:
    """Terms under multiplication: the monoid of the commutative ring.

    A leading term reduces every term it divides; the cofactor is the
    exact quotient, applied to a tail term by multiplication.
    """

    default_order = TermOrder("deglex")
    mul = staticmethod(term_mul)
    degree = staticmethod(degree)
    render = staticmethod(term_to_text)
    parse = staticmethod(parse_term)

    @staticmethod
    def one(n: int) -> Term:
        return (0,) * n

    @staticmethod
    def validate(t, n: int) -> Term:
        t = tuple(t)
        if len(t) != n or any(e < 0 for e in t):
            raise ValueError(f"term {t} does not live in {n} variables")
        return t

    @staticmethod
    def cofactor(lead: Term, t: Term) -> Optional[Term]:
        """t / lead, or None when lead does not divide t."""
        if all(x <= y for x, y in zip(lead, t)):
            return tuple(y - x for x, y in zip(lead, t))
        return None

    @staticmethod
    def apply(q: Term, s: Term) -> Term:
        return tuple(x + y for x, y in zip(q, s))
