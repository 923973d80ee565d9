"""Sparse polynomials over a prime field and the one reduction loop, with
Buchberger's algorithm and reduced Groebner bases for the commutative
ring, and the header parser shared by every file format.

A polynomial's class fixes its monoid of monomials: Polynomial uses
commutative terms (terms.TermMonoid), NcPolynomial in nc_polynomials uses
words (words.WordMonoid); arithmetic, text and normal_form only go through
the monoid. Text grammar for a polynomial: signed sum of monomials, each
monomial a '*'-joined list of an optional integer coefficient and monomial
factors, e.g. ``3*X1^2*X2 + 31999*X2^2 + 1``. Ideal files carry a header
line ``ring n=<n> p=<p> order=<kind>`` followed by one polynomial per line;
``#`` starts a comment.
"""

from __future__ import annotations

import re
from bisect import insort
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import ParseError
from .field import inv_mod, validate_prime
from .terms import Term, TermMonoid, TermOrder, divides, lcm, term_div, term_mul


class Polynomial:
    """Immutable sparse polynomial: monomial -> nonzero residue mod p.

    The class attribute monoid says what a monomial is; here an exponent
    tuple in n variables.
    """

    __slots__ = ("n", "p", "_coeffs")
    monoid = TermMonoid

    def __init__(self, n: int, p: int, coeffs: Optional[dict] = None):
        self.n = n
        self.p = p
        clean: dict = {}
        if coeffs:
            validate = self.monoid.validate
            for t, c in coeffs.items():
                t = validate(t, n)
                c %= p
                if c:
                    clean[t] = c
        self._coeffs = clean

    @classmethod
    def zero(cls, n: int, p: int) -> "Polynomial":
        return cls(n, p)

    @classmethod
    def term(cls, t: Term, p: int, coeff: int = 1) -> "Polynomial":
        return cls(len(t), p, {tuple(t): coeff})

    @classmethod
    def constant(cls, n: int, p: int, c: int) -> "Polynomial":
        return cls(n, p, {cls.monoid.one(n): c})

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def support(self) -> set:
        return set(self._coeffs)

    def items(self):
        return self._coeffs.items()

    def coefficient(self, t) -> int:
        return self._coeffs.get(tuple(t), 0)

    def degree(self) -> int:
        """Total degree (word length); -1 for the zero polynomial."""
        return max(map(self.monoid.degree, self._coeffs), default=-1)

    def _compatible(self, other: "Polynomial") -> None:
        if type(self) is not type(other) or self.n != other.n or self.p != other.p:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._compatible(other)
        out = dict(self._coeffs)
        for t, c in other._coeffs.items():
            out[t] = out.get(t, 0) + c
        return type(self)(self.n, self.p, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._compatible(other)
        out = dict(self._coeffs)
        for t, c in other._coeffs.items():
            out[t] = out.get(t, 0) - c
        return type(self)(self.n, self.p, out)

    def __neg__(self) -> "Polynomial":
        return type(self)(self.n, self.p, {t: -c for t, c in self._coeffs.items()})

    def scale(self, c: int) -> "Polynomial":
        return type(self)(self.n, self.p, {t: v * c for t, v in self._coeffs.items()})

    def multiply_term(self, coeff: int, t) -> "Polynomial":
        t, mul = tuple(t), self.monoid.mul
        return type(self)(
            self.n, self.p, {mul(s, t): v * coeff for s, v in self._coeffs.items()}
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._compatible(other)
        mul = self.monoid.mul
        out: dict = {}
        for s, cs in self._coeffs.items():
            for t, ct in other._coeffs.items():
                u = mul(s, t)
                out[u] = out.get(u, 0) + cs * ct
        return type(self)(self.n, self.p, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def leading_term(self, order):
        if not self._coeffs:
            raise ValueError("zero polynomial has no leading term")
        return max(self._coeffs, key=order.key)

    def leading_coefficient(self, order) -> int:
        return self._coeffs[self.leading_term(order)]

    def leading_data(self, order) -> tuple:
        t = self.leading_term(order)
        return t, self._coeffs[t]

    def monic(self, order) -> "Polynomial":
        if not self._coeffs:
            raise ValueError("cannot normalize the zero polynomial")
        return self.scale(inv_mod(self.leading_coefficient(order), self.p))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and self.p == other.p and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self.n, self.p, frozenset(self._coeffs.items())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_text()!r}, n={self.n}, p={self.p})"

    def to_text(self, order=None) -> str:
        if not self._coeffs:
            return "0"
        order = order or self.monoid.default_order
        render = self.monoid.render
        pieces = []
        for t in sorted(self._coeffs, key=order.key, reverse=True):
            c, text = self._coeffs[t], render(t)
            if text == "1":
                pieces.append(str(c))
            elif c == 1:
                pieces.append(text)
            else:
                pieces.append(f"{c}*{text}")
        return " + ".join(pieces)


def parse_polynomial(text: str, n: int, p: int, cls: type = Polynomial) -> Polynomial:
    """Parse the polynomial grammar into cls, Polynomial or NcPolynomial."""
    body = text.strip()
    if not body:
        raise ParseError("empty polynomial")
    monoid = cls.monoid
    coeffs: dict = {}
    for chunk in body.replace("-", "+-").split("+"):
        mono = chunk.strip()
        if not mono:
            continue
        sign = 1
        if mono.startswith("-"):
            sign = -1
            mono = mono[1:].strip()
            if not mono:
                raise ParseError("dangling sign")
        coeff = sign
        t = monoid.one(n)
        for raw in mono.split("*"):
            factor = raw.strip()
            if re.fullmatch(r"\d+", factor):
                coeff *= int(factor)
            else:
                t = monoid.mul(t, monoid.parse(factor, n))
        coeffs[t] = coeffs.get(t, 0) + coeff
    return cls(n, p, coeffs)


@dataclass(frozen=True)
class GroebnerBasis:
    """A Groebner basis with its order; reduced means monic, minimal and
    with every tail term outside the leading-term ideal."""

    elements: tuple[Polynomial, ...]
    order: TermOrder
    reduced: bool = False

    def leading_terms(self) -> tuple[Term, ...]:
        return tuple(g.leading_term(self.order) for g in self.elements)

    @classmethod
    def verified(cls, elements: Iterable[Polynomial], order: TermOrder) -> "GroebnerBasis":
        elems = tuple(elements)
        if not is_groebner(list(elems), order):
            raise ValueError("pairwise S-polynomials do not all reduce to zero")
        return cls(elems, order)


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    """lc(g)^-1 (d/T(g)) g - lc(f)^-1 (d/T(f)) f with d = lcm of the leads."""
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial needs nonzero arguments")
    f._compatible(g)
    tf, cf = f.leading_data(order)
    tg, cg = g.leading_data(order)
    d = lcm(tf, tg)
    p = f.p
    return g.multiply_term(inv_mod(cg, p), term_div(d, tg)) - f.multiply_term(
        inv_mod(cf, p), term_div(d, tf)
    )


def normal_form(f: Polynomial, basis: Iterable[Polynomial], order) -> Polynomial:
    """Fully reduced remainder of f: no monomial of the result has any
    basis leading monomial as a factor (a divisor of a term, a subword of
    a word), and the dropped part has a representation over the basis.

    Deterministic: the largest remaining monomial is processed first, the
    reducer with the smallest leading monomial wins with ties by list
    position, and a word is rewritten at its leftmost occurrence.
    """
    key = order.key
    reducers = []
    for idx, g in enumerate(basis):
        if g.is_zero():
            continue
        t, c = g.leading_data(order)
        reducers.append((key(t), idx, t, c, g))
    reducers.sort(key=lambda r: (r[0], r[1]))

    cofactor, apply = f.monoid.cofactor, f.monoid.apply
    p = f.p
    work = dict(f._coeffs)
    # pending monomials sorted by cached order key; the largest is last.
    # An entry whose monomial has since cancelled is skipped when popped.
    queue = sorted((key(t), t) for t in work)
    out: dict = {}
    while queue:
        t = queue.pop()[1]
        c = work.pop(t, 0)
        if not c:
            continue
        for _, _, lt, lc, g in reducers:
            q = cofactor(lt, t)
            if q is not None:
                break
        else:
            out[t] = c
            continue
        factor = (c * inv_mod(lc, p)) % p
        for s, cs in g._coeffs.items():
            if s == lt:
                continue
            u = apply(q, s)
            v = (work.get(u, 0) - factor * cs) % p
            if v:
                if u not in work:
                    insort(queue, (key(u), u))
                work[u] = v
            elif u in work:
                del work[u]
    return type(f)(f.n, p, out)


def _select_pair(pairs, leads, order):
    def pair_key(ij):
        i, j = ij
        return (order.key(lcm(leads[i], leads[j])), i, j)

    return min(pairs, key=pair_key)


def buchberger(generators: Iterable[Polynomial], order: TermOrder) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal of the generators.

    Normal pair selection (smallest lcm first); pairs with coprime leads
    are skipped, and the chain criterion drops a pair when a third lead
    divides its lcm and both companion pairs were already settled.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise ValueError("cannot complete a basis from zero generators")
    n, p = gens[0].n, gens[0].p

    basis = [g.monic(order) for g in gens]
    leads = [g.leading_term(order) for g in basis]
    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    settled: set[tuple[int, int]] = set()

    while pairs:
        i, j = _select_pair(pairs, leads, order)
        pairs.discard((i, j))
        ti, tj = leads[i], leads[j]
        big = lcm(ti, tj)
        if big == term_mul(ti, tj):
            settled.add((i, j))
            continue
        chained = any(
            k != i
            and k != j
            and divides(leads[k], big)
            and (min(i, k), max(i, k)) in settled
            and (min(j, k), max(j, k)) in settled
            for k in range(len(basis))
        )
        if chained:
            continue
        settled.add((i, j))
        r = normal_form(s_polynomial(basis[i], basis[j], order), basis, order)
        if not r.is_zero():
            r = r.monic(order)
            k = len(basis)
            basis.append(r)
            leads.append(r.leading_term(order))
            pairs.update((i2, k) for i2 in range(k))

    # minimal basis: drop elements whose lead another lead divides
    minimal: list[Polynomial] = []
    for g in sorted(basis, key=lambda g: order.key(g.leading_term(order))):
        t = g.leading_term(order)
        if not any(divides(h.leading_term(order), t) for h in minimal):
            minimal.append(g)

    # interreduce tails until stable
    changed = True
    while changed:
        changed = False
        for i in range(len(minimal)):
            others = minimal[:i] + minimal[i + 1 :]
            r = normal_form(minimal[i], others, order).monic(order)
            if r != minimal[i]:
                minimal[i] = r
                changed = True

    minimal.sort(key=lambda g: order.key(g.leading_term(order)))
    return GroebnerBasis(tuple(minimal), order, reduced=True)


def is_groebner(basis: list[Polynomial], order: TermOrder) -> bool:
    """True iff every pairwise S-polynomial reduces to zero over the set."""
    elems = [g for g in basis if not g.is_zero()]
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            s = s_polynomial(elems[i], elems[j], order)
            if not normal_form(s, elems, order).is_zero():
                return False
    return True


def gb_degree(basis: GroebnerBasis) -> int:
    """Largest total degree of a basis element (requires a reduced basis)."""
    if not basis.reduced:
        raise ValueError("degree bound is defined on the reduced basis")
    return max(g.degree() for g in basis.elements)


def lead_degree(basis: GroebnerBasis) -> int:
    """Largest total degree of a leading term; equals gb_degree for
    degree-compatible orders, can be smaller for lex."""
    return max(sum(t) for t in basis.leading_terms())


def content_lines(text: str) -> list[str]:
    """The stripped lines of a file, without # comments and blank lines."""
    lines = (ln.split("#", 1)[0].strip() for ln in text.splitlines())
    return [ln for ln in lines if ln]


def header(line: str, kind: str, fields: tuple[str, ...]) -> tuple:
    """Values of a header line ``<kind> <field>=<value> ...`` carrying
    exactly the given fields, in that order. Every value is a nonnegative
    integer except order, which names a term order; p must be prime."""
    parts = line.split()
    pairs = [part.partition("=") for part in parts[1:]]
    if parts[:1] != [kind] or [(k, eq) for k, eq, _ in pairs] != [(f, "=") for f in fields]:
        raise ParseError(f"bad {kind} header: {line!r}")
    values = []
    for name, _, value in pairs:
        if name != "order" and not value.isdecimal():
            raise ParseError(f"bad {kind} header: {line!r}")
        try:
            if name == "order":
                values.append(TermOrder(value))
            else:
                values.append(validate_prime(int(value)) if name == "p" else int(value))
        except ValueError as e:
            raise ParseError(str(e)) from None
    return tuple(values)


def render_ideal_file(
    polys: Iterable[Polynomial], order: TermOrder, n: int, p: int
) -> str:
    lines = [f"ring n={n} p={p} order={order.kind}"]
    lines.extend(f.to_text(order) for f in polys)
    return "\n".join(lines) + "\n"


def parse_ideal_file(text: str):
    """-> (n, p, order, polynomials). Blank lines and # comments allowed."""
    head, *body = content_lines(text) or [""]
    n, p, order = header(head, "ring", ("n", "p", "order"))
    return n, p, order, [parse_polynomial(ln, n, p) for ln in body]
