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

from bisect import insort
from functools import cache
from heapq import heappop, heappush
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import ParseError, clip, decimal
from .field import inv_mod, validate_prime
from .terms import Term, TermMonoid, TermOrder, minimal_terms, packed_monoid


class Polynomial:
    """Immutable sparse polynomial: monomial -> nonzero residue mod p.

    The class attribute monoid says what a monomial is; here an exponent
    tuple in n variables. _lead caches (order, leading monomial) for the
    last order asked.
    """

    __slots__ = ("n", "p", "_coeffs", "_lead")
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
        self._lead = None

    @classmethod
    def _ring(cls, n: int, p: int, coeffs: dict) -> "Polynomial":
        """Trusted constructor for results whose monomials already live in
        the ring (arithmetic, reduction): coefficients are reduced mod p
        and zeros dropped, but no monomial is validated again."""
        self = object.__new__(cls)
        self.n = n
        self.p = p
        self._coeffs = {t: r for t, c in coeffs.items() if (r := c % p)}
        self._lead = None
        return self

    @classmethod
    def zero(cls, n: int, p: int) -> "Polynomial":
        return cls(n, p)

    @classmethod
    def term(cls, t: Term, p: int) -> "Polynomial":
        return cls(len(t), p, {tuple(t): 1})

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
        return self._ring(self.n, self.p, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._compatible(other)
        out = dict(self._coeffs)
        for t, c in other._coeffs.items():
            out[t] = out.get(t, 0) - c
        return self._ring(self.n, self.p, out)

    def scale(self, c: int) -> "Polynomial":
        return self._ring(self.n, self.p, {t: v * c for t, v in self._coeffs.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._compatible(other)
        mul = self.monoid.mul
        out: dict = {}
        for s, cs in self._coeffs.items():
            for t, ct in other._coeffs.items():
                u = mul(s, t)
                out[u] = out.get(u, 0) + cs * ct
        return self._ring(self.n, self.p, out)

    def leading_term(self, order):
        lead = self._lead
        if lead is None or lead[0] is not order:
            if not self._coeffs:
                raise ValueError("zero polynomial has no leading term")
            lead = self._lead = (order, max(self._coeffs, key=order.key))
        return lead[1]

    def leading_data(self, order) -> tuple:
        t = self.leading_term(order)
        return t, self._coeffs[t]

    def monic(self, order) -> "Polynomial":
        if not self._coeffs:
            raise ValueError("cannot normalize the zero polynomial")
        return self.scale(inv_mod(self.leading_data(order)[1], self.p))

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
        coeff, t = 1, monoid.one(n)
        if mono.startswith("-"):
            coeff, mono = -1, mono[1:].strip()
            if not mono:
                raise ParseError("dangling sign")
        for raw in mono.split("*"):
            factor = raw.strip()
            if factor.isdecimal():
                coeff *= decimal(factor)
            else:
                t = monoid.mul(t, monoid.parse(factor, n))
        coeffs[t] = coeffs.get(t, 0) + coeff
    return cls(n, p, coeffs)


class GroebnerBasis(NamedTuple):
    """The reduced Groebner basis that buchberger returns, with its order:
    monic, minimal and with every tail term outside the leading-term
    ideal."""

    elements: tuple[Polynomial, ...]
    order: TermOrder

    def leading_terms(self) -> tuple[Term, ...]:
        return tuple(g.leading_term(self.order) for g in self.elements)


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    """lc(g)^-1 (d/T(g)) g - lc(f)^-1 (d/T(f)) f with d = lcm of the leads."""
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial needs nonzero arguments")
    f._compatible(g)
    tf, cf = f.leading_data(order)
    tg, cg = g.leading_data(order)
    d = f.monoid.lcm(tf, tg)
    p, cofactor, apply = f.p, f.monoid.cofactor, f.monoid.apply
    qg, mg = cofactor(tg, d), inv_mod(cg, p)
    qf, mf = cofactor(tf, d), -inv_mod(cf, p)
    # both products in one dict; the leads cancel and _ring drops them
    out = {apply(qg, s): c * mg for s, c in g._coeffs.items()}
    for s, c in f._coeffs.items():
        u = apply(qf, s)
        out[u] = out.get(u, 0) + c * mf
    return f._ring(f.n, p, out)


class Reducer:
    """A basis prepared for reduction under one order: normal_form
    reduces over a Reducer and reads the order from it.

    Its rules (key(lead), index, lead, lc^-1, element), the index the
    count of rules added before, stay sorted. Every monomial it has
    reduced maps to its step: () when no lead is a factor of it, else
    (rule, triples), one (u, key(u), -c * lc^-1 mod p) per tail term c*s
    of the rule's element, u the rewritten s. The rule for a monomial
    depends on that monomial alone, so a remembered step is the step the
    loop would compute, even over a basis whose normal forms are not
    unique. add forgets only the steps the new rule now takes over.
    """

    __slots__ = ("order", "_rules", "_steps")

    def __init__(self, basis: Iterable[Polynomial], order):
        self.order = order
        self._rules: list = []
        self._steps: dict = {}
        for g in basis:
            self.add(g)

    @property
    def elements(self) -> list:
        """The basis elements, in rule order."""
        return [rule[4] for rule in self._rules]

    def add(self, g: Polynomial) -> None:
        """Append g to the basis; ties on the lead go to earlier rules."""
        if g.is_zero():
            return
        if self._rules:
            self._rules[0][4]._compatible(g)
        order = self.order
        t, c = g.leading_data(order)
        rule = (order.key(t), len(self._rules), t, inv_mod(c, g.p), g)
        insort(self._rules, rule)
        cofactor, steps = g.monoid.cofactor, self._steps
        stale = [
            m for m, step in steps.items()
            if (not step or step[0] > rule) and cofactor(t, m) is not None
        ]
        for m in stale:
            del steps[m]


def normal_form(f: Polynomial, reducer: Reducer) -> Polynomial:
    """Fully reduced remainder of f over the reducer's basis, under the
    order it was prepared with: no monomial of the result has any basis
    leading monomial as a factor (a divisor of a term, a subword of a
    word), and the dropped part has a representation over the basis.

    Deterministic: the largest remaining monomial is processed first, the
    reducer with the smallest leading monomial wins with ties by list
    position, and a word is rewritten at its leftmost occurrence.
    """
    rules, steps = reducer._rules, reducer._steps
    if not rules:
        return f
    rules[0][4]._compatible(f)
    if f.is_zero():
        return f
    key = reducer.order.key
    cofactor, apply = f.monoid.cofactor, f.monoid.apply
    p = f.p
    work = dict(f._coeffs)
    # pending monomials sorted by cached order key, largest last, one entry
    # each: steps only yield smaller ones, and one that cancels stays at 0.
    queue = sorted((key(t), t) for t in work)
    out: dict = {}
    while queue:
        t = queue.pop()[1]
        c = work.pop(t)
        if not c:
            continue
        step = steps.get(t)
        if step is None:
            for rule in rules:
                q = cofactor(rule[2], t)
                if q is not None:
                    lt, m = rule[2], p - rule[3]
                    step = (rule, [
                        (u := apply(q, s), key(u), m * cs % p)
                        for s, cs in rule[4]._coeffs.items()
                        if s != lt
                    ])
                    break
            else:
                step = ()
            steps[t] = step
        if not step:
            out[t] = c
            continue
        for u, ku, m in step[1]:
            if u not in work:
                insort(queue, (ku, u))
            work[u] = (work.get(u, 0) + c * m) % p
    return f._ring(f.n, p, out)


def buchberger(generators: Iterable[Polynomial], order: TermOrder) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal of the generators.

    Pairs wait in a heap keyed once by the order key of their lcm: the
    normal strategy, smallest lcm first, ties by index. Each new element h
    passes the Gebauer-Moller update (Gebauer & Moller 1988). B: an old
    pair is dropped when lt(h) divides its lcm and that lcm differs from
    the lcms of both its leads with lt(h); it stays in the heap and is
    skipped when popped. M and F: of the new pairs with h, one per
    divisibility-minimal lcm survives, and none of an lcm where some pair
    has coprime leads. Elements whose lead lt(h) divides form no further
    pairs but still reduce; one Reducer, grown with the basis, reduces
    every S-polynomial. The minimal basis is interreduced in one pass over
    that Reducer, which now holds a Groebner basis: the normal form of a
    tail over it is unique, so each element's lead plus the normal form
    of its tail is the reduced element.

    Graded orders run the loop on terms.packed_monoid with w = bit_length
    (largest generator degree) + 2: reduction never raises a degree, so
    all terms fit while leads stay below degree 2^(w-1); a lead past that
    restarts with 2w. Lex reduction can raise degrees: lex runs on tuples.

    The generators must share one ring. Monomial generators form no
    pairs: the reduced basis of a monomial ideal is its minimal
    monomials, monic, in the same ascending order.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise ParseError("cannot complete a basis from zero generators")
    f = gens[0]
    for g in gens:
        f._compatible(g)
    if all(len(g._coeffs) == 1 for g in gens):
        least = sorted(minimal_terms(t for g in gens for t in g._coeffs), key=order.key)
        return GroebnerBasis(tuple(f._ring(f.n, f.p, {t: 1}) for t in least), order)
    if not order.degree_compatible:
        reduced = _complete([g.monic(order) for g in gens], order)
        return GroebnerBasis(tuple(f._ring(f.n, f.p, c) for c in reduced), order)
    n, p = f.n, f.p
    w = max(g.degree() for g in gens).bit_length() + 2
    while True:
        ring = _packed_ring(n, order.kind, w)
        codec = ring.monoid
        monic = []
        for g in gens:
            packed = codec.pack(g._coeffs)
            inv = inv_mod(packed[max(packed, key=codec.key)], p)
            monic.append(ring._ring(n, p, {t: c * inv for t, c in packed.items()}))
        reduced = _complete(monic, codec, codec.limit)
        if reduced is not None:
            return GroebnerBasis(tuple(f._ring(n, p, codec.unpack(c)) for c in reduced), order)
        w *= 2


@cache
def _packed_ring(n: int, kind: str, w: int) -> type:
    """The Polynomial subclass over terms.packed_monoid(n, kind, w)."""
    codec = packed_monoid(n, kind, w)
    return type("PackedPolynomial", (Polynomial,), {"__slots__": (), "monoid": codec})


def _complete(gens: list, order, limit=None) -> Optional[list]:
    """buchberger's pair loop on monic generators, through their monoid and
    the order's key: the reduced basis as dicts, or None once a lead >= limit."""
    monoid = gens[0].monoid
    key, cofactor, mul, lcm = order.key, monoid.cofactor, monoid.mul, monoid.lcm
    reducer = Reducer((), order)
    # elements, their leads, the indices still forming pairs, pair -> lcm
    basis, leads, alive, pending, heap = [], [], [], {}, []

    def update(h: Polynomial) -> bool:
        k, th = len(basis), h.leading_term(order)
        if limit is not None and th >= limit:
            return False
        basis.append(h)
        reducer.add(h)
        leads.append(th)
        for (i, j), big in list(pending.items()):
            if cofactor(th, big) is not None and big != lcm(leads[i], th) and big != lcm(leads[j], th):
                del pending[i, j]
        classes: dict = {}
        for i in alive:
            classes.setdefault(lcm(leads[i], th), []).append(i)
        for big, members in classes.items():
            if any(c != big and cofactor(c, big) is not None for c in classes):
                continue
            if any(big == mul(leads[i], th) for i in members):
                continue
            pending[members[0], k] = big
            heappush(heap, (key(big), members[0], k))
        alive[:] = [i for i in alive if cofactor(th, leads[i]) is None]
        alive.append(k)
        return True

    if not all(map(update, gens)):
        return None
    while heap:
        _, i, j = heappop(heap)
        if pending.pop((i, j), None) is None:
            continue
        r = normal_form(s_polynomial(basis[i], basis[j], order), reducer)
        if not r.is_zero() and not update(r.monic(order)):
            return None

    # minimal basis; alive leads are distinct: update drops each one h's lead divides
    reduced = []
    for i in sorted(alive, key=lambda i: key(leads[i])):
        g, t = basis[i], leads[i]
        if any(j != i and cofactor(leads[j], t) is not None for j in alive):
            continue
        tail = g._ring(g.n, g.p, {s: c for s, c in g._coeffs.items() if s != t})
        reduced.append({t: 1, **normal_form(tail, reducer)._coeffs})
    return reduced


def s_pair_remainders(basis: list[Polynomial], order: TermOrder) -> Iterator[tuple]:
    """(i, j, remainder) for every pair i < j of the nonzero elements, in
    order: the normal form of their S-polynomial over all of them."""
    elems = [g for g in basis if not g.is_zero()]
    reducer = Reducer(elems, order)
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            yield i, j, normal_form(s_polynomial(elems[i], elems[j], order), reducer)


def gb_degree(basis: GroebnerBasis) -> int:
    """Largest total degree of a basis element."""
    return max(g.degree() for g in basis.elements)


def content_lines(text: str) -> list[str]:
    """The stripped lines of a file, without # comments and blank lines."""
    lines = (ln.split("#", 1)[0].strip() for ln in text.splitlines())
    return [ln for ln in lines if ln]


# the most variables a file header may declare: every term is an n-tuple
_MAX_VARIABLES = 10_000


def header(line: str, kind: str, fields: tuple[str, ...]) -> tuple:
    """Values of a header line ``<kind> <field>=<value> ...`` carrying
    exactly the given fields, in that order. Every value is a nonnegative
    integer except order, which names a term order; n must lie in 1 to
    _MAX_VARIABLES and p must be a prime that validate_prime accepts."""
    parts = line.split()
    pairs = [part.partition("=") for part in parts[1:]]
    if parts[:1] != [kind] or [(k, eq) for k, eq, _ in pairs] != [(f, "=") for f in fields]:
        raise ParseError(f"bad {kind} header: {clip(line)!r}")
    values = []
    for name, _, value in pairs:
        if name != "order" and not value.isdecimal():
            raise ParseError(f"bad {kind} header: {clip(line)!r}")
        try:
            if name == "order":
                values.append(TermOrder(value))
            else:
                values.append(validate_prime(decimal(value)) if name == "p" else decimal(value))
        except ValueError as e:
            raise ParseError(str(e)) from None
        if name == "n" and values[-1] < 1:
            raise ParseError(f"{kind} header needs at least one variable, got n={clip(value)}")
        if name == "n" and values[-1] > _MAX_VARIABLES:
            raise ParseError(f"{kind} header has n={clip(value)}, over the limit of {_MAX_VARIABLES}")
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
