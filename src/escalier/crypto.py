"""Toy ideal-membership cryptosystem and its oracle-driven cryptanalysis.

Keygen completes caller-supplied generators to the private reduced basis,
publishes random ideal combinations of it together with a set of normal
terms, and encryption hides a normal-term message under ideal noise.
Decryption is the canonical form. The attacks only ever touch the
decryption oracle interface, never the private basis: single generators
fall to fake ciphertexts built from their leading terms, and the whole
basis falls to the staircase reconstruction once a degree bound is known.
"""

from __future__ import annotations

import random
from itertools import chain, islice
from math import comb
from typing import Iterable, NamedTuple, Optional

from .errors import MAX_TERMS, ParseError, check_size, clip
from .nc_polynomials import NcPolynomial
from .oracle import CanOracle
from .peeling import covering_basis
from .polynomials import (
    GroebnerBasis,
    Polynomial,
    Reducer,
    buchberger,
    content_lines,
    header,
    normal_form,
    parse_polynomial,
    write_file,
)
from .staircase import StaircaseResult, reconstruct
from .terms import Term, TermOrder, divides, parse_term, term_to_text, terms_of_degree


def _drawer(monoid, n: int, max_degree: int, p: int, rng: random.Random, density: float = 0.6):
    """The one draw rule: the monomials of degree at most max_degree are
    listed once, in of_degree order, and each draw keeps each of them in
    turn with probability density and a coefficient from 1..p-1. Returns
    a function making one draw, as (monomial, coefficient) pairs."""
    monomials = [t for d in range(max_degree + 1) for t in monoid.of_degree(n, d)]
    return lambda: [(t, rng.randrange(1, p)) for t in monomials if rng.random() < density]


def _noise_sum(base: Polynomial, products) -> Polynomial:
    """base + the sum of products (left, g) or (left, g, right), taken one
    at a time: g a polynomial of base's ring, left and right draws. Each
    product's terms go straight into one dict, which makes one polynomial,
    trusted like any product."""
    mul = base.monoid.mul
    out = dict(base.items())
    for terms, g, *right in products:
        base._compatible(g)
        *inner, last = g.items(), *right
        for f in inner:
            terms = [(mul(s, t), cs * ct) for s, cs in terms for t, ct in f]
        for s, cs in terms:
            for t, ct in last:
                u = mul(s, t)
                out[u] = out.get(u, 0) + cs * ct
    return base._ring(base.n, base.p, out)


def check_key_size(n: int, noise_degree: int, factors: int) -> None:
    """Refuse noise of more than 10^6 products: each draw, of degree
    d = noise_degree and up to C(n + d, n) terms, multiplies a factor, and
    factors counts their terms (keygen: count_public times the basis
    support; encrypt: the public support). C(n + d, n) >= n + d, so d
    capped at 10^6 gives the same verdict cheaply."""
    size = comb(n + min(noise_degree, MAX_TERMS), n) * factors
    check_size(size, "the key noise")


class PublicKey(NamedTuple):
    n: int
    p: int
    order: TermOrder
    generators: tuple[Polynomial, ...]
    normal_terms: tuple[Term, ...]
    noise_degree: int
    degree_cap: int


class KeyPair(NamedTuple):
    basis: GroebnerBasis
    public: PublicKey

    def oracle(self) -> CanOracle:
        """A fresh decryption oracle for the private ideal."""
        return CanOracle.commutative(self.basis)


class Ciphertext:
    """A ciphertext and the degree cap it declares, which it never exceeds."""

    __slots__ = ("poly", "degree_cap")

    def __init__(self, poly: Polynomial, degree_cap: int):
        if poly.degree() > degree_cap:
            raise ParseError("ciphertext exceeds its declared degree cap")
        self.poly, self.degree_cap = poly, degree_cap

    def __eq__(self, other) -> bool:
        return type(other) is Ciphertext and (self.poly, self.degree_cap) == (
            other.poly, other.degree_cap)


def keygen(
    generators: Iterable[Polynomial],
    order: TermOrder,
    count_public: int,
    noise_degree: int,
    message_terms: int,
    rng: random.Random,
) -> KeyPair:
    """Private reduced basis of the generators, public ideal combinations,
    and the order-smallest normal terms as the message alphabet.

    Restricted to degree-compatible orders: the published degree cap and
    the normal-term enumeration both ride on total degree. Another order
    is refused before the basis is completed, a key whose noise would be
    too large (check_key_size) before any noise is drawn, and a walk for
    normal terms before a layer takes it past MAX_TERMS terms.
    """
    if count_public < 1 or noise_degree < 0 or message_terms < 0:
        raise ParseError(
            "keygen needs count_public >= 1, noise_degree >= 0 and message_terms >= 0"
        )
    if not order.degree_compatible:
        raise ParseError("key generation needs a degree-compatible order")
    basis = buchberger(generators, order)
    n, p = basis.elements[0].n, basis.elements[0].p
    check_key_size(n, noise_degree, count_public * sum(len(g.items()) for g in basis.elements))
    leads = basis.leading_terms()
    if any(sum(t) == 0 for t in leads):
        raise ParseError("the ideal is the whole ring; nothing can be hidden")

    # normal terms: walk degree layers in order until enough survive;
    # an empty layer means none of higher degree exist either
    normal: list[Term] = []
    walked = d = 0
    while len(normal) < message_terms:
        walked += comb(n + d - 1, d)
        check_size(walked, "the walk for normal terms")
        layer = [t for t in terms_of_degree(n, d) if not any(divides(lt, t) for lt in leads)]
        if d > 0 and not layer:
            raise ParseError(f"only {len(normal)} normal terms exist, fewer than requested")
        normal.extend(sorted(layer, key=order.key))
        d += 1
    normal = normal[:message_terms]

    publics = []
    draw, zero = _drawer(Polynomial.monoid, n, noise_degree, p, rng), Polynomial(n, p)
    while len(publics) < count_public:
        g = _noise_sum(zero, ((draw(), gamma) for gamma in basis.elements))
        if not g.is_zero():
            publics.append(g)

    cap = max(
        max((sum(t) for t in normal), default=0),
        max(g.degree() for g in publics) + noise_degree,
    )
    public = PublicKey(
        n=n, p=p, order=order, generators=tuple(publics), normal_terms=tuple(normal),
        noise_degree=noise_degree, degree_cap=cap,
    )
    return KeyPair(basis=basis, public=public)


def encrypt(pk: PublicKey, message: Polynomial, rng: random.Random) -> Ciphertext:
    """message + sum of random noise multiples of the public polynomials."""
    allowed = set(pk.normal_terms)
    if not message.support() <= allowed:
        raise ParseError("message uses terms outside the public alphabet")
    check_key_size(pk.n, pk.noise_degree, sum(len(g.items()) for g in pk.generators))
    draw = _drawer(Polynomial.monoid, pk.n, pk.noise_degree, pk.p, rng)
    c = _noise_sum(message, ((draw(), g) for g in pk.generators))
    return Ciphertext(poly=c, degree_cap=pk.degree_cap)


def decrypt(oracle: CanOracle, cipher: Ciphertext) -> Polynomial:
    return oracle.can_poly(cipher.poly)


def recover_basis_element(oracle: CanOracle, lead: Term, masking=None) -> Polynomial:
    """Chosen-ciphertext recovery of the reduced-basis element with the
    given leading term.

    The fake ciphertext is the bare term; decryption returns its canonical
    form, so the element is the term minus the answer. A masking
    decomposition asks the same question split across several products
    and sums the answers; the result is identical.
    """
    if not oracle.member_T(lead):
        raise ValueError("term is not a leading term of the hidden ideal")
    fake = Polynomial.term(lead, oracle.p)
    can = oracle.can_poly(fake) if masking is None else oracle.masked_can(lead, masking)
    return fake - can


class AttackResult:
    """The reconstruction, its basis and the key's order; results compare
    on these three, not on the decryptor's reducer, prepared once."""

    __slots__ = ("staircase", "basis", "order", "_reducer")

    def __init__(self, staircase: StaircaseResult, basis: tuple[Polynomial, ...], order: TermOrder):
        self.staircase, self.basis, self.order = staircase, basis, order
        self._reducer = Reducer(basis, order)

    def __eq__(self, other) -> bool:
        return type(other) is AttackResult and (self.staircase, self.basis, self.order) == (
            other.staircase, other.basis, other.order)

    def decrypt(self, poly: Polynomial) -> Polynomial:
        """Reduction by the recovered basis under the key's order,
        prepared once; once the basis is the hidden reduced basis this
        equals the oracle's canonical form. Under another order its leads
        can differ, and so can the remainders."""
        return normal_form(poly, self._reducer)


def attack_commutative(
    oracle: CanOracle, pk: PublicKey, bound: Optional[int] = None
) -> AttackResult:
    """Reconstruct the hidden reduced basis through the decryption oracle
    at the given degree bound (default: the public degree cap) and derive
    a standalone decryptor. A bound below the true basis degree yields a
    decryptor that can disagree with the oracle; that is reported by the
    caller's comparison, not raised."""
    if bound is None:
        bound = pk.degree_cap
    res = reconstruct(oracle, pk.n, bound)
    return AttackResult(staircase=res, basis=res.reduced_basis, order=pk.order)


class NcProbeReport(NamedTuple):
    trials: int
    successes: int
    failures: int
    basis_size: int


def nc_attack_probe(
    oracle: CanOracle,
    public_gens: list[NcPolynomial],
    trials: int,
    rng: random.Random,
) -> NcProbeReport:
    """Empirical check of whether the covering basis built from the public
    polynomials decrypts random two-sided ciphertexts.

    For each trial a message over oracle fixed points is hidden under
    noise sum(p_j * g_j * q_j) and reduced by the covering basis; the
    tally records agreement without asserting either outcome. A negative
    count, and more than 10^6 trials, about 30 s of work, are refused
    before any query.
    """
    check_size(trials, "the probe", "trials")
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    n, p = oracle.n, oracle.p
    basis = covering_basis(oracle, public_gens)
    reducer = Reducer(basis, NcPolynomial.monoid.default_order)

    # message alphabet: the first four words of length at most 2 fixed
    # by the oracle, shortest first
    words = chain.from_iterable(NcPolynomial.monoid.of_degree(n, d) for d in range(3))
    alphabet = list(islice((w for w in words if not oracle.member_T(w)), 4))

    successes = 0
    draw = _drawer(NcPolynomial.monoid, n, 1, p, rng, 0.4)
    for _ in range(trials):
        msg = NcPolynomial._ring(
            n, p, {w: rng.randrange(p) for w in alphabet if rng.random() < 0.7}
        )
        c = _noise_sum(msg, ((draw(), g, draw()) for g in public_gens))
        if normal_form(c, reducer) == msg:
            successes += 1
    return NcProbeReport(
        trials=trials, successes=successes, failures=trials - successes, basis_size=len(basis)
    )


# --- key file formats ----------------------------------------------------


def render_public_key(pk: PublicKey) -> str:
    fields = f"n={pk.n} p={pk.p} order={pk.order.kind} dbound={pk.noise_degree} delta={pk.degree_cap}"
    gens = (f"g {g.to_text(pk.order)}" for g in pk.generators)
    terms = (f"t {term_to_text(t)}" for t in pk.normal_terms)
    return write_file(f"publickey {fields}", chain(gens, terms))


def parse_public_key(text: str) -> PublicKey:
    (n, p, order, dbound, delta), body = header(
        text, "publickey", ("n", "p", "order", "dbound", "delta")
    )
    gens = []
    terms = []
    for ln in body:
        if ln.startswith("g "):
            gens.append(parse_polynomial(ln[2:], n, p))
        elif ln.startswith("t "):
            terms.append(parse_term(ln[2:], n))
        else:
            raise ParseError(f"bad public key line: {clip(ln)!r}")
    if not gens:
        raise ParseError("public key has no generators")
    return PublicKey(
        n=n, p=p, order=order, generators=tuple(gens), normal_terms=tuple(terms),
        noise_degree=dbound, degree_cap=delta,
    )


def render_ciphertext(c: Ciphertext, n: int, p: int) -> str:
    return write_file(f"cipher n={n} p={p} delta={c.degree_cap}", [c.poly.to_text()])


def parse_ciphertext(text: str) -> Ciphertext:
    # lines are counted before the header is read, so an empty file gets this refusal
    if len(content_lines(text)) != 2:
        raise ParseError("ciphertext file needs a header and one polynomial")
    (n, p, cap), (line,) = header(text, "cipher", ("n", "p", "delta"))
    return Ciphertext(poly=parse_polynomial(line, n, p), degree_cap=cap)
