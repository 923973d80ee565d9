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
from dataclasses import dataclass, field
from itertools import chain
from math import comb
from typing import Iterable, Optional, Union

from .errors import ParseError
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
)
from .staircase import _MAX_BOX_TERMS, StaircaseResult, reconstruct
from .terms import Term, TermOrder, divides, parse_term, term_to_text, terms_of_degree


def random_polynomial(n: int, p: int, max_degree: int, rng: random.Random) -> Polynomial:
    """Random polynomial of total degree at most max_degree, each term
    present with probability 0.6; may be zero. Its terms come from
    terms_of_degree and are trusted, so none is validated again."""
    coeffs = {}
    for t in chain.from_iterable(terms_of_degree(n, d) for d in range(max_degree + 1)):
        if rng.random() < 0.6:
            coeffs[t] = rng.randrange(1, p)
    return Polynomial._ring(n, p, coeffs)


def check_key_size(n: int, noise_degree: int, basis_size: int, count_public: int) -> None:
    """Refuse a key whose noise terms would exceed _MAX_BOX_TERMS: each
    public polynomial draws one random polynomial of degree noise_degree,
    C(n + d, n) terms, per basis element."""
    size = comb(n + noise_degree, n) * basis_size * count_public
    if size > _MAX_BOX_TERMS:
        raise ValueError(f"key noise of {size} terms exceeds the limit of {_MAX_BOX_TERMS}")


@dataclass(frozen=True)
class PublicKey:
    n: int
    p: int
    order: TermOrder
    generators: tuple[Polynomial, ...]
    normal_terms: tuple[Term, ...]
    noise_degree: int
    degree_cap: int


@dataclass(frozen=True)
class KeyPair:
    basis: GroebnerBasis
    public: PublicKey

    def oracle(self) -> CanOracle:
        """A fresh decryption oracle for the private ideal."""
        return CanOracle.commutative(self.basis)


@dataclass(frozen=True)
class Ciphertext:
    poly: Polynomial
    degree_cap: int

    def __post_init__(self):
        if self.poly.degree() > self.degree_cap:
            raise ValueError("ciphertext exceeds its declared degree cap")


def keygen(
    generators: Union[GroebnerBasis, Iterable[Polynomial]],
    order: TermOrder,
    count_public: int,
    noise_degree: int,
    message_terms: int,
    rng: random.Random,
) -> KeyPair:
    """Private reduced basis, public ideal combinations, and the
    order-smallest normal terms as the message alphabet.

    Restricted to degree-compatible orders: the published degree cap and
    the normal-term enumeration both ride on total degree. A key whose
    noise would be too large (check_key_size) is refused before any noise
    is drawn.
    """
    if count_public < 1 or noise_degree < 0 or message_terms < 0:
        raise ValueError(
            "keygen needs count_public >= 1, noise_degree >= 0 and message_terms >= 0"
        )
    if isinstance(generators, GroebnerBasis):
        basis, order = generators, generators.order
    else:
        basis = buchberger(list(generators), order)
    if not order.degree_compatible:
        raise ValueError("key generation needs a degree-compatible order")
    n, p = basis.elements[0].n, basis.elements[0].p
    check_key_size(n, noise_degree, len(basis.elements), count_public)
    leads = basis.leading_terms()
    if any(sum(t) == 0 for t in leads):
        raise ValueError("the ideal is the whole ring; nothing can be hidden")

    # normal terms: walk degree layers in order until enough survive;
    # an empty layer means none of higher degree exist either
    normal: list[Term] = []
    d = 0
    while len(normal) < message_terms:
        layer = [
            t
            for t in sorted(terms_of_degree(n, d), key=order.key)
            if not any(divides(lt, t) for lt in leads)
        ]
        if d > 0 and not layer:
            raise ValueError(
                f"only {len(normal)} normal terms exist, {message_terms} requested"
            )
        normal.extend(layer)
        d += 1
    normal = normal[:message_terms]

    publics = []
    while len(publics) < count_public:
        g = Polynomial.zero(n, p)
        for gamma in basis.elements:
            g = g + random_polynomial(n, p, noise_degree, rng) * gamma
        if not g.is_zero():
            publics.append(g)

    cap = max(
        max((sum(t) for t in normal), default=0),
        max(g.degree() for g in publics) + noise_degree,
    )
    public = PublicKey(
        n=n,
        p=p,
        order=order,
        generators=tuple(publics),
        normal_terms=tuple(normal),
        noise_degree=noise_degree,
        degree_cap=cap,
    )
    return KeyPair(basis=basis, public=public)


def encrypt(pk: PublicKey, message: Polynomial, rng: random.Random) -> Ciphertext:
    """message + sum of random noise multiples of the public polynomials."""
    allowed = set(pk.normal_terms)
    if not message.support() <= allowed:
        raise ValueError("message uses terms outside the public alphabet")
    c = message
    for g in pk.generators:
        c = c + random_polynomial(pk.n, pk.p, pk.noise_degree, rng) * g
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
    if masking is not None:
        can = oracle.masked_can(lead, masking)
    else:
        can = oracle.can_poly(Polynomial.term(lead, oracle.p))
    return Polynomial.term(lead, oracle.p) - can


@dataclass(frozen=True)
class AttackResult:
    staircase: StaircaseResult
    basis: tuple[Polynomial, ...]
    order: TermOrder
    _reducer: Reducer = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_reducer", Reducer(self.basis, self.order))

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


def _random_nc_polynomial(
    n: int, p: int, max_len: int, rng: random.Random
) -> NcPolynomial:
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (i,) for w in frontier for i in range(1, n + 1)]
        words.extend(frontier)
    coeffs = {}
    for w in words:
        if rng.random() < 0.4:
            coeffs[w] = rng.randrange(1, p)
    return NcPolynomial(n, p, coeffs)


@dataclass(frozen=True)
class NcProbeReport:
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
    tally records agreement without asserting either outcome.
    """
    n, p = oracle.n, oracle.p
    basis = covering_basis(oracle, public_gens)
    reducer = Reducer(basis, NcPolynomial.monoid.default_order)

    # message alphabet: short words fixed by the oracle
    alphabet: list = []
    frontier = [()]
    for _ in range(3):
        for w in list(frontier):
            if len(alphabet) >= 4:
                break
            if not oracle.member_T(w):
                alphabet.append(w)
        frontier = [w + (i,) for w in frontier for i in range(1, n + 1)]
        if len(alphabet) >= 4:
            break

    successes = failures = 0
    for _ in range(trials):
        msg = NcPolynomial(
            n, p, {w: rng.randrange(p) for w in alphabet if rng.random() < 0.7}
        )
        c = msg
        for g in public_gens:
            left = _random_nc_polynomial(n, p, 1, rng)
            right = _random_nc_polynomial(n, p, 1, rng)
            c = c + left * g * right
        if normal_form(c, reducer) == msg:
            successes += 1
        else:
            failures += 1
    return NcProbeReport(
        trials=trials,
        successes=successes,
        failures=failures,
        basis_size=len(basis),
    )


# --- key file formats ----------------------------------------------------


def render_public_key(pk: PublicKey) -> str:
    lines = [
        f"publickey n={pk.n} p={pk.p} order={pk.order.kind}"
        f" dbound={pk.noise_degree} delta={pk.degree_cap}"
    ]
    lines.extend(f"g {g.to_text(pk.order)}" for g in pk.generators)
    lines.extend(f"t {term_to_text(t)}" for t in pk.normal_terms)
    return "\n".join(lines) + "\n"


def parse_public_key(text: str) -> PublicKey:
    head, *body = content_lines(text) or [""]
    n, p, order, dbound, delta = header(
        head, "publickey", ("n", "p", "order", "dbound", "delta")
    )
    gens = []
    terms = []
    for ln in body:
        if ln.startswith("g "):
            gens.append(parse_polynomial(ln[2:], n, p))
        elif ln.startswith("t "):
            terms.append(parse_term(ln[2:], n))
        else:
            raise ParseError(f"bad public key line: {ln!r}")
    if not gens:
        raise ParseError("public key has no generators")
    return PublicKey(
        n=n,
        p=p,
        order=order,
        generators=tuple(gens),
        normal_terms=tuple(terms),
        noise_degree=dbound,
        degree_cap=delta,
    )


def render_ciphertext(c: Ciphertext, n: int, p: int) -> str:
    return f"cipher n={n} p={p} delta={c.degree_cap}\n{c.poly.to_text()}\n"


def parse_ciphertext(text: str) -> Ciphertext:
    lines = content_lines(text)
    if len(lines) != 2:
        raise ParseError("ciphertext file needs a header and one polynomial")
    n, p, cap = header(lines[0], "cipher", ("n", "p", "delta"))
    poly = parse_polynomial(lines[1], n, p)
    if poly.degree() > cap:
        raise ParseError("ciphertext exceeds its declared degree cap")
    return Ciphertext(poly=poly, degree_cap=cap)
