"""Shared builders for the test suite."""

import random
from bisect import bisect, insort
from heapq import heappop, heappush
from itertools import chain, islice, repeat
from operator import le

from hypothesis import strategies as st

from escalier import CanOracle, NcPolynomial, Polynomial, TermOrder, parse_polynomial
from escalier.polynomials import Reducer, normal_form, s_polynomial
from escalier.terms import minimal_terms

P = 32003
DEGLEX = TermOrder("deglex")
DEGREVLEX = TermOrder("degrevlex")
LEX = TermOrder("lex")


def poly(text: str, n: int = 2, p: int = P) -> Polynomial:
    return parse_polynomial(text, n, p)


def ncpoly(text: str, n: int = 2, p: int = P) -> NcPolynomial:
    return parse_polynomial(text, n, p, NcPolynomial)


# non-monomial bases that resolve every ambiguity, as text in n letters
FIXED = [
    (2, ["X1*X2 - 1"]),
    (1, ["X1*X1 - 1"]),
    (2, ["X2*X1 - X1*X2"]),
    (2, ["X1*X2 - 1", "X2*X1 - 1"]),
    (2, ["X2*X1 - X1"]),
    (3, ["X2*X1*X2 - X2"]),
]


@st.composite
def free_instances(draw):
    """A free-algebra basis, monomial or one of FIXED, and 1 to 3 public
    members: sums of sandwiched basis elements, which may be zero."""
    p = draw(st.sampled_from([2, 7, 32003]))
    if draw(st.booleans()):
        n = draw(st.integers(2, 3))
        word = st.lists(st.integers(1, n), min_size=2, max_size=3).map(tuple)
        words = draw(st.lists(word, min_size=1, max_size=3, unique=True))
        basis = [NcPolynomial(n, p, {w: 1}) for w in words]
    else:
        n, texts = draw(st.sampled_from(FIXED))
        basis = [parse_polynomial(t, n, p, NcPolynomial) for t in texts]
    side = st.lists(st.integers(1, n), max_size=2).map(tuple)
    publics = []
    for _ in range(draw(st.integers(1, 3))):
        g = NcPolynomial(n, p)
        for b in basis:
            c = draw(st.integers(1, p - 1))
            g = g + b.sandwich(draw(side), draw(side)).scale(c)
        publics.append(g)
    return basis, publics


def compare(order, a, b) -> int:
    """-1, 0 or 1 as a precedes, equals or follows b under order."""
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def monomial_oracle(gens, n, p=P, order=DEGLEX) -> CanOracle:
    polys = [Polynomial.term(t, p) for t in gens]
    return CanOracle.commutative(polys, order, n=n, p=p)


def zero_oracle(n, p=P, order=DEGLEX) -> CanOracle:
    return CanOracle.commutative([], order, n=n, p=p)


def is_groebner(basis, order) -> bool:
    """Reference Groebner test: every pairwise S-polynomial of the nonzero
    elements reduces to zero over them (the check verify-gb prints pair
    by pair)."""
    elems = [g for g in basis if not g.is_zero()]
    reducer = Reducer(elems, order)
    return all(
        normal_form(s_polynomial(f, g, order), reducer).is_zero()
        for i, f in enumerate(elems)
        for g in elems[i + 1 :]
    )


def random_term(rng: random.Random, n: int, cap: int):
    return tuple(rng.randrange(0, cap + 1) for _ in range(n))


def random_monomial_ideal(rng: random.Random, n: int, cap: int, kmax: int = 5):
    """Nonempty divisibility-minimal set of nonunit terms inside the cap
    box, from at most kmax distinct draws and no more than the box holds."""
    nonunit = (cap + 1) ** n - 1
    if nonunit < 1:
        raise ValueError(f"the box [0, {cap}]^{n} holds no nonunit term")
    k = rng.randrange(1, min(kmax, nonunit) + 1)
    gens = set()
    while len(gens) < k:
        t = random_term(rng, n, cap)
        if sum(t) > 0:
            gens.add(t)
    return minimal_terms(gens)


def random_poly(rng: random.Random, n: int, p: int = P, deg: int = 2, terms: int = 4):
    coeffs = {}
    for _ in range(terms):
        t = tuple(rng.randrange(0, deg + 1) for _ in range(n))
        if sum(t) <= deg + 1:
            coeffs[t] = rng.randrange(1, p)
    return Polynomial(n, p, coeffs)


def reference_peel(oracle, start):
    """The head/body form of peel, kept as its reference: phase one drops
    leftmost letters while the remainder stays inside; phase two drops
    rightmost letters of the body while the kept head plus the shortened
    body stays inside."""
    t = tuple(start)
    if not t:
        raise ValueError("cannot peel the empty word")
    if not oracle.member_T(t):
        raise ValueError("peeling must start inside the leading-word ideal")
    while len(t) > 1:
        rest = t[1:]
        if oracle.member_T(rest):
            t = rest
        else:
            break
    if len(t) == 1:
        return t
    head, body = t[0], t[1:]
    while body:
        trunk = body[:-1]
        if oracle.member_T((head,) + trunk):
            body = trunk
        else:
            return (head,) + body
    return (head,)


def reference_covering_basis(oracle, public_gens):
    """covering_basis as the library wrote it before peel found its own
    start, kept as the reference for its elements and queries: each round
    scans the candidates for one inside, and peels it with reference_peel,
    which asks that start again."""
    from escalier.peeling import candidate_terms
    from escalier.polynomials import Reducer, normal_form

    reducer = Reducer((), NcPolynomial.monoid.default_order)
    leads = set()
    while True:
        residual = [normal_form(g, reducer) for g in public_gens]
        target = next((r for r in residual if not r.is_zero()), None)
        if target is None:
            return reducer.elements
        start = next((w for w in candidate_terms(target) if oracle.member_T(w)), None)
        if start is None:
            raise ValueError("public set inconsistent with oracle: element outside the ideal")
        w = reference_peel(oracle, start)
        if w in leads:
            raise RuntimeError("peeled a generator that was already reduced away")
        leads.add(w)
        reducer.add(NcPolynomial.term(w, oracle.n, oracle.p) - oracle.can_term(w))


def reference_corner_generators(oracle, n, bound, binary):
    """Corner splitting as the library wrote it before its heap of pending
    corners and its inline lowering, kept as the reference for the query
    sequence: the smallest unasked corner is found by rebuilding the set
    each turn, and each lowering probe runs through the memo closure."""
    from escalier.staircase import _scan_min_true

    gens = set()
    corners = {(bound,) * n}
    known = {}

    def member(t):
        inside = known.get(t)
        if inside is None:
            inside = known[t] = oracle.member_T(t)
        return inside

    # a known corner is confirmed outside: inside ones are split away
    while pending := corners - known.keys():
        c = min(pending)
        if not member(c):
            continue
        # lower each coordinate in turn to its least inside value; the
        # current value is known inside, so reaching it costs no query
        g = c
        for i in range(n):
            head, tail = g[:i], g[i + 1 :]
            lowered = lambda v, head=head, tail=tail: member(head + (v,) + tail)
            g = head + (_scan_min_true(lowered, 0, g[i], binary),) + tail
        gens.add(g)
        hit = {d for d in corners if all(map(le, g, d))}  # g divides d
        split = {d[:i] + (e - 1,) + d[i + 1 :] for d in hit for i, e in enumerate(g) if e}
        corners -= hit
        # untouched corners stay maximal; a split one may fall below another,
        # which then comes after it in tuple order
        above = sorted(corners | split)
        corners |= {
            d for d in split
            if not any(map(all, map(map, repeat(le), repeat(d), above[bisect(above, d):])))
        }
    return gens


def reference_normal_form(f, basis, order):
    """normal_form without a Reducer: every call re-sorts the basis and
    recomputes every step. The same strategy as the library's loop, kept
    here as its memo-free reference."""
    from escalier.field import inv_mod

    if f.is_zero():
        return f
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
    work = dict(f.items())
    queue = sorted((key(t), t) for t in work)
    out = {}
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
        for s, cs in g.items():
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


def reference_buchberger(generators, order):
    """buchberger as the library wrote it before its graded pair loop ran
    on packed terms, kept as the reference for the element tuples: one loop
    on exponent tuples under every order, through terms.divides and
    terms.lcm."""
    from escalier.errors import ParseError
    from escalier.polynomials import GroebnerBasis, Reducer, normal_form, s_polynomial
    from escalier.terms import TermMonoid, divides, lcm

    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise ParseError("cannot complete a basis from zero generators")
    key, f = order.key, gens[0]
    for g in gens:
        f._compatible(g)
    if all(len(g._coeffs) == 1 for g in gens):
        least = sorted(minimal_terms(t for g in gens for t in g._coeffs), key=key)
        return GroebnerBasis(tuple(f._ring(f.n, f.p, {t: 1}) for t in least), order)
    gens = [g.monic(order) for g in gens]
    reducer = Reducer((), order)
    basis = []
    leads = []
    alive = []
    pending = {}
    heap: list = []

    def update(h):
        k, th = len(basis), h.leading_term(order)
        basis.append(h)
        reducer.add(h)
        leads.append(th)
        for (i, j), big in list(pending.items()):
            if divides(th, big) and big != lcm(leads[i], th) and big != lcm(leads[j], th):
                del pending[i, j]
        classes = {}
        for i in alive:
            classes.setdefault(lcm(leads[i], th), []).append(i)
        for big, members in classes.items():
            if any(c != big and divides(c, big) for c in classes):
                continue
            if any(big == TermMonoid.mul(leads[i], th) for i in members):
                continue
            pending[members[0], k] = big
            heappush(heap, (key(big), members[0], k))
        alive[:] = [i for i in alive if not divides(th, leads[i])]
        alive.append(k)

    for g in gens:
        update(g)
    while heap:
        _, i, j = heappop(heap)
        if pending.pop((i, j), None) is None:
            continue
        r = normal_form(s_polynomial(basis[i], basis[j], order), reducer)
        if not r.is_zero():
            update(r.monic(order))

    # minimal basis; alive leads are distinct: update drops each one h's lead divides
    least = minimal_terms(leads[i] for i in alive)
    reduced = []
    for i in sorted((i for i in alive if leads[i] in least), key=lambda i: key(leads[i])):
        g, t = basis[i], leads[i]
        tail = g._ring(g.n, g.p, {s: c for s, c in g._coeffs.items() if s != t})
        reduced.append(g._ring(g.n, g.p, {t: 1, **normal_form(tail, reducer)._coeffs}))
    return GroebnerBasis(tuple(reduced), order)


def reference_nc_probe(oracle, public_gens, trials, rng, ciphertexts=None):
    """nc_attack_probe as the library wrote it before its noise was summed
    in one dict, kept as the reference for its report, its ciphertexts
    (appended to ciphertexts when given) and its draws: each noise factor
    a polynomial of its own, drawn word by word, then multiplied and added
    polynomial by polynomial."""
    from escalier.crypto import NcProbeReport
    from escalier.peeling import covering_basis
    from escalier.polynomials import Reducer, normal_form
    from escalier.words import WordMonoid

    n, p = oracle.n, oracle.p
    basis = covering_basis(oracle, public_gens)
    reducer = Reducer(basis, WordMonoid.default_order)
    words = chain.from_iterable(WordMonoid.of_degree(n, d) for d in range(3))
    alphabet = list(islice((w for w in words if not oracle.member_T(w)), 4))

    def noise():
        coeffs = {}
        for d in range(2):
            for w in WordMonoid.of_degree(n, d):
                if rng.random() < 0.4:
                    coeffs[w] = rng.randrange(1, p)
        return NcPolynomial(n, p, coeffs)

    successes = 0
    for _ in range(trials):
        msg = NcPolynomial(n, p, {w: rng.randrange(p) for w in alphabet if rng.random() < 0.7})
        c = msg
        for g in public_gens:
            left = noise()
            right = noise()
            c = c + left * g * right
        if ciphertexts is not None:
            ciphertexts.append(c)
        if normal_form(c, reducer) == msg:
            successes += 1
    return NcProbeReport(trials, successes, trials - successes, len(basis))
