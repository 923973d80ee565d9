"""The four seeded workloads of the escalier benchmark.

Each workload turns a seed into a fixed list of operations (ops), runs one
op through the public library API, and, outside the timed region, checks
the op's output and takes its fingerprint. Library functions are always reached through their
module (``lib.staircase.reconstruct``), never through a name bound at
import time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import combinations_with_replacement
from pathlib import Path

import reference as ref

P = ref.P


@dataclass
class Outcome:
    value: object  # the library's outputs, inspected by check() and fingerprint()
    queries: int   # oracle ledger queries the op spent


class Workload:
    """A seeded op list. In the untraced run every op runs RUNS times, one
    run per pass over the list; runs() may give an op fewer, a divisor of
    RUNS, and those runs are spread evenly over the passes. Every run of
    an op is a latency sample."""

    RUNS = 10

    def runs(self, op) -> int:
        return self.RUNS


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _dict(poly) -> dict:
    return dict(poly.items())


def _monomial_set(n: int, d: int) -> list:
    out = []
    for combo in combinations_with_replacement(range(n), d):
        t = [0] * n
        for i in combo:
            t[i] += 1
        out.append(tuple(t))
    return out


def _minimal(terms) -> frozenset:
    pool = sorted(set(terms), key=lambda t: (sum(t), t))
    kept: list = []
    for t in pool:
        if not any(all(x <= y for x, y in zip(m, t)) for m in kept):
            kept.append(t)
    return frozenset(kept)


# --- recon-staircase ----------------------------------------------------------


@dataclass
class ReconIdeal:
    n: int
    bound: int
    gens: frozenset
    polys: list
    binary: bool


class ReconStaircase(Workload):
    """CanOracle.commutative on seeded monomial ideals, then reconstruct.
    One op is a round: a sparse and a dense ideal for each n = 2..6. In a
    round one of each pair runs with binary=False and the other with
    binary=True, and the next round swaps them. Single reconstructions
    differ in cost by two orders of magnitude; rounds of one fixed make-up
    are the unit whose percentiles stay put from seed to seed.

    Why: nearly all the work is oracle.member_T and staircase, plus
    terms.divides, with almost no polynomial arithmetic. Output-sensitive
    reconstruction shows here; the algebra-core merge and the Buchberger
    pair queue must not move it. Dense ideals at n >= 4 are in the mix so
    the cost of slicing on dense staircases shows in staircase.box_frac.
    """

    name = "recon-staircase"
    # bounds shrink as n grows so that every n costs the same order of work
    BOUNDS = {2: 12, 3: 6, 4: 4, 5: 3, 6: 2}
    ROUNDS = 100  # ops per pass
    RUNS = 4      # a round takes 30-50 ms

    def build(self, lib, rng: random.Random) -> list:
        """-> rounds, each a list of ReconIdeal."""
        # the in-box monomials of each total degree a dense ideal can take
        slices = {
            (n, degree): [t for t in _monomial_set(n, degree) if max(t) <= bound]
            for n, bound in self.BOUNDS.items()
            for degree in range(bound, bound + 3)
        }
        ops = []
        for r in range(self.ROUNDS):
            ideals = []
            for n, bound in self.BOUNDS.items():
                for dense in (False, True):
                    gens = self._ideal(rng, n, bound, dense, slices)
                    polys = [lib.polynomials.Polynomial.term(t, P) for t in sorted(gens)]
                    ideals.append(ReconIdeal(n, bound, gens, polys, binary=dense != (r % 2 == 1)))
            ops.append(ideals)
        return ops

    @staticmethod
    def _ideal(rng, n, bound, dense, slices) -> frozenset:
        if not dense:
            # sparse: 1 to 3 random generators anywhere in the box
            k = rng.randint(1, 3)
            gens: set = set()
            while len(gens) < k:
                t = tuple(rng.randint(0, bound) for _ in range(n))
                if sum(t) > 0:
                    gens.add(t)
            return _minimal(gens)
        # dense: 6 to 10 generators of one total degree, so none divides
        # another and the staircase has many corners in every slice
        k = rng.randint(6, 10)
        return frozenset(rng.sample(slices[n, rng.randint(bound, bound + 2)], k))

    def run(self, lib, op: list) -> Outcome:
        order = lib.terms.TermOrder("deglex")
        results = []
        for ideal in op:
            oracle = lib.oracle.CanOracle.commutative(ideal.polys, order, n=ideal.n, p=P)
            res = lib.staircase.reconstruct(oracle, ideal.n, ideal.bound, binary=ideal.binary)
            results.append((res, oracle.queries))
        return Outcome(results, sum(q for _, q in results))

    def fingerprint(self, lib, op: list, out: Outcome) -> str:
        return _digest([(sorted(res.generators), res.queries_used, q) for res, q in out.value])

    def check(self, lib, op: list, out: Outcome) -> list:
        problems = []
        for i, (ideal, (res, ledger)) in enumerate(zip(op, out.value)):
            if res.generators != ideal.gens:
                problems.append(f"ideal {i}: generators differ from the known in-box minimal generators")
            if res.queries_used != ledger:
                problems.append(f"ideal {i}: queries_used {res.queries_used} != ledger delta {ledger}")
            basis = [_dict(g) for g in res.reduced_basis]
            if basis != [{t: 1} for t in sorted(ideal.gens, key=lambda t: (sum(t), t))]:
                problems.append(f"ideal {i}: reduced basis of a monomial ideal is not its generators")
        return problems


# --- groebner-complete --------------------------------------------------------


def cyclic(n: int) -> list:
    """cyclic-n: the elementary cyclic sums of degree 1..n-1, and x1...xn - 1."""
    gens = []
    for d in range(1, n):
        f: dict = {}
        for s in range(n):
            t = [0] * n
            for j in range(d):
                t[(s + j) % n] += 1
            f[tuple(t)] = f.get(tuple(t), 0) + 1
        gens.append(f)
    gens.append({(1,) * n: 1, (0,) * n: P - 1})
    return gens


def katsura(n: int) -> list:
    """katsura-n in n variables u0..u(n-1) = X1..Xn, with u(-i) = u(i)."""

    def u(i):
        i = abs(i)
        return None if i >= n else tuple(1 if k == i else 0 for k in range(n))

    def add(f, t, c):
        f[t] = (f.get(t, 0) + c) % P

    first: dict = {}
    for i in range(-n + 1, n):
        if u(i):
            add(first, u(i), 1)
    add(first, (0,) * n, -1)
    gens = [first]
    for m in range(n - 1):
        f: dict = {}
        for i in range(-n + 1, n):
            a, b = u(i), u(m - i)
            if a and b:
                add(f, tuple(x + y for x, y in zip(a, b)), 1)
        add(f, u(m), -1)
        gens.append({t: c for t, c in f.items() if c})
    return gens


def random_dense(rng, n: int, count: int, degree: int) -> list:
    """count polynomials with every term of degree <= degree present."""
    terms = [t for d in range(degree + 1) for t in _monomial_set(n, d)]
    return [{t: rng.randrange(1, P) for t in terms} for _ in range(count)]


@dataclass
class GroebnerOp:
    label: str
    kind: str
    inputs: list      # dict polynomials, for the reference checks
    polys: list       # the same as library polynomials
    n: int


class GroebnerComplete(Workload):
    """buchberger under degrevlex and deglex on cyclic-4/5, katsura-4/5 and
    seeded random dense ideals in 3 and 4 variables.

    Why: most self time is in terms (TermOrder.key called from the pair
    selection) and the rest in polynomials; no oracle or reconstruction
    runs. The Buchberger pair queue shows here and output-sensitive
    reconstruction must not move it. cyclic-5 under degrevlex is the
    instance where pair selection dominates. It runs under degrevlex only
    (deglex takes several times longer), and LONG_RUNS times against the
    short instances' RUNS: its run takes about a quarter of the timed
    seconds, so it shows in throughput_ops without swamping the run,
    while the percentiles are set by the smaller instances.
    """

    name = "groebner-complete"
    # random instances per pass, (variables, order) -> count. The counts
    # put the median inside the 3-variable degrevlex group and the 90th
    # percentile inside the 3-variable deglex group, not on the edge
    # between two groups, where it would jump from seed to seed.
    RANDOM = {(3, "degrevlex"): 60, (3, "deglex"): 36, (4, "degrevlex"): 1, (4, "deglex"): 1}
    RUNS = 6
    # the instances that take 0.1-3 s: one run of all of them takes about 3 s
    LONG = ("cyclic-5", "katsura-5", "random-4-")
    LONG_RUNS = 1

    def runs(self, op) -> int:
        return self.LONG_RUNS if op.label.startswith(self.LONG) else self.RUNS

    def build(self, lib, rng: random.Random) -> list:
        # canonical-byte digests of the fixed instances, recorded when the
        # benchmark was written and cross-checked against sympy then
        self.digests = json.loads((Path(__file__).parent / "digests.json").read_text())
        specs = [("cyclic-5", "degrevlex", cyclic(5), 5)]
        for kind in ("degrevlex", "deglex"):
            specs.append(("cyclic-4", kind, cyclic(4), 4))
            specs.append(("katsura-4", kind, katsura(4), 4))
            specs.append(("katsura-5", kind, katsura(5), 5))
        for (n, kind), count in self.RANDOM.items():
            for i in range(count):
                # n quadrics in n variables
                specs.append((f"random-{n}-{i}", kind, random_dense(rng, n, n, 2), n))
        Polynomial = lib.polynomials.Polynomial
        ops = [
            GroebnerOp(label, kind, gens, [Polynomial(n, P, g) for g in gens], n)
            for label, kind, gens, n in specs
        ]
        rng.shuffle(ops)
        return ops

    def run(self, lib, op: GroebnerOp) -> Outcome:
        order = lib.terms.TermOrder(op.kind)
        return Outcome(lib.polynomials.buchberger(op.polys, order), 0)

    def fingerprint(self, lib, op: GroebnerOp, out: Outcome) -> str:
        """sha256 of the basis's canonical bytes."""
        order = lib.terms.TermOrder(op.kind)
        text = lib.polynomials.render_ideal_file(out.value.elements, order, op.n, P)
        return hashlib.sha256(text.encode()).hexdigest()

    def check(self, lib, op: GroebnerOp, out: Outcome) -> list:
        gb = out.value
        key = ref.term_key(op.kind)
        basis = [_dict(g) for g in gb.elements]
        problems = ref.groebner_problems(basis, op.inputs, key)
        recorded = self.digests.get(f"{op.label}/{op.kind}")
        if recorded is not None:
            if self.fingerprint(lib, op, out) != recorded:
                problems.append("canonical bytes differ from the recorded digest")
        else:
            expected = ref.reduced_groebner(op.inputs, key)
            if {frozenset(g.items()) for g in basis} != {frozenset(g.items()) for g in expected}:
                problems.append("basis differs from the reference reduced basis")
        return problems


# --- crypto-session -----------------------------------------------------------


@dataclass
class CryptoOp:
    n: int
    kind: str
    polys: list
    key_seed: int
    enc_seed: int
    messages: list    # coefficient lists, one per message, over the 4 normal terms
    mask: int
    check_seed: int


class CryptoSession(Workload):
    """One attacker session on a seeded 2- or 3-variable ring: keygen and
    encrypt a batch (write side), then against one long-lived oracle:
    decrypt each message, recover every basis element plain and masked,
    attack_commutative at the public cap, and one forge pair with its
    bound demonstration.

    Why: it uses oracle and polynomials differently from the first two
    workloads (can_term/can_poly fan-out into full normal forms with tails
    instead of member_T; multiplication beside reduction), so a gain for
    one use that costs the other shows.
    """

    name = "crypto-session"
    SESSIONS = 120  # per pass
    MESSAGES = 4    # per session
    PUBLIC = 2      # public ideal members
    NOISE = 1       # noise degree
    TERMS = 4       # message alphabet size

    def build(self, lib, rng: random.Random) -> list:
        parse = lib.polynomials.parse_polynomial
        ops = []
        for i in range(self.SESSIONS):
            kind = ("deglex", "degrevlex")[i % 2]
            a, b, c, d = (rng.randrange(1, P) for _ in range(4))
            # two thirds of the sessions are on two variables: the median
            # falls inside their group and the 90th percentile inside the
            # slower three-variable group, away from the edge between them
            if i % 3 < 2:
                # the acceptance family: X1^d - u*X2 - w, X2^e - v
                n = 2
                texts = [
                    f"X1^{rng.randint(2, 3)} + {a}*X2 + {b}",
                    f"X2^{rng.randint(2, 3)} + {c}",
                ]
            else:
                # triangular three-variable ring with linear tails
                n = 3
                texts = [
                    f"X1^2 + {a}*X2 + {b}",
                    f"X2^2 + {c}*X3 + {d}",
                    f"X3^2 + {rng.randrange(1, P)}*X1 + {rng.randrange(1, P)}",
                ]
            polys = [parse(t, n, P) for t in texts]
            messages = [
                [rng.randrange(P) for _ in range(self.TERMS)] for _ in range(self.MESSAGES)
            ]
            ops.append(
                CryptoOp(
                    n, kind, polys, rng.randrange(2**31), rng.randrange(2**31),
                    messages, rng.randrange(2, P), rng.randrange(2**31),
                )
            )
        return ops

    def run(self, lib, op: CryptoOp) -> Outcome:
        crypto, forge, poly = lib.crypto, lib.forge, lib.polynomials
        order = lib.terms.TermOrder(op.kind)
        keys = crypto.keygen(
            op.polys, order, self.PUBLIC, self.NOISE, self.TERMS, random.Random(op.key_seed)
        )
        pk = keys.public
        rng = random.Random(op.enc_seed)
        msgs = [
            poly.Polynomial(op.n, P, dict(zip(pk.normal_terms, coeffs)))
            for coeffs in op.messages
        ]
        ciphers = [crypto.encrypt(pk, m, rng) for m in msgs]

        oracle = keys.oracle()
        plain = [crypto.decrypt(oracle, c) for c in ciphers]
        leads = keys.basis.leading_terms()
        recovered = [crypto.recover_basis_element(oracle, t) for t in leads]
        one = poly.Polynomial.constant(op.n, P, 1)
        mask = poly.Polynomial.constant(op.n, P, op.mask)
        masked = [
            crypto.recover_basis_element(oracle, t, masking=[(mask, one), (one - mask, one)])
            for t in leads
        ]
        attack = crypto.attack_commutative(oracle, pk)
        pair = forge.build_counterexample(keys.basis, order, poly.gb_degree(keys.basis) + 1)
        demo = forge.demonstrate_bound_necessity(pair)

        queries = oracle.queries + demo.queries_small + demo.queries_big
        return Outcome((keys, msgs, ciphers, plain, recovered, masked, attack, demo), queries)

    def fingerprint(self, lib, op: CryptoOp, out: Outcome) -> str:
        keys, _, ciphers, _, _, _, attack, demo = out.value
        return _digest(
            [g.to_text() for g in keys.basis.elements],
            [c.poly.to_text() for c in ciphers],
            [g.to_text() for g in attack.basis],
            sorted(demo.big_generators), out.queries,
        )

    def check(self, lib, op: CryptoOp, out: Outcome) -> list:
        keys, msgs, _, plain, recovered, masked, attack, demo = out.value
        order = lib.terms.TermOrder(op.kind)
        key = ref.term_key(op.kind)
        private = [_dict(g) for g in keys.basis.elements]
        problems = ref.groebner_problems(private, [_dict(f) for f in op.polys], key)
        if plain != msgs:
            problems.append("a decryption did not return its message")
        if recovered != list(keys.basis.elements):
            problems.append("a plain recovery differs from the private basis")
        if masked != list(keys.basis.elements):
            problems.append("a masked recovery differs from the private basis")
        got = sorted(attack.basis, key=lambda g: order.key(g.leading_term(order)))
        if tuple(got) != keys.basis.elements:
            problems.append("the attack basis differs from the private basis")
        # fresh traffic: the attack's decryptor must agree with the oracle,
        # here replaced by the reference reduction over the private basis
        rng = random.Random(op.check_seed)
        pk = keys.public
        for _ in range(3):
            msg = lib.polynomials.Polynomial(
                op.n, P, {t: rng.randrange(P) for t in pk.normal_terms}
            )
            c = lib.crypto.encrypt(pk, msg, rng)
            if _dict(attack.decrypt(c.poly)) != ref.reduce_comm(_dict(c.poly), private, key):
                problems.append("the attack basis mis-decrypts a fresh ciphertext")
                break
        if not (demo.small_matches_shifted and demo.big_matches_extended and demo.differ):
            problems.append("the forged pair does not show the bound is necessary")
        return problems


# --- free-peel ----------------------------------------------------------------

# the non-monomial bases of the acceptance suite's free-algebra families
_NC_FIXED = [
    (2, [{(1, 2): 1, (): P - 1}]),
    (1, [{(1, 1): 1, (): P - 1}]),
    (2, [{(2, 1): 1, (1, 2): P - 1}]),
    (2, [{(1, 2): 1, (): P - 1}, {(2, 1): 1, (): P - 1}]),
    (2, [{(2, 1): 1, (1,): P - 1}]),
    (2, [{(2, 1, 2): 1, (2,): P - 1}]),
]


@dataclass
class FreeInstance:
    n: int
    basis: list        # dict polynomials of the hidden basis
    publics: list      # dict polynomials of the public members
    lib_basis: list
    lib_publics: list
    probe_seed: int


class FreePeel(Workload):
    """CanOracle.noncommutative (which runs overlap_check), covering_basis
    on seeded public members, and nc_attack_probe trials, on the acceptance
    suite's free-algebra families. One op is a round of four instances:
    random monomial bases of one, two and three words, and one of the
    fixed non-monomial bases in turn. Single instances differ widely in
    cost; a round is the unit whose percentiles stay put from seed to seed.

    Why: it is the only workload that runs words, nc_polynomials and
    peeling; without it those layers and the merge of the two algebra
    cores would go unmeasured.
    """

    name = "free-peel"
    ROUNDS = 160  # ops per pass
    TRIALS = 4    # nc_attack_probe trials per instance

    def build(self, lib, rng: random.Random) -> list:
        """-> rounds, each a list of FreeInstance."""
        ops = []
        for r in range(self.ROUNDS):
            bases = []
            for words in (1, 2, 3):
                n = rng.randint(2, 3)
                chosen: set = set()
                while len(chosen) < words:
                    chosen.add(tuple(rng.randint(1, n) for _ in range(rng.randint(2, 3))))
                bases.append((n, [{w: 1} for w in sorted(chosen)]))
            bases.append(_NC_FIXED[r % len(_NC_FIXED)])
            ops.append([self._instance(lib, rng, n, basis) for n, basis in bases])
        return ops

    @staticmethod
    def _instance(lib, rng, n, basis) -> FreeInstance:
        NcPolynomial = lib.nc_polynomials.NcPolynomial
        publics = []
        while len(publics) < 3:
            g: dict = {}
            for b in basis:
                left = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 2)))
                right = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 2)))
                c = rng.randrange(1, P)
                for w, cw in b.items():
                    u = left + w + right
                    g[u] = (g.get(u, 0) + c * cw) % P
            g = {w: c for w, c in g.items() if c}
            if g:
                publics.append(g)
        return FreeInstance(
            n, basis, publics,
            [NcPolynomial(n, P, b) for b in basis],
            [NcPolynomial(n, P, g) for g in publics],
            rng.randrange(2**31),
        )

    def run(self, lib, op: list) -> Outcome:
        results = []
        queries = 0
        for inst in op:
            oracle = lib.oracle.CanOracle.noncommutative(inst.lib_basis)
            cover = lib.peeling.covering_basis(oracle, inst.lib_publics)
            report = lib.crypto.nc_attack_probe(
                oracle, inst.lib_publics, self.TRIALS, random.Random(inst.probe_seed)
            )
            results.append((cover, report))
            queries += oracle.queries
        return Outcome(results, queries)

    def fingerprint(self, lib, op: list, out: Outcome) -> str:
        return _digest([([h.to_text() for h in cover], report) for cover, report in out.value], out.queries)

    def check(self, lib, op: list, out: Outcome) -> list:
        problems = []
        for i, (inst, (cover, report)) in enumerate(zip(op, out.value)):
            hidden = [ref.monic(b, ref.word_key) for b in inst.basis]
            leads = {ref.lead(b, ref.word_key) for b in hidden}
            h = [_dict(x) for x in cover]
            if any(ref.reduce_free(g, h) for g in inst.publics):
                problems.append(f"instance {i}: a public member does not reduce to 0 modulo the covering basis")
            for x in h:
                w = ref.lead(x, ref.word_key)
                canonical = {u: -c % P for u, c in ref.reduce_free({w: 1}, hidden).items()}
                if w not in leads:
                    problems.append(f"instance {i}: covering lead {w} is not a hidden basis lead")
                elif x != {w: 1, **canonical}:
                    problems.append(f"instance {i}: covering element for {w} is not lead minus its canonical form")
            if (report.trials, report.successes + report.failures) != (self.TRIALS, self.TRIALS):
                problems.append(f"instance {i}: the probe tally does not add up to its trials")
            if report.basis_size != len(cover):
                problems.append(f"instance {i}: the probe's covering basis differs in size")
        return problems


WORKLOADS = {w.name: w for w in (ReconStaircase(), GroebnerComplete(), CryptoSession(), FreePeel())}
