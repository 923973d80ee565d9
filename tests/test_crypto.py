import random

import pytest

from escalier.crypto import (
    _drawer,
    AttackResult,
    Ciphertext,
    KeyPair,
    attack_commutative,
    check_probe_size,
    decrypt,
    encrypt,
    keygen,
    nc_attack_probe,
    parse_ciphertext,
    parse_public_key,
    recover_basis_element,
    render_ciphertext,
    render_public_key,
)
from escalier.errors import ParseError
from escalier.forge import build_counterexample
from escalier.nc_polynomials import NcPolynomial
from escalier.oracle import CanOracle
from escalier.polynomials import GroebnerBasis, Polynomial, Reducer, normal_form
from escalier.terms import terms_of_degree

from helpers import DEGLEX, DEGREVLEX, LEX, P, ncpoly, poly


def toy_keys(p=7, seed=1):
    gens = [poly("X1^2 + X2", p=p), poly("X2^2 + 1", p=p)]
    return keygen(gens, DEGLEX, 2, 1, 4, random.Random(seed))


def random_message(pk, rng):
    return Polynomial(
        pk.n, pk.p, {t: rng.randrange(pk.p) for t in pk.normal_terms}
    )


class TestKeygen:
    def test_toy_alphabet(self):
        keys = toy_keys()
        assert set(keys.public.normal_terms) == {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert keys.public.degree_cap >= 2

    def test_records_keep_their_methods(self):
        keys = toy_keys()
        assert type(keys) is KeyPair and type(keys.basis) is GroebnerBasis
        assert keys.basis.leading_terms() == ((2, 0), (0, 2))
        oracle = keys.oracle()
        assert oracle is not keys.oracle() and oracle.queries == 0
        assert oracle.can_term((2, 0)) == poly("-X2", p=7)

    def test_public_elements_in_ideal(self):
        keys = toy_keys()
        o = keys.oracle()
        for g in keys.public.generators:
            assert o.can_poly(g).is_zero()

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError):
            keygen([poly("1", p=7)], DEGLEX, 2, 1, 4, random.Random(0))

    def test_alphabet_too_large_rejected(self):
        with pytest.raises(ValueError):
            toy_keys_with_m5()

    def test_lex_rejected(self):
        with pytest.raises(ValueError):
            keygen([poly("X1^2", p=7)], LEX, 2, 1, 2, random.Random(0))

    @pytest.mark.parametrize("counts", [(0, 1, 4), (2, -1, 4), (2, 1, -2)])
    def test_bad_counts_refused_before_any_work(self, counts, monkeypatch):
        def no_work(*args):
            raise RuntimeError("keygen started work on bad counts")

        monkeypatch.setattr("escalier.crypto.buchberger", no_work)
        monkeypatch.setattr("escalier.crypto._drawer", no_work)
        with pytest.raises(ValueError):
            keygen([poly("X1^2 + X2", p=7)], DEGLEX, *counts, random.Random(0))

    def test_oversized_noise_refused_before_any_noise(self, monkeypatch):
        def no_work(*args):
            raise RuntimeError("keygen drew noise for an oversized key")

        monkeypatch.setattr("escalier.crypto._drawer", no_work)
        with pytest.raises(ValueError, match="exceeds the limit"):
            keygen([poly("X1^2 + X2", p=7)], DEGLEX, 1, 5000, 4, random.Random(0))

    def test_normal_term_walk_refused_before_its_layer(self, monkeypatch):
        # layers 0 and 1 hold 2,001 terms; layer 2 would add 2,001,000
        listed = []

        def recording(n, d):
            listed.append(d)
            return terms_of_degree(n, d)

        monkeypatch.setattr("escalier.crypto.terms_of_degree", recording)
        gens = [Polynomial.term((2,) + (0,) * 1999, 7)]
        with pytest.raises(ValueError, match="exceeds the limit of 10\\^6 terms"):
            keygen(gens, DEGLEX, 1, 0, 3000, random.Random(0))
        assert listed == [0, 1]

    def test_message_terms_of_thousands_of_digits_refused_in_words(self):
        # neither refusal formats the requested count, which has more
        # digits than Python will print
        wide = [Polynomial.term((2,) + (0,) * 1999, 7)]
        with pytest.raises(ValueError, match="exceeds the limit of 10\\^6 terms"):
            keygen(wide, DEGLEX, 1, 0, 10**5000, random.Random(0))
        finite = [poly("X1^2", p=7), poly("X2^2", p=7)]
        with pytest.raises(ValueError, match="only 4 normal terms exist, fewer than requested"):
            keygen(finite, DEGLEX, 1, 0, 10**5000, random.Random(0))

    def test_key_size_limit_edge(self):
        from escalier.crypto import check_key_size

        # two variables, noise multiplying two terms in all (one public
        # member of two terms, say): C(1000, 2) * 2 = 999,000 products
        # pass, C(1001, 2) * 2 = 1,001,000 do not
        check_key_size(2, 998, 2)
        with pytest.raises(ValueError):
            check_key_size(2, 999, 2)
        # a degree of thousands of digits is refused without its binomial
        with pytest.raises(ValueError, match="exceeds the limit of 10\\^6 terms"):
            check_key_size(3000, 10**5000, 1)


def toy_keys_with_m5():
    gens = [poly("X1^2 + X2", p=7), poly("X2^2 + 1", p=7)]
    return keygen(gens, DEGLEX, 2, 1, 5, random.Random(1))


class TestNoise:
    def test_draws_are_valid_distinct_monomials(self):
        rng = random.Random(3)
        cases = ((Polynomial, 1, 7, 3), (Polynomial, 2, 3, 2), (Polynomial, 3, 32003, 2))
        for cls, n, p, d in cases + ((NcPolynomial, 3, 7, 2),):
            draw = _drawer(cls.monoid, n, d, p, rng)
            for _ in range(10):
                pairs = draw()
                f = cls(n, p, dict(pairs))
                assert len(f.items()) == len(pairs) and set(f.items()) == set(pairs)
                assert f.degree() <= d and all(0 < c < p for _, c in pairs)

    def test_word_noise_draws_shortest_words_first(self):
        # one draw per word, lengths 0..max in turn, the last letter
        # running fastest, so a seed gives the same noise on every version
        for seed in range(20):
            rng, ref = random.Random(seed), random.Random(seed)
            pairs = _drawer(NcPolynomial.monoid, 2, 2, 7, rng, 0.4)()
            words = [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
            want = [(w, ref.randrange(1, 7)) for w in words if ref.random() < 0.4]
            assert pairs == want and rng.random() == ref.random()


class TestEncryptDecrypt:
    def test_roundtrip(self):
        keys = toy_keys()
        for i in range(30):
            rng = random.Random(100 + i)
            msg = random_message(keys.public, rng)
            c = encrypt(keys.public, msg, rng)
            assert decrypt(keys.oracle(), c) == msg

    def test_zero_message_gives_ideal_member(self):
        keys = toy_keys()
        c = encrypt(keys.public, Polynomial(2, 7), random.Random(5))
        assert keys.oracle().can_poly(c.poly).is_zero()

    def test_degree_cap_enforced(self):
        keys = toy_keys()
        for i in range(20):
            rng = random.Random(200 + i)
            c = encrypt(keys.public, random_message(keys.public, rng), rng)
            assert c.poly.degree() <= keys.public.degree_cap
        with pytest.raises(ParseError):
            Ciphertext(poly=poly("X1^9", p=7), degree_cap=3)

    def test_unsupported_message_term(self):
        keys = toy_keys()
        with pytest.raises(ValueError):
            encrypt(keys.public, poly("X1^2", p=7), random.Random(0))

    def test_oversized_key_noise_refused_before_any_draw(self):
        # a key declaring noise of degree 100,000 in 3 variables draws
        # C(100003, 3) terms per public polynomial: refused as keygen would
        g = poly("X1^2 + X2", n=3, p=7)
        pk = toy_keys().public._replace(n=3, generators=(g,), normal_terms=((0, 0, 0),),
                                        noise_degree=100_000)
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ParseError, match="the key noise exceeds the limit of 10\\^6 terms"):
            encrypt(pk, poly("1", n=3, p=7), rng)
        assert rng.getstate() == state

    def test_degenerate_randomness_is_plaintext(self):
        class NoNoise(random.Random):
            def random(self):
                return 1.0  # never below the density threshold

        keys = toy_keys()
        msg = poly("2*X1*X2 + 3", p=7)
        c = encrypt(keys.public, msg, NoNoise())
        assert c.poly == msg

    def test_member_of_ideal_decrypts_to_zero(self):
        keys = toy_keys()
        c = Ciphertext(
            poly=keys.basis.elements[0] * poly("X1 + 3", p=7),
            degree_cap=keys.public.degree_cap,
        )
        assert decrypt(keys.oracle(), c).is_zero()


class TestRecovery:
    def test_exact_element(self):
        keys = toy_keys()
        got = recover_basis_element(keys.oracle(), (2, 0))
        assert got == poly("X1^2 + X2", p=7)

    def test_every_element_masked_and_unmasked(self):
        keys = toy_keys()
        one = Polynomial.constant(2, 7, 1)
        for gamma in keys.basis.elements:
            lead = gamma.leading_term(DEGLEX)
            plain = recover_basis_element(keys.oracle(), lead)
            c = Polynomial.constant(2, 7, 3)
            rest = one - c
            masked = recover_basis_element(
                keys.oracle(), lead, masking=[(c, one), (rest, one)]
            )
            assert plain == masked == gamma

    def test_normal_term_rejected(self):
        keys = toy_keys()
        with pytest.raises(ValueError):
            recover_basis_element(keys.oracle(), (1, 1))


class TestAttack:
    def test_recovers_private_basis(self):
        keys = toy_keys()
        att = attack_commutative(keys.oracle(), keys.public)
        got = sorted(att.basis, key=lambda g: DEGLEX.key(g.leading_term(DEGLEX)))
        assert tuple(got) == keys.basis.elements

    def test_decryptor_agrees_with_oracle(self):
        keys = toy_keys()
        att = attack_commutative(keys.oracle(), keys.public)
        for i in range(30):
            rng = random.Random(300 + i)
            msg = random_message(keys.public, rng)
            c = encrypt(keys.public, msg, rng)
            assert att.decrypt(c.poly) == decrypt(keys.oracle(), c) == msg

    def test_negative_bound_refused_before_any_query(self):
        keys = toy_keys()
        oracle = keys.oracle()
        with pytest.raises(ValueError, match="^bound must be nonnegative$"):
            attack_commutative(oracle, keys.public, bound=-1)
        assert oracle.queries == 0

    def test_zero_message_recovered(self):
        keys = toy_keys()
        att = attack_commutative(keys.oracle(), keys.public)
        c = encrypt(keys.public, Polynomial(2, 7), random.Random(77))
        assert att.decrypt(c.poly).is_zero()

    def test_small_bound_mis_decrypts(self):
        pair = build_counterexample([poly("X1^2")], DEGLEX, 3)
        keys = keygen(pair.extended_basis.elements, DEGLEX, 2, 1, 4, random.Random(7))
        oracle = keys.oracle()
        att = attack_commutative(oracle, keys.public, bound=pair.agree_degree)
        probe = Polynomial.term(pair.cap_lead, P)
        assert att.decrypt(probe) != oracle.can_poly(probe)

    def test_decryptor_reuses_one_reducer(self):
        # over a wrong basis too, every call equals a fresh reduction
        pair = build_counterexample([poly("X1^2 + X2")], DEGLEX, 3)
        keys = keygen(pair.extended_basis.elements, DEGLEX, 2, 1, 4, random.Random(7))
        for bound in (pair.agree_degree, None):
            att = attack_commutative(keys.oracle(), keys.public, bound=bound)
            reducer = att._reducer
            rng = random.Random(5)
            for _ in range(20):
                c = encrypt(keys.public, random_message(keys.public, rng), rng)
                want = normal_form(c.poly, Reducer(list(att.basis), DEGLEX))
                assert att.decrypt(c.poly) == want
            assert att._reducer is reducer
            assert att == attack_commutative(keys.oracle(), keys.public, bound=bound)

    def test_results_compare_on_all_but_the_reducer(self):
        pair = build_counterexample([poly("X1^2 + X2")], DEGLEX, 3)
        keys = keygen(pair.extended_basis.elements, DEGLEX, 2, 1, 4, random.Random(7))
        att = attack_commutative(keys.oracle(), keys.public)
        same = AttackResult(att.staircase, att.basis, att.order)
        assert same == att and same._reducer is not att._reducer
        low = attack_commutative(keys.oracle(), keys.public, bound=pair.agree_degree)
        assert low != att
        assert AttackResult(att.staircase, att.basis, DEGREVLEX) != att
        assert att != (att.staircase, att.basis, att.order)

    def test_decryptor_reduces_under_the_key_order(self):
        # degrevlex leads X2^2 + X1*X3 with X2^2, deglex would with X1*X3
        gens = [poly("X2^2 + X1*X3", n=3), poly("X3^3 + 1", n=3)]
        keys = keygen(gens, DEGREVLEX, 2, 1, 4, random.Random(3))
        att = attack_commutative(keys.oracle(), keys.public)
        rng = random.Random(11)
        for _ in range(20):
            c = encrypt(keys.public, random_message(keys.public, rng), rng)
            assert att.decrypt(c.poly) == decrypt(keys.oracle(), c)


class TestNcProbe:
    def test_monomial_private_ideal_always_succeeds(self):
        private = [ncpoly("X1*X2"), ncpoly("X2*X1")]
        oracle = CanOracle.noncommutative(private)
        publics = [
            NcPolynomial(2, P, {(1, 1, 2, 2): 1, (2, 1): 3}),
            NcPolynomial(2, P, {(2, 2, 1): 2}),
        ]
        report = nc_attack_probe(oracle, publics, 30, random.Random(9))
        assert report.trials == 30
        assert report.successes == 30
        assert report.failures == 0

    def test_report_fields(self):
        private = [ncpoly("X1*X2 - 1")]
        oracle = CanOracle.noncommutative(private)
        publics = [ncpoly("X1*X2 - 1").sandwich((2,), ())]
        report = nc_attack_probe(oracle, publics, 10, random.Random(11))
        assert report.trials == 10
        assert report.successes + report.failures == 10
        assert report.basis_size >= 1

    def test_too_many_trials_refused_before_any_query(self):
        oracle = CanOracle.noncommutative([ncpoly("X1*X2 - 1")])
        publics = [ncpoly("X1*X2 - 1").sandwich((2,), ())]
        with pytest.raises(ParseError, match="the probe exceeds the limit of 10\\^6 trials"):
            nc_attack_probe(oracle, publics, 10**6 + 1, random.Random(11))
        assert oracle.queries == 0

    def test_oversized_noise_refused_before_any_query_or_draw(self):
        # (n + 1)^2 products per public term and trial: 5^2 * 2 * 20000 is
        # 10^6, the most allowed, and one more trial is refused
        oracle = CanOracle.noncommutative([ncpoly("X1*X2", n=4)])
        publics = [ncpoly("X1*X2 + X2*X1*X2", n=4)]
        check_probe_size(4, publics, 20000)
        rng = random.Random(11)
        with pytest.raises(ParseError, match="^the probe noise exceeds the limit of 10\\^6 products$"):
            nc_attack_probe(oracle, publics, 20001, rng)
        assert oracle.queries == 0 and rng.random() == random.Random(11).random()

    def test_negative_trials_refused_before_any_query(self):
        oracle = CanOracle.noncommutative([ncpoly("X1*X2 - 1")])
        publics = [ncpoly("X1*X2 - 1").sandwich((2,), ())]
        with pytest.raises(ValueError, match="^trials must be nonnegative$"):
            nc_attack_probe(oracle, publics, -3, random.Random(11))
        assert oracle.queries == 0


class TestKeyFiles:
    def test_public_key_roundtrip(self):
        keys = toy_keys()
        back = parse_public_key(render_public_key(keys.public))
        # a record is a named tuple, which also equals a plain tuple
        assert type(back) is type(keys.public) and back == keys.public

    def test_ciphertext_roundtrip(self):
        keys = toy_keys()
        rng = random.Random(4)
        c = encrypt(keys.public, random_message(keys.public, rng), rng)
        back = parse_ciphertext(render_ciphertext(c, 2, 7))
        assert back == c
        assert back != (c.poly, c.degree_cap)
        assert back != Ciphertext(c.poly, c.degree_cap + 1)

    def test_public_key_without_generators(self):
        with pytest.raises(ParseError):
            parse_public_key("publickey n=2 p=7 order=deglex dbound=1 delta=2\nt 1\nt X1\n")

    def test_ciphertext_over_its_cap(self):
        with pytest.raises(ParseError):
            parse_ciphertext("cipher n=2 p=7 delta=1\nX1^3 + 1\n")
