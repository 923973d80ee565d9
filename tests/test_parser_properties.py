"""The five text formats: rendering then parsing gives the value back, and
a mutated file either parses or raises ParseError, never anything else.

The formats are the ideal file, the free-algebra file, the public key, the
ciphertext and the reconstruction result. The CLI turns ParseError into
exit 2 with one error line; any other exception from a parser would give
a malformed file the exit code of a mathematical failure.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escalier.crypto import (
    Ciphertext,
    PublicKey,
    parse_ciphertext,
    parse_public_key,
    render_ciphertext,
    render_public_key,
)
from escalier.errors import ParseError, decimal
from escalier.nc_polynomials import NcPolynomial, parse_free_file, render_free_file
from escalier.polynomials import Polynomial, parse_ideal_file, render_ideal_file
from escalier.staircase import StaircaseResult, parse_result, render_result
from escalier.terms import TermOrder

PRIMES = st.sampled_from([2, 7, 32003])
ORDERS = st.sampled_from([TermOrder(kind) for kind in ("lex", "deglex", "degrevlex")])
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def terms(n):
    return st.tuples(*[st.integers(min_value=0, max_value=4)] * n)


def words(n):
    return st.lists(st.integers(1, n), max_size=4).map(tuple)


def polynomials(cls, monomials, n, p, min_size=0):
    coeffs = st.integers(min_value=1, max_value=p - 1)
    return st.dictionaries(monomials, coeffs, min_size=min_size, max_size=4).map(
        lambda c: cls(n, p, c)
    )


@st.composite
def ideal_files(draw):
    n, p, order = draw(st.integers(1, 3)), draw(PRIMES), draw(ORDERS)
    polys = draw(st.lists(polynomials(Polynomial, terms(n), n, p), max_size=4))
    return render_ideal_file(polys, order, n, p), (n, p, order, polys), parse_ideal_file


@st.composite
def free_files(draw):
    n, p = draw(st.integers(1, 3)), draw(PRIMES)
    polys = draw(st.lists(polynomials(NcPolynomial, words(n), n, p), max_size=4))
    return render_free_file(polys, n, p), (n, p, polys), parse_free_file


@st.composite
def public_keys(draw):
    n, p = draw(st.integers(1, 3)), draw(PRIMES)
    nonzero = polynomials(Polynomial, terms(n), n, p, min_size=1)
    pk = PublicKey(
        n=n,
        p=p,
        order=draw(ORDERS),
        generators=tuple(draw(st.lists(nonzero, min_size=1, max_size=3))),
        normal_terms=tuple(draw(st.lists(terms(n), max_size=4))),
        noise_degree=draw(st.integers(0, 3)),
        degree_cap=draw(st.integers(0, 20)),
    )
    return render_public_key(pk), pk, parse_public_key


@st.composite
def ciphertexts(draw):
    n, p = draw(st.integers(1, 3)), draw(PRIMES)
    f = draw(polynomials(Polynomial, terms(n), n, p))
    c = Ciphertext(poly=f, degree_cap=max(f.degree(), 0) + draw(st.integers(0, 3)))
    return render_ciphertext(c, n, p), c, parse_ciphertext


@st.composite
def results(draw):
    n, p = draw(st.integers(1, 3)), draw(PRIMES)
    gens = frozenset(draw(st.lists(terms(n), max_size=4)))
    # a result carries one basis element per generator
    basis = st.lists(polynomials(Polynomial, terms(n), n, p), min_size=len(gens), max_size=len(gens))
    res = StaircaseResult(
        generators=gens,
        reduced_basis=tuple(draw(basis)),
        queries_used=draw(st.integers(0, 10**6)),
        bound=draw(st.integers(0, 12)),
        nvars=n,
        modulus=p,
    )
    return render_result(res), res, parse_result


FORMATS = st.one_of(ideal_files(), free_files(), public_keys(), ciphertexts(), results())


@SETTINGS
@given(case=FORMATS)
def test_render_then_parse_round_trips(case):
    text, value, parse = case
    got = parse(text)
    # a record that is a named tuple also equals a plain tuple
    assert type(got) is type(value) and got == value


# the characters of the grammars
ALPHABET = "X0123456789^*+- =\n#1gtnpkD"


@st.composite
def mutations(draw, text):
    """text with 1-3 character edits (delete, insert or replace) at even
    odds anywhere, or, in half the cases, past the header line only."""
    rng = draw(st.randoms(use_true_random=False))
    chars = list(text)
    start = text.index("\n") + 1 if rng.random() < 0.5 else 0
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(start, len(chars) + 1)
        kind = rng.choice(["delete", "insert", "replace"])
        if kind == "insert":
            chars.insert(i, rng.choice(ALPHABET))
        elif i < len(chars):
            if kind == "delete":
                del chars[i]
            else:
                chars[i] = rng.choice(ALPHABET)
    return "".join(chars)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(data=st.data(), case=FORMATS)
def test_mutated_input_raises_only_parse_error(data, case):
    text, _, parse = case
    try:
        parse(data.draw(mutations(text)))
    except ParseError:
        pass


# Arabic-Indic, Devanagari and fullwidth digits: decimal to str.isdecimal
# and to re's \d, refused by errors.decimal, the one digit rule
@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_ideal_file, "ring n=\u0662 p=7 order=deglex\nX1\n"),
        (parse_ideal_file, "ring n=2 p=\u0967\u0967 order=deglex\nX1\n"),
        (parse_ideal_file, "ring n=2 p=7 order=deglex\n\uff13*X1\n"),
        (parse_ideal_file, "ring n=2 p=7 order=deglex\nX\u0661^2 + X2\n"),
        (parse_ideal_file, "ring n=2 p=7 order=deglex\nX1^\u0662\n"),
        (parse_free_file, "free n=\u0662 p=7\nX1\n"),
        (parse_free_file, "free n=2 p=7\nX1*X\u0662\n"),
        (parse_public_key, "publickey n=2 p=7 order=deglex dbound=\u0661 delta=4\ng X1\n"),
        (parse_public_key, "publickey n=2 p=7 order=deglex dbound=1 delta=4\ng X1\nt X\u0662\n"),
        (parse_ciphertext, "cipher n=2 p=7 delta=\u0662\nX1\n"),
        (parse_result, "generators k=0 D=\u0662 n=2 p=7\nbasis\nqueries 0\n"),
    ],
    ids=["ring-n", "ring-p", "coefficient", "index", "exponent", "free-n", "letter",
         "key-header", "key-term", "cipher-header", "result-header"],
)
def test_non_ascii_digits_raise_parse_error(parse, text):
    with pytest.raises(ParseError, match="^digits must be ASCII 0-9, got '"):
        parse(text)


def test_decimal_refusal_is_clipped():
    assert decimal("0123") == 123
    two = "\u0662"
    with pytest.raises(ParseError) as e:
        decimal(two * 5000)
    assert str(e.value) == f"digits must be ASCII 0-9, got '{two * 60}...'"
