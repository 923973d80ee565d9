import copy
import pickle
import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escalier.errors import ParseError
from escalier.terms import (
    ORDER_KINDS,
    TermMonoid,
    TermOrder,
    divides,
    lcm,
    minimal_terms,
    packed_monoid,
    parse_term,
    term_to_text,
    terms_of_degree,
    variable,
)
from escalier.words import parse_word

from helpers import DEGLEX, DEGREVLEX, LEX, compare, random_term


def textbook_degrevlex_greater(a, b):
    """Verbatim textbook rule with X1 > X2 > X3: higher degree wins, ties
    go to the vector whose rightmost nonzero difference entry is negative."""
    if sum(a) != sum(b):
        return sum(a) > sum(b)
    diff = [x - y for x, y in zip(a, b)]
    rightmost = next((d for d in reversed(diff) if d != 0), 0)
    return rightmost < 0


def all_terms_of_degree(n, d):
    if n == 1:
        yield (d,)
        return
    for head in range(d + 1):
        for rest in all_terms_of_degree(n - 1, d - head):
            yield (head,) + rest


class TestTermsOfDegree:
    def test_every_term_once(self):
        for n in (1, 2, 3):
            for d in range(5):
                got = list(terms_of_degree(n, d))
                assert sorted(got) == sorted(all_terms_of_degree(n, d))
                assert len(set(got)) == len(got)

    def test_combinations_order(self):
        assert list(terms_of_degree(2, 2)) == [(2, 0), (1, 1), (0, 2)]
        assert TermMonoid.of_degree is terms_of_degree

    def test_pinned_to_combinations_with_replacement(self):
        for n in range(1, 6):
            for d in range(9):
                want = []
                for combo in combinations_with_replacement(range(n), d):
                    exps = [0] * n
                    for i in combo:
                        exps[i] += 1
                    want.append(tuple(exps))
                assert list(terms_of_degree(n, d)) == want


class TestCompare:
    def test_one_is_minimum_deglex(self):
        assert compare(DEGLEX, (0, 0), (1, 0)) == -1

    def test_deglex_tiebreak_on_highest_variable(self):
        # equal degree; X2 is the big variable, so X1^2 < X1*X2
        assert compare(DEGLEX, (2, 0), (1, 1)) == -1

    def test_degrevlex_textbook_brute_force(self):
        # under the textbook convention X1 is the largest variable; here Xn
        # is, so compare the reversed terms; check every degree-2 pair in 3 vars
        terms = list(all_terms_of_degree(3, 2))
        for a in terms:
            for b in terms:
                expected = textbook_degrevlex_greater(a, b)
                assert (compare(DEGREVLEX, a[::-1], b[::-1]) == 1) == expected
        assert compare(DEGREVLEX, (0, 1, 1), (2, 0, 0)) == 1

    def test_noetherian_minimum(self):
        rng = random.Random(0)
        for order in (LEX, DEGLEX, DEGREVLEX):
            for _ in range(50):
                t = random_term(rng, 3, 5)
                if sum(t) > 0:
                    assert compare(order, (0, 0, 0), t) == -1

    def test_semigroup_law(self):
        rng = random.Random(1)
        for order in (LEX, DEGLEX, DEGREVLEX):
            for _ in range(200):
                a = random_term(rng, 3, 4)
                b = random_term(rng, 3, 4)
                c = random_term(rng, 3, 4)
                if compare(order, a, b) == -1:
                    assert compare(order, TermMonoid.mul(a, c), TermMonoid.mul(b, c)) == -1

    def test_antisymmetric_transitive(self):
        rng = random.Random(2)
        for order in (LEX, DEGLEX, DEGREVLEX):
            for _ in range(200):
                a, b, c = (random_term(rng, 3, 4) for _ in range(3))
                assert compare(order, a, b) == -compare(order, b, a)
                if compare(order, a, b) <= 0 and compare(order, b, c) <= 0:
                    assert compare(order, a, c) <= 0
                assert (compare(order, a, b) == 0) == (a == b)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            TermOrder("grlex")

    def test_one_instance_per_kind(self):
        for kind in ORDER_KINDS:
            assert TermOrder(kind) is TermOrder(kind)
            assert TermOrder(kind).kind == kind
        assert TermOrder() is TermOrder("deglex")
        # one instance serves every caller, so none may change it
        with pytest.raises(AttributeError):
            TermOrder("lex").kind = "deglex"
        assert TermOrder("lex").kind == "lex"

    @pytest.mark.parametrize(
        "kind, shown",
        [
            ("grlex", "'grlex'"),
            ("x" * 500, "'" + "x" * 60 + "...'"),
            # an unhashable kind is refused by the same check, not a TypeError
            (["deglex"], "\"['deglex']\""),
        ],
    )
    def test_unknown_kinds_get_the_clipped_message(self, kind, shown):
        with pytest.raises(ValueError) as refused:
            TermOrder(kind)
        assert str(refused.value) == f"unknown order kind {shown}"

    def test_copies_and_pickles_are_the_interned_instance(self):
        for kind in ORDER_KINDS:
            order = TermOrder(kind)
            assert copy.copy(order) is order
            assert copy.deepcopy(order) is order
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(order, protocol)) is order


class TestDivisibility:
    def test_one_divides_everything(self):
        assert divides((0, 0), (3, 5))

    def test_componentwise(self):
        assert not divides((2, 2), (2, 1))

    def test_reflexive(self):
        assert divides((1, 3), (1, 3))

    def test_divides_iff_lcm(self):
        rng = random.Random(3)
        for _ in range(300):
            a = random_term(rng, 3, 4)
            b = random_term(rng, 3, 4)
            assert divides(a, b) == (lcm(a, b) == b)

    def test_lcm_examples(self):
        assert lcm((2, 0), (0, 3)) == (2, 3)
        t = (4, 1)
        assert lcm(t, t) == t
        assert lcm((1, 2), (2, 1)) == (2, 2)

    def test_term_div(self):
        # exact division is the monoid's cofactor: t / lead, or None
        assert TermMonoid.cofactor((1, 2), (3, 2)) == (2, 0)
        assert TermMonoid.cofactor((2, 0), (1, 2)) is None


class TestPredecessor:
    """The predecessor t / Xi, taken with the monoid's cofactor and variable."""

    def test_decrement(self):
        assert TermMonoid.cofactor(variable(2, 2), (2, 1)) == (2, 0)

    def test_absent(self):
        assert TermMonoid.cofactor(variable(2, 2), (2, 0)) is None
        assert TermMonoid.cofactor(variable(2, 1), (0, 0)) is None

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            variable(2, 3)

    def test_multiply_back(self):
        rng = random.Random(4)
        for _ in range(100):
            t = random_term(rng, 3, 4)
            for i in range(1, 4):
                unit = variable(3, i)
                if t[i - 1] > 0:
                    assert TermMonoid.mul(TermMonoid.cofactor(unit, t), unit) == t


class TestText:
    def test_render(self):
        assert term_to_text((2, 0, 1)) == "X1^2*X3"
        assert term_to_text((0, 0)) == "1"
        assert term_to_text((1, 1)) == "X1*X2"

    def test_parse_roundtrip(self):
        rng = random.Random(5)
        for _ in range(100):
            t = random_term(rng, 3, 5)
            assert parse_term(term_to_text(t), 3) == t

    def test_parse_whitespace(self):
        assert parse_term("  X1 ^2 ".replace(" ^", "^"), 2) == (2, 0)
        assert parse_term("X1 * X2", 2) == (1, 1)

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_term("", 2)
        with pytest.raises(ParseError):
            parse_term("Y1", 2)
        with pytest.raises(ParseError):
            parse_term("X3", 2)


# text, then the term and the word it gives in 2 variables, or the
# message of the ParseError each refuses it with
GRAMMAR = [
    ("", "empty term", "empty word"),
    ("1", (0, 0), ()),
    ("1*1", (0, 0), ()),
    ("  X2 *  X1 * X2 ", (1, 2), (2, 1, 2)),
    ("X1^2", (2, 0), "bad word factor 'X1^2'"),
    ("X1^", "bad term factor 'X1^'", "bad word factor 'X1^'"),
    ("X0", "variable X0 out of range 1..2", "variable X0 out of range 1..2"),
    ("X3", "variable X3 out of range 1..2", "variable X3 out of range 1..2"),
    ("Y1", "bad term factor 'Y1'", "bad word factor 'Y1'"),
    ("2*X1", "bad term factor '2'", "bad word factor '2'"),
]


@pytest.mark.parametrize(
    "parse, text, want",
    [(parse_term, text, term) for text, term, _ in GRAMMAR]
    + [(parse_word, text, word) for text, _, word in GRAMMAR],
)
def test_one_grammar_verdicts(parse, text, want):
    if isinstance(want, str):
        with pytest.raises(ParseError) as refused:
            parse(text, 2)
        assert str(refused.value) == want
    else:
        assert parse(text, 2) == want


def test_minimal_terms():
    assert minimal_terms([(2, 2), (1, 3), (4, 1), (0, 8), (3, 3)]) == {
        (2, 2),
        (1, 3),
        (4, 1),
        (0, 8),
    }


class TestKernels:
    """The map kernels against their componentwise definitions."""

    @pytest.mark.parametrize("op", [divides, lcm])
    def test_arity_mismatch_raises(self, op):
        for a, b in (((1, 0), (1, 0, 0)), ((0, 0, 2), (0, 0)), ((), (1,))):
            with pytest.raises(ValueError, match="variable counts differ"):
                op(a, b)

    def test_kernels_match_definitions(self):
        rng = random.Random(6)
        for _ in range(400):
            n = rng.randint(1, 5)
            a, b = random_term(rng, n, 3), random_term(rng, n, 3)
            pairs = list(zip(a, b))
            divisible = all(x <= y for x, y in pairs)
            assert divides(a, b) == divisible
            assert lcm(a, b) == tuple(max(x, y) for x, y in pairs)
            assert TermMonoid.lcm(a, b) == lcm(a, b)
            assert TermMonoid.mul(a, b) == tuple(x + y for x, y in pairs)
            quotient = tuple(y - x for x, y in pairs)
            assert TermMonoid.cofactor(a, b) == (quotient if divisible else None)
            assert TermMonoid.apply(a, b) == TermMonoid.mul(a, b)
            for order in (LEX, DEGLEX, DEGREVLEX):
                rev = tuple(reversed(a))
                want = {
                    "lex": rev,
                    "deglex": (sum(a), rev),
                    "degrevlex": (sum(a), tuple(-e for e in a)),
                }[order.kind]
                assert order.key(a) == want


@st.composite
def packed_cases(draw):
    """(order kind, width, a, b): two terms in 1-6 variables and the field
    width buchberger would pick for them, sized from the larger degree."""
    n = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["deglex", "degrevlex"]))
    exps = st.integers(min_value=0, max_value=draw(st.sampled_from([1, 3, 40])))
    a, b = (tuple(draw(st.lists(exps, min_size=n, max_size=n))) for _ in "ab")
    w = max(sum(a), sum(b)).bit_length() + 2
    return kind, w, a, b


def _packed(codec, t):
    (x,) = codec.pack({t: 1})
    return x


class TestPackedMonoid:
    """The packed codec against the tuple monoid it stands for."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=packed_cases())
    def test_kernels_match_the_tuple_monoid(self, case):
        kind, w, a, b = case
        codec = packed_monoid(len(a), kind, w)
        pa, pb = _packed(codec, a), _packed(codec, b)
        assert codec.unpack({pa: 5}) == {a: 5}
        assert pa + pb == codec.mul(pa, pb) == _packed(codec, TermMonoid.mul(a, b))
        q = TermMonoid.cofactor(a, b)
        assert codec.cofactor(pa, pb) == (None if q is None else _packed(codec, q))
        assert codec.lcm(pa, pb) == _packed(codec, TermMonoid.lcm(a, b))
        ka, kb = codec.key(pa), codec.key(pb)
        assert (ka > kb) - (ka < kb) == compare(TermOrder(kind), a, b)

    @pytest.mark.parametrize("kind", ["deglex", "degrevlex"])
    def test_limit_is_the_least_term_of_degree_half_the_field(self, kind):
        for n in (1, 2, 4):
            for w in (2, 3, 5):
                codec, edge = packed_monoid(n, kind, w), 1 << (w - 1)
                assert all(_packed(codec, t) < codec.limit for t in terms_of_degree(n, edge - 1))
                assert all(_packed(codec, t) >= codec.limit for t in terms_of_degree(n, edge))

    def test_one_codec_per_ring_and_width(self):
        assert packed_monoid(3, "deglex", 4) is packed_monoid(3, "deglex", 4)
        assert packed_monoid(3, "deglex", 4) is not packed_monoid(3, "degrevlex", 4)
        assert packed_monoid(3, "deglex", 4) is not packed_monoid(3, "deglex", 8)
