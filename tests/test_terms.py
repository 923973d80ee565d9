import random

import pytest

from escalier.errors import ParseError
from escalier.terms import (
    Box,
    TermOrder,
    box_enumerate,
    degree,
    divides,
    lcm,
    minimal_terms,
    parse_term,
    term_div,
    term_mul,
    term_to_text,
    variable,
)

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


class TestCompare:
    def test_one_is_minimum_deglex(self):
        assert compare(DEGLEX, (0, 0), (1, 0)) == -1

    def test_deglex_tiebreak_on_highest_variable(self):
        # equal degree; X2 is the big variable, so X1^2 < X1*X2
        assert compare(DEGLEX, (2, 0), (1, 1)) == -1

    def test_degrevlex_textbook_brute_force(self):
        # under the textbook convention X1 is the largest variable, which
        # is precedence (3, 2, 1) here; check every degree-2 pair in 3 vars
        order = TermOrder("degrevlex", precedence=(3, 2, 1))
        terms = list(all_terms_of_degree(3, 2))
        for a in terms:
            for b in terms:
                expected = textbook_degrevlex_greater(a, b)
                assert (compare(order, a, b) == 1) == expected
        assert compare(order, (1, 1, 0), (0, 0, 2)) == 1

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
                    assert compare(order, term_mul(a, c), term_mul(b, c)) == -1

    def test_antisymmetric_transitive(self):
        rng = random.Random(2)
        for order in (LEX, DEGLEX, DEGREVLEX):
            for _ in range(200):
                a, b, c = (random_term(rng, 3, 4) for _ in range(3))
                assert compare(order, a, b) == -compare(order, b, a)
                if compare(order, a, b) <= 0 and compare(order, b, c) <= 0:
                    assert compare(order, a, c) <= 0
                assert (compare(order, a, b) == 0) == (a == b)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            TermOrder("deglex", precedence=(1, 2)).key((1, 2, 3))

    def test_bad_kind_and_precedence(self):
        with pytest.raises(ValueError):
            TermOrder("grlex")
        with pytest.raises(ValueError):
            TermOrder("lex", precedence=(1, 3))


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
        assert term_div((3, 2), (1, 2)) == (2, 0)
        with pytest.raises(ValueError):
            term_div((1, 2), (2, 0))


class TestPredecessor:
    """The predecessor t / Xi, taken with term_div and variable."""

    def test_decrement(self):
        assert term_div((2, 1), variable(2, 2)) == (2, 0)

    def test_absent(self):
        with pytest.raises(ValueError):
            term_div((2, 0), variable(2, 2))
        with pytest.raises(ValueError):
            term_div((0, 0), variable(2, 1))

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
                    assert term_mul(term_div(t, unit), unit) == t


class TestBox:
    @pytest.mark.parametrize(
        "n,bound,count", [(1, 2, 3), (2, 1, 4), (3, 8, 729)]
    )
    def test_counts(self, n, bound, count):
        box = Box(n, bound)
        assert box.size == count
        terms = list(box_enumerate(box))
        assert len(terms) == count
        assert len(set(terms)) == count

    def test_graded_order(self):
        terms = list(box_enumerate(Box(2, 3)))
        degrees = [degree(t) for t in terms]
        assert degrees == sorted(degrees)
        # deterministic under repetition
        assert terms == list(box_enumerate(Box(2, 3)))

    def test_invalid(self):
        with pytest.raises(ValueError):
            Box(0, 3)
        with pytest.raises(ValueError):
            Box(2, -1)


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


def test_minimal_terms():
    assert minimal_terms([(2, 2), (1, 3), (4, 1), (0, 8), (3, 3)]) == {
        (2, 2),
        (1, 3),
        (4, 1),
        (0, 8),
    }
