import copy
import pickle
import random

import pytest

from escalier.errors import ParseError
from escalier.words import (
    WordMonoid,
    WordOrder,
    is_factor,
    parse_word,
    subword_occurrences,
    word_to_text,
)

from helpers import compare

ORDER = WordOrder()


def random_word(rng, n=2, max_len=5):
    return tuple(rng.randrange(1, n + 1) for _ in range(rng.randrange(0, max_len + 1)))


class TestConcat:
    def test_identity(self):
        w = (1, 2, 1)
        assert WordMonoid.apply(((), ()), w) == w

    def test_example(self):
        assert WordMonoid.apply(((1,), (2,)), (2, 1)) == (1, 2, 1, 2)

    def test_length_additive(self):
        rng = random.Random(0)
        for _ in range(50):
            l, m, r = (random_word(rng) for _ in range(3))
            assert len(WordMonoid.apply((l, r), m)) == len(l) + len(m) + len(r)


class TestOccurrences:
    def test_two_hits(self):
        assert subword_occurrences((1, 2), (1, 2, 1, 2)) == [
            ((), (1, 2)),
            ((1, 2), ()),
        ]

    def test_empty_pattern(self):
        w = (1, 2, 2)
        occ = subword_occurrences((), w)
        assert len(occ) == len(w) + 1

    def test_no_hit(self):
        assert subword_occurrences((2, 2), (1, 2, 1, 2)) == []

    def test_reconstruction(self):
        rng = random.Random(1)
        for _ in range(100):
            pat = random_word(rng, max_len=3)
            w = random_word(rng, max_len=6)
            for left, right in subword_occurrences(pat, w):
                assert WordMonoid.apply((left, right), pat) == w
            assert bool(subword_occurrences(pat, w)) == is_factor(pat, w)
            # the cofactor is the leftmost occurrence
            assert WordMonoid.cofactor(pat, w) == next(iter(subword_occurrences(pat, w)), None)


class TestOfDegree:
    def test_frontier_order(self):
        # every word of length d once, each length grown from the previous
        # one letter at a time, the last letter running fastest
        for n in (1, 2, 3):
            frontier = [()]
            for d in range(4):
                assert list(WordMonoid.of_degree(n, d)) == frontier
                frontier = [w + (i,) for w in frontier for i in range(1, n + 1)]


class TestOrder:
    def test_one_instance(self):
        assert WordOrder() is ORDER is WordMonoid.default_order
        assert copy.copy(ORDER) is ORDER and copy.deepcopy(ORDER) is ORDER
        assert pickle.loads(pickle.dumps(ORDER)) is ORDER

    def test_total_and_noetherian(self):
        rng = random.Random(2)
        for _ in range(200):
            u, v = random_word(rng), random_word(rng)
            assert compare(ORDER, u, v) == -compare(ORDER, v, u)
            assert (compare(ORDER, u, v) == 0) == (u == v)
            if u:
                assert compare(ORDER, (), u) == -1

    def test_two_sided_compatibility(self):
        rng = random.Random(3)
        for _ in range(200):
            u, v, l, r = (random_word(rng) for _ in range(4))
            if compare(ORDER, u, v) == -1:
                assert compare(ORDER, l + u + r, l + v + r) == -1

    def test_length_graded(self):
        assert compare(ORDER, (2,), (1, 1)) == -1
        assert compare(ORDER, (1, 2), (2, 1)) == -1


class TestText:
    def test_render(self):
        assert word_to_text((1, 2, 1)) == "X1*X2*X1"
        assert word_to_text(()) == "1"

    def test_roundtrip(self):
        rng = random.Random(4)
        for _ in range(100):
            w = random_word(rng)
            assert parse_word(word_to_text(w), 2) == w

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_word("X1^2", 2)
        with pytest.raises(ParseError):
            parse_word("X9", 2)
        with pytest.raises(ParseError):
            parse_word("", 2)
