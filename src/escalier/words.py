"""Words over the variable alphabet, the length-graded word order, and
the word monoid.

A word is a plain tuple of 1-based variable indices; the empty tuple is
the term 1. The one word order ranks the letters X1 < X2 < ... < Xn.
Validity of the indices against an alphabet size is enforced at the
polynomial and oracle boundaries, where n is known. WordMonoid packages
the operations a free algebra over words needs.
"""

from __future__ import annotations

import re
from itertools import product
from operator import add
from typing import Iterator, Optional

from .terms import read_monomial

Word = tuple[int, ...]


def is_factor(pattern: Word, w: Word) -> bool:
    return WordMonoid.cofactor(tuple(pattern), tuple(w)) is not None


class WordOrder:
    """Length first, then leftmost-letter comparison with X1 < X2 < ... < Xn.

    Total, noetherian and compatible with two-sided multiplication. It has
    no settings, so WordOrder() returns its one instance.
    """

    __slots__ = ()

    def __new__(cls) -> WordOrder:
        return WordMonoid.default_order

    def key(self, w: Word):
        return (len(w), w)


_LETTER = re.compile(r"X(\d+)")


def word_to_text(w: Word) -> str:
    """Render as X1*X2*X1 style juxtaposition; 1 for the empty word."""
    return "*".join(f"X{i}" for i in w) if w else "1"


def parse_word(text: str, n: int) -> Word:
    """Parse the word grammar: the term grammar's product with no ^."""
    return tuple(i for i, _ in read_monomial(text, n, _LETTER, "word"))


class WordMonoid:
    """Words under concatenation: the monoid of the free algebra.

    A leading word reduces every word it is a factor of; the cofactor is
    the (left, right) pair around its leftmost occurrence, applied to a
    tail word by wrapping it.
    """

    default_order = object.__new__(WordOrder)  # the instance WordOrder() returns
    degree = staticmethod(len)
    render = staticmethod(word_to_text)
    parse = staticmethod(parse_word)

    @staticmethod
    def one(n: int) -> Word:
        return ()

    @staticmethod
    def of_degree(n: int, d: int) -> Iterator[Word]:
        """Every word of length d over X1..Xn, the last letter running
        fastest."""
        return product(range(1, n + 1), repeat=d)

    @staticmethod
    def validate(w, n: int) -> Word:
        w = tuple(w)
        if any(type(x) is not int or not 1 <= x <= n for x in w):
            raise ValueError(f"word {w} uses letters outside X1..X{n}")
        return w

    mul = staticmethod(add)

    @staticmethod
    def cofactor(lead: Word, w: Word) -> Optional[tuple[Word, Word]]:
        """(left, right) with w = left + lead + right at the leftmost
        occurrence of lead, or None when lead is not a factor of w."""
        k = len(lead)
        for start in range(len(w) - k + 1):
            if w[start : start + k] == lead:
                return w[:start], w[start + k :]
        return None

    @staticmethod
    def apply(cofactor: tuple[Word, Word], s: Word) -> Word:
        return cofactor[0] + s + cofactor[1]
