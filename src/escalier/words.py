"""Words over the variable alphabet, the length-graded word order, and
the word monoid.

A word is a plain tuple of 1-based variable indices; the empty tuple is
the term 1. Validity of the indices against an alphabet size is enforced
at the polynomial and oracle boundaries, where n is known. WordMonoid
packages the operations a free algebra over words needs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .errors import ParseError

Word = tuple[int, ...]


def subword_occurrences(pattern: Word, w: Word) -> list[tuple[Word, Word]]:
    """All (prefix, suffix) pairs with w = prefix + pattern + suffix, left to right."""
    pattern = tuple(pattern)
    w = tuple(w)
    k = len(pattern)
    out = []
    for start in range(len(w) - k + 1):
        if w[start : start + k] == pattern:
            out.append((w[:start], w[start + k :]))
    return out


def is_factor(pattern: Word, w: Word) -> bool:
    pattern = tuple(pattern)
    w = tuple(w)
    k = len(pattern)
    return any(w[i : i + k] == pattern for i in range(len(w) - k + 1))


@dataclass(frozen=True)
class WordOrder:
    """Length first, then leftmost-letter comparison by variable precedence.

    Total, noetherian and compatible with two-sided multiplication. The
    default precedence is X1 < X2 < ... < Xn.
    """

    precedence: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.precedence is not None:
            prec = tuple(self.precedence)
            if sorted(prec) != list(range(1, len(prec) + 1)):
                raise ValueError("precedence must be a permutation of 1..n")
            object.__setattr__(self, "precedence", prec)

    def _rank(self, letter: int) -> int:
        if self.precedence is None:
            return letter
        try:
            return self.precedence.index(letter) + 1
        except ValueError:
            raise ValueError(f"letter X{letter} outside the order's alphabet") from None

    def key(self, w: Word):
        return (len(w), tuple(self._rank(x) for x in w))


_LETTER = re.compile(r"^X(\d+)$")


def word_to_text(w: Word) -> str:
    """Render as X1*X2*X1 style juxtaposition; 1 for the empty word."""
    return "*".join(f"X{i}" for i in w) if w else "1"


def parse_word(text: str, n: int) -> Word:
    body = text.strip()
    if not body:
        raise ParseError("empty word")
    if body == "1":
        return ()
    letters = []
    for raw in body.split("*"):
        factor = raw.strip()
        if factor == "1":
            continue
        m = _LETTER.match(factor)
        if not m:
            raise ParseError(f"bad word factor {factor!r}")
        i = int(m.group(1))
        if not 1 <= i <= n:
            raise ParseError(f"variable X{i} out of range 1..{n}")
        letters.append(i)
    return tuple(letters)


class WordMonoid:
    """Words under concatenation: the monoid of the free algebra.

    A leading word reduces every word it is a factor of; the cofactor is
    the (left, right) pair around its leftmost occurrence, applied to a
    tail word by wrapping it.
    """

    default_order = WordOrder()
    degree = staticmethod(len)
    render = staticmethod(word_to_text)
    parse = staticmethod(parse_word)

    @staticmethod
    def one(n: int) -> Word:
        return ()

    @staticmethod
    def validate(w, n: int) -> Word:
        w = tuple(w)
        if any(not 1 <= x <= n for x in w):
            raise ValueError(f"word {w} uses letters outside X1..X{n}")
        return w

    @staticmethod
    def mul(u: Word, v: Word) -> Word:
        return u + v

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
