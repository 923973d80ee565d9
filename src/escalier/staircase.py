"""Reconstruction of the minimal staircase generators of a hidden ideal
from membership queries alone, plus the reduced basis read off the oracle.

The algorithm never inspects the hidden term order. In two variables it
walks the staircase outward from the first diagonal hit; in three or more
it learns the staircase through its corners, the maximal box terms
outside the generators found so far: an inside corner is lowered one
coordinate at a time to a new generator, which splits every corner it
divides, until every corner is confirmed outside. Pending corners wait in
a heap, smallest first, and each lowering scan reads the answers already
known, so no term is asked twice.

Every scan is a linear walk by default, a lowering one upward from 0; pass
binary=True to bisect the same monotone scans (membership along a ray
only switches once).
"""

from __future__ import annotations

import re
from bisect import bisect
from heapq import heappop, heappush
from itertools import product, repeat
from operator import le
from typing import Callable, NamedTuple

from .errors import ParseError, check_size, clip, decimal
from .polynomials import Polynomial, content_lines, header, parse_polynomial
from .terms import Term, minimal_terms, parse_term, term_to_text


def check_box(n: int, bound: int) -> None:
    """Refuse a box [0, bound]^n of more than 10^6 terms, the largest that
    brute force enumerates and that the CLI lets a reconstruction cover.
    For bound >= 1, 2^20 > 10^6, so 20 factors decide however large n is."""
    check_size((bound + 1) ** min(n, 20), "the box [0, bound]^n")


class StaircaseResult(NamedTuple):
    generators: frozenset[Term]
    reduced_basis: tuple[Polynomial, ...]
    queries_used: int
    bound: int
    nvars: int
    modulus: int


# --- monotone scans -------------------------------------------------------


def _bisect(test: Callable[[int], bool], lo: int, hi: int) -> int:
    """Smallest v in [lo, hi] with test(v) true, for monotone test with
    test(hi) true; test(hi) itself is never asked."""
    while lo < hi:
        mid = (lo + hi) // 2
        if test(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _scan_min_true(test: Callable[[int], bool], lo: int, hi: int, binary: bool):
    """Smallest v in [lo, hi] with test(v) true, for monotone test; None if none."""
    if lo > hi:
        return None
    if not binary:
        for v in range(lo, hi + 1):
            if test(v):
                return v
        return None
    if not test(hi):
        return None
    return _bisect(test, lo, hi)


def _drop_min_true(test: Callable[[int], bool], hi: int, binary: bool) -> int:
    """Smallest v in [0, hi] with test(v) true, given test(hi) is known true."""
    if binary:
        return _bisect(test, 0, hi)
    v = hi
    while v >= 1 and test(v - 1):
        v -= 1
    return v


# --- two variables -----------------------------------------------------------


def _walk(member, a: int, b: int, bound: int, binary: bool) -> set[Term]:
    """Generators up and to the left of the generator (a, b); the
    down-right side is this walk on swapped coordinates."""
    out: set[Term] = set()
    # invariant: column a-1 is outside the leading ideal at heights <= b,
    # so the next generator leftward sits strictly above b
    while a >= 1:
        col = a - 1
        y = _scan_min_true(lambda v: member(col, v), b + 1, bound, binary)
        if y is None:
            break
        b = y
        a = _drop_min_true(lambda v: member(v, b), col, binary)
        out.add((a, b))
    return out


def _two_var_generators(oracle, bound: int, binary: bool) -> set[Term]:
    def member(x: int, y: int) -> bool:
        return oracle.member_T((x, y))

    if member(0, 0):
        return {(0, 0)}
    j = _scan_min_true(lambda v: member(v, v), 1, bound, binary)
    if j is None:
        return set()
    # from the first diagonal hit (j, j), slide left along row j and down
    # column j to the corners of the sides the hit lies on
    left_in, down_in = member(j - 1, j), member(j, j - 1)
    a = _drop_min_true(lambda v: member(v, j), j - 1, binary) if left_in else j
    b = _drop_min_true(lambda v: member(j, v), j - 1, binary) if down_in else j
    up = _walk(member, a, j, bound, binary)
    down = _walk(lambda x, y: member(y, x), b, j, bound, binary)
    return minimal_terms({(a, j), (j, b)}) | up | {(x, y) for y, x in down}


# --- n >= 3: corner splitting -----------------------------------------------


def _corner_generators(oracle, n: int, bound: int, binary: bool) -> set[Term]:
    """In-box generators by corner splitting (see the module docstring);
    the cost follows the generators and corners, not the box."""
    member_T = oracle.member_T
    gens: set[Term] = set()
    corners = {(bound,) * n}
    pending = [(bound,) * n]  # heap of corners to ask, smallest first; stale ones skipped
    known: dict[Term, bool] = {}
    while pending:
        c = heappop(pending)
        # stale: an asked corner is confirmed outside, or c was split away
        if c in known or c not in corners:
            continue
        known[c] = inside = member_T(c)
        if not inside:
            continue
        # lower each coordinate in turn to its least inside value by one
        # monotone scan: bisection, or in linear mode upward from 0; the
        # current value is known inside, so reaching it costs no query
        g = c
        for i in range(n):
            head, tail = g[:i], g[i + 1 :]
            lo, hi = 0, g[i]
            while lo < hi:
                mid = (lo + hi) // 2 if binary else lo
                t = head + (mid,) + tail
                inside = known.get(t)
                if inside is None:
                    inside = known[t] = member_T(t)
                if inside:
                    hi = mid
                else:
                    lo = mid + 1
            g = head + (lo,) + tail
        gens.add(g)
        hit = {d for d in corners if all(map(le, g, d))}  # g divides d
        split = {d[:i] + (e - 1,) + d[i + 1 :] for d in hit for i, e in enumerate(g) if e}
        corners -= hit
        # untouched corners stay maximal; a split one may fall below another,
        # which then comes after it in tuple order
        above = sorted(corners | split)
        for d in split:
            if not any(map(all, map(map, repeat(le), repeat(d), above[bisect(above, d):]))):
                corners.add(d)
                heappush(pending, d)
    return gens


# --- public entry points ------------------------------------------------------


def _generators(oracle, n: int, bound: int, binary: bool) -> set[Term]:
    if n == 1:
        e = _scan_min_true(lambda v: oracle.member_T((v,)), 0, bound, binary)
        return set() if e is None else {(e,)}
    if n == 2:
        return _two_var_generators(oracle, bound, binary)
    return _corner_generators(oracle, n, bound, binary)


def reconstruct(oracle, n: int, bound: int, binary: bool = False) -> StaircaseResult:
    """Solve the reconstruction problem: generators of the leading-term
    ideal inside the box, the reduced basis elements t - Can(t), and the
    number of oracle queries spent."""
    start = oracle.queries
    gens = _generators(oracle, n, bound, binary)
    ordered = sorted(gens, key=lambda t: (sum(t), t))
    # t - Can(t) in one dict: Can(t) is normal, so it holds no term t
    basis = tuple(
        Polynomial._ring(n, oracle.p, {t: 1, **{s: -c for s, c in oracle.can_term(t).items()}})
        for t in ordered
    )
    return StaircaseResult(
        generators=frozenset(gens), reduced_basis=basis, queries_used=oracle.queries - start,
        bound=bound, nvars=n, modulus=oracle.p,
    )


def brute_force_generators(oracle, n: int, bound: int) -> set[Term]:
    """Baseline: query every term of the box [0, bound]^n and keep the
    divisibility-minimal members; always (bound+1)**n queries. Refuses a
    negative bound, and a box that check_box refuses."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    check_box(n, bound)
    members = [t for t in product(range(bound + 1), repeat=n) if oracle.member_T(t)]
    return minimal_terms(members)


# --- result serialization -----------------------------------------------------


def render_result(res: StaircaseResult) -> str:
    lines = [
        f"generators k={len(res.generators)} D={res.bound} n={res.nvars} p={res.modulus}"
    ]
    lines.extend(term_to_text(t) for t in sorted(res.generators, key=lambda t: (sum(t), t)))
    lines.append("basis")
    lines.extend(g.to_text() for g in res.reduced_basis)
    lines.append(f"queries {res.queries_used}")
    return "\n".join(lines) + "\n"


def parse_result(text: str) -> StaircaseResult:
    head, *lines = content_lines(text) or [""]
    k, bound, n, p = header(head, "generators", ("k", "D", "n", "p"))
    if len(lines) != 2 * k + 2 or lines[k] != "basis":
        raise ParseError(f"a result needs {k} generators, a basis line and {k} basis elements")
    gens = [parse_term(ln, n) for ln in lines[:k]]
    queries = re.fullmatch(r"queries ([0-9]+)", lines[-1])
    if not queries:
        raise ParseError(f"bad queries line: {clip(lines[-1])!r}")
    basis = tuple(parse_polynomial(ln, n, p) for ln in lines[k + 1 : -1])
    return StaircaseResult(
        generators=frozenset(gens), reduced_basis=basis, queries_used=decimal(queries[1]),
        bound=bound, nvars=n, modulus=p,
    )
