"""Reconstruction of the minimal staircase generators of a hidden ideal
from membership queries alone, plus the reduced basis read off the oracle.

The algorithm never inspects the hidden term order. In two variables it
walks the staircase outward from the first diagonal hit; in three or more
it learns the staircase through its corners, the maximal box terms
outside the generators found so far: an inside corner is lowered one
coordinate at a time to a new generator, which splits every corner it
divides, until every corner is confirmed outside. Every answer lives in
the oracle's attacker session and outlives the call, so no term is asked
twice, even by a later run, and pending corners wait in a heap.

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
from .oracle import _Attacker
from .polynomials import Polynomial, header, parse_polynomial, write_file
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


def _least(test: Callable[[int], bool], lo: int, hi: int, binary: bool) -> int:
    """Smallest v in [lo, hi] with test(v) true, for monotone test with
    test(hi) true, by bisection or by a walk up from lo; test(hi) itself
    is never asked."""
    while lo < hi:
        mid = (lo + hi) // 2 if binary else lo
        if test(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _scan_min_true(test: Callable[[int], bool], lo: int, hi: int, binary: bool):
    """Smallest v in [lo, hi] with test(v) true, for monotone test; None if
    none. Bisection asks test(hi) first, the walk last."""
    if lo > hi or binary and not test(hi):
        return None
    v = _least(test, lo, hi, binary)
    return v if binary or v < hi or test(hi) else None


def _drop_min_true(test: Callable[[int], bool], hi: int, binary: bool) -> int:
    """Smallest v in [0, hi] with test(v) true, given test(hi) is known true."""
    if binary:
        return _least(test, 0, hi, True)
    v = hi
    while v >= 1 and test(v - 1):
        v -= 1
    return v


# --- two variables -----------------------------------------------------------


def _walk(ask, a: int, b: int, bound: int, binary: bool) -> set[Term]:
    """Generators up and to the left of the generator (a, b); the
    down-right side is this walk on swapped coordinates."""
    out: set[Term] = set()
    # invariant: column a-1 is outside the leading ideal at heights <= b,
    # so the next generator leftward sits strictly above b
    while a >= 1:
        col = a - 1
        y = _scan_min_true(lambda v: ask((col, v)), b + 1, bound, binary)
        if y is None:
            break
        b = y
        a = _drop_min_true(lambda v: ask((v, b)), col, binary)
        out.add((a, b))
    return out


def _two_var_generators(oracle, bound: int, binary: bool) -> set[Term]:
    ask = _Attacker(oracle).member_T
    if ask((0, 0)):
        return {(0, 0)}
    j = _scan_min_true(lambda v: ask((v, v)), 1, bound, binary)
    if j is None:
        return set()
    # from the first diagonal hit (j, j), slide left along row j and down
    # column j to the corners of the sides the hit lies on
    left_in, down_in = ask((j - 1, j)), ask((j, j - 1))
    a = _drop_min_true(lambda v: ask((v, j)), j - 1, binary) if left_in else j
    b = _drop_min_true(lambda v: ask((j, v)), j - 1, binary) if down_in else j
    up = _walk(ask, a, j, bound, binary)
    down = _walk(lambda t: ask(t[::-1]), b, j, bound, binary)
    return minimal_terms({(a, j), (j, b)}) | up | {(x, y) for y, x in down}


# --- n >= 3: corner splitting -----------------------------------------------


def _corner_generators(oracle, n: int, bound: int, binary: bool) -> set[Term]:
    """In-box generators by corner splitting (see the module docstring);
    the cost follows the generators and corners, not the box."""
    member_T, known = oracle.member_T, _Attacker(oracle).answers
    gens: set[Term] = set()
    corners = {(bound,) * n}
    pending = [(bound,) * n]  # heap of corners to ask, smallest first; stale ones skipped
    while pending:
        c = heappop(pending)
        # stale: split away, or known outside; known inside from an earlier run, lowered unasked
        if c in corners and c not in known:
            known[c] = member_T(c)
        if c not in corners or not known[c]:
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


def reconstruct(oracle, n: int, bound: int, binary: bool = False) -> StaircaseResult:
    """Solve the reconstruction problem: generators of the leading-term
    ideal inside the box, the reduced basis elements t - Can(t), and the
    number of oracle queries spent. Refuses a negative bound before any
    query."""
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    start, attacker = oracle.queries, _Attacker(oracle)
    if n == 1:
        e = _scan_min_true(lambda v: attacker.member_T((v,)), 0, bound, binary)
        gens = set() if e is None else {(e,)}
    elif n == 2:
        gens = _two_var_generators(oracle, bound, binary)
    else:
        gens = _corner_generators(oracle, n, bound, binary)
    basis = tuple(map(attacker.element, sorted(gens, key=lambda t: (sum(t), t))))
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
    gens = sorted(res.generators, key=lambda t: (sum(t), t))
    return write_file(
        f"generators k={len(gens)} D={res.bound} n={res.nvars} p={res.modulus}",
        [*map(term_to_text, gens), "basis", *(g.to_text() for g in res.reduced_basis),
         f"queries {res.queries_used}"],
    )


def parse_result(text: str) -> StaircaseResult:
    (k, bound, n, p), lines = header(text, "generators", ("k", "D", "n", "p"))
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
