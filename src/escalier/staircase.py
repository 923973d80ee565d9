"""Reconstruction of the minimal staircase generators of a hidden ideal
from membership queries alone, plus the reduced basis read off the oracle.

The algorithm never inspects the hidden term order. In two variables it
walks the staircase outward from the first diagonal hit; in three or more
it slices the exponent space along the last variable, reconstructs each
slice with the lower-dimensional algorithm through a pinned-coordinate
view of the oracle, and keeps the slice generators whose last-variable
predecessor falls outside the leading-term ideal.

Every scan is a linear walk by default; pass binary=True to bisect the
same monotone scans (membership along a ray only switches once).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ParseError
from .polynomials import Polynomial, content_lines, header, parse_polynomial
from .terms import Box, Term, box_enumerate, minimal_terms, parse_term, term_to_text


@dataclass(frozen=True)
class StaircaseResult:
    generators: frozenset[Term]
    reduced_basis: tuple[Polynomial, ...]
    queries_used: int
    bound: int
    nvars: int
    modulus: int


# --- monotone scans -------------------------------------------------------


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
    while lo < hi:
        mid = (lo + hi) // 2
        if test(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _drop_min_true(test: Callable[[int], bool], hi: int, binary: bool) -> int:
    """Smallest v in [0, hi] with test(v) true, given test(hi) is known true."""
    if not binary:
        v = hi
        while v >= 1 and test(v - 1):
            v -= 1
        return v
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if test(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


# --- one variable -----------------------------------------------------------


def _one_var_generators(oracle, bound: int, binary: bool) -> set[Term]:
    e = _scan_min_true(lambda v: oracle.member_T((v,)), 0, bound, binary)
    return set() if e is None else {(e,)}


# --- two variables -----------------------------------------------------------


def _walk_up_left(oracle, a: int, b: int, bound: int, out: set, binary: bool) -> None:
    # invariant on entry: column a-1 is outside the leading ideal at
    # heights <= b, so the next generator leftward sits strictly above b
    while a >= 1:
        col = a - 1
        y = _scan_min_true(
            lambda v: oracle.member_T((col, v)), b + 1, bound, binary
        )
        if y is None:
            return
        b = y
        a = _drop_min_true(lambda v: oracle.member_T((v, b)), col, binary)
        out.add((a, b))


def _walk_down_right(oracle, a: int, b: int, bound: int, out: set, binary: bool) -> None:
    while b >= 1:
        row = b - 1
        x = _scan_min_true(
            lambda v: oracle.member_T((v, row)), a + 1, bound, binary
        )
        if x is None:
            return
        a = x
        b = _drop_min_true(lambda v: oracle.member_T((a, v)), row, binary)
        out.add((a, b))


def _two_var_generators(oracle, bound: int, binary: bool) -> set[Term]:
    if oracle.member_T((0, 0)):
        return {(0, 0)}
    j = _scan_min_true(lambda v: oracle.member_T((v, v)), 1, bound, binary)
    if j is None:
        return set()

    left_in = oracle.member_T((j - 1, j))
    down_in = oracle.member_T((j, j - 1))
    gens: set[Term] = set()

    if not left_in and not down_in:
        # concave vertex right on the diagonal
        gens.add((j, j))
        up_a, up_b = j, j
        down_a, down_b = j, j
    elif down_in and not left_in:
        # diagonal pierces a vertical side: slide to its bottom corner
        b = _drop_min_true(lambda v: oracle.member_T((j, v)), j - 1, binary)
        gens.add((j, b))
        up_a, up_b = j, j
        down_a, down_b = j, b
    elif left_in and not down_in:
        # horizontal side: slide to its left corner
        a = _drop_min_true(lambda v: oracle.member_T((v, j)), j - 1, binary)
        gens.add((a, j))
        up_a, up_b = a, j
        down_a, down_b = j, j
    else:
        # interior hit: both neighbours sit on the border; find both corners
        a = _drop_min_true(lambda v: oracle.member_T((v, j)), j - 1, binary)
        gens.add((a, j))
        b = _drop_min_true(lambda v: oracle.member_T((j, v)), j - 1, binary)
        gens.add((j, b))
        up_a, up_b = a, j
        down_a, down_b = j, b

    _walk_up_left(oracle, up_a, up_b, bound, gens, binary)
    _walk_down_right(oracle, down_a, down_b, bound, gens, binary)
    return gens


# --- n >= 3: hyperplane slicing ---------------------------------------------


class _SliceView:
    """Membership view of the hyperplane with the last exponent pinned.

    A slice of the leading-term ideal is upward closed in the remaining
    variables, so the lower-dimensional algorithm applies unchanged; the
    ledger stays with the parent oracle.
    """

    __slots__ = ("_parent", "_level")

    def __init__(self, parent, level: int):
        self._parent = parent
        self._level = level

    def member_T(self, sigma) -> bool:
        return self._parent.member_T(tuple(sigma) + (self._level,))


def _process_level(oracle, n: int, bound: int, level: int, out: set, binary: bool):
    """Reconstruct one slice and keep its generators that are new at this
    level (last-variable predecessor outside). Returns (sigma, below) pairs
    where below records membership of sigma one level down."""
    slice_gens = _generators(_SliceView(oracle, level), n - 1, bound, binary)
    summary = []
    for sigma in sorted(slice_gens):
        if level == 0:
            out.add(sigma + (0,))
            summary.append((sigma, False))
        else:
            below = oracle.member_T(sigma + (level - 1,))
            if not below:
                out.add(sigma + (level,))
            summary.append((sigma, below))
    return summary


def _sliced_generators(oracle, n: int, bound: int, binary: bool) -> set[Term]:
    if oracle.member_T((0,) * n):
        return {(0,) * n}
    j = _scan_min_true(lambda v: oracle.member_T((v,) * n), 1, bound, binary)
    if j is None:
        return set()

    gens: set[Term] = set()
    first = _process_level(oracle, n, bound, j, gens, binary)

    # upward: a generator can appear at any higher level, so every slice
    # up to the bound is reconstructed and filtered
    for level in range(j + 1, bound + 1):
        _process_level(oracle, n, bound, level, gens, binary)

    # downward: before reconstructing the next slice, check that anything
    # of the ideal survives there at all. Scanning the diagonal ray from
    # each in-box slice generator is exhaustive: any surviving point is
    # dominated by a slice generator, and the dominating generator of an
    # in-box point is itself in the box. Skipping levels by dropping a
    # single witness line can overshoot a level where the slice grows off
    # the line, so no level is skipped.
    level = j
    summary = first
    while level >= 1 and summary:
        below = any(b for _, b in summary)
        if not below:
            for sigma, _ in summary:
                cap = max(bound - c for c in sigma)
                probe = lambda l, s=sigma: oracle.member_T(
                    tuple(c + l for c in s) + (level - 1,)
                )
                if _scan_min_true(probe, 1, cap, binary) is not None:
                    below = True
                    break
        if not below:
            break
        level -= 1
        summary = _process_level(oracle, n, bound, level, gens, binary)
    return gens


# --- public entry points ------------------------------------------------------


def _generators(oracle, n: int, bound: int, binary: bool) -> set[Term]:
    if n == 1:
        return _one_var_generators(oracle, bound, binary)
    if n == 2:
        return _two_var_generators(oracle, bound, binary)
    return _sliced_generators(oracle, n, bound, binary)


def reconstruct(oracle, n: int, bound: int, binary: bool = False) -> StaircaseResult:
    """Solve the reconstruction problem: generators of the leading-term
    ideal inside the box, the reduced basis elements t - Can(t), and the
    number of oracle queries spent."""
    start = oracle.queries
    gens = _generators(oracle, n, bound, binary)
    ordered = sorted(gens, key=lambda t: (sum(t), t))
    basis = tuple(
        Polynomial.term(t, oracle.p) - oracle.can_term(t) for t in ordered
    )
    return StaircaseResult(
        generators=frozenset(gens),
        reduced_basis=basis,
        queries_used=oracle.queries - start,
        bound=bound,
        nvars=n,
        modulus=oracle.p,
    )


def brute_force_generators(oracle, n: int, bound: int) -> set[Term]:
    """Baseline: query every box term and keep the divisibility-minimal
    members; always (bound+1)**n queries."""
    members = [
        t for t in box_enumerate(Box(n, bound)) if oracle.member_T(t)
    ]
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
    if len(lines) < k + 2 or lines[k] != "basis":
        raise ParseError("generator count does not match the header")
    gens = [parse_term(ln, n) for ln in lines[:k]]
    body = lines[k + 1 :]
    if not body[-1].startswith("queries"):
        raise ParseError("missing queries line")
    try:
        queries = int(body[-1].split()[1])
    except (IndexError, ValueError):
        raise ParseError(f"bad queries line: {body[-1]!r}") from None
    basis = tuple(parse_polynomial(ln, n, p) for ln in body[:-1])
    return StaircaseResult(
        generators=frozenset(gens),
        reduced_basis=basis,
        queries_used=queries,
        bound=bound,
        nvars=n,
        modulus=p,
    )
