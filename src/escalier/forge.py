"""Construction of ideal pairs that agree on every polynomial up to a
chosen degree yet differ above it.

Starting from the reduced basis G of an ideal J and an agreement degree
past the basis degrees, every generator is multiplied by X2 (the shifted
ideal), and one extra element is added whose lead is the order-smallest
leading-ideal term one degree above the agreement threshold (the cap).
Below the threshold the two ideals are indistinguishable, so any
box-bounded reconstruction run with too small a bound returns the
shifted ideal's staircase instead of the full one.

The cap lead is read off the leads of G. Write D for the cap degree: a
leading-ideal term of degree D is l*m for some lead l, and every graded
order ranks X1 smallest, so l*m is never below l*X1^(D - deg l) (Cox,
Little & O'Shea, Ideals, Varieties, and Algorithms, 2.2).

Only the extended ideal is completed: multiplying by a monomial keeps
leads, reduced tails and element order, so X2*G is the reduced basis of
X2*J, and the extended set is a Groebner basis iff its leads include
every lead of the extended reduced basis (ibid., 2.5-2.7).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Union

from .errors import ParseError, check_size
from .oracle import CanOracle
from .polynomials import GroebnerBasis, Polynomial, Reducer, buchberger, gb_degree, normal_form
from .staircase import reconstruct
from .terms import Term, TermOrder, term_to_text, variable


class ForgedPair(NamedTuple):
    """The two oracles' ideals and the data used to build them."""

    base: GroebnerBasis                     # reduced basis of J
    agree_degree: int                       # polynomials agree up to here
    cap_lead: Term                          # smallest lead of degree agree_degree + 1
    cap_poly: Polynomial                    # cap_lead minus its canonical form over J
    extended_set: tuple[Polynomial, ...]    # cap_poly plus the shifted basis
    shifted_basis: GroebnerBasis            # X2 * (basis of J), reduced by construction
    extended_basis: GroebnerBasis           # reduced basis of the extended ideal
    extended_is_groebner: bool              # each extended_basis lead is a lead of the set
    closed_form_matches: bool               # cap lead equals the padded smallest lead
    order: TermOrder
    n: int
    p: int


def build_counterexample(
    generators: Union[GroebnerBasis, Iterable[Polynomial]],
    order: TermOrder,
    agree_degree: int,
) -> ForgedPair:
    """Build the agreeing-then-diverging ideal pair from a basis of J.

    Needs a degree-compatible order, at least two variables and
    n * (agree_degree + 2) <= 10^6 (the terms the demo's scans reach),
    all checked before any completion, and agree_degree at least one more
    than the largest basis degree. The cap lead is the order-smallest
    padded lead l*X1^(D - deg l), D = agree_degree + 1: any other
    multiple of l of degree D has its X2..Xn exponents at least as large,
    one of them larger, so its X1 exponent smaller, and ranks above under
    deglex and degrevlex alike. closed_form_matches reports whether the
    padded smallest lead alone gives the cap, which it need not.
    """
    if isinstance(generators, GroebnerBasis):
        order, gens = generators.order, generators.elements
    else:
        gens = tuple(generators)
    if not order.degree_compatible:
        raise ParseError("the construction needs a degree-compatible order")
    if gens:
        if gens[0].n < 2:
            raise ParseError("the construction needs at least two variables")
        check_size(gens[0].n * (agree_degree + 2), "the forge scan of n * (delta + 2) terms")
    base = generators if isinstance(generators, GroebnerBasis) else buchberger(gens, order)
    n, p = base.elements[0].n, base.elements[0].p
    if agree_degree < gb_degree(base) + 1:
        raise ParseError(f"agreement degree must be at least {gb_degree(base) + 1}")

    def pad(t: Term) -> Term:
        return (t[0] + agree_degree + 1 - sum(t),) + t[1:]

    leads = base.leading_terms()
    cap_lead = min(map(pad, leads), key=order.key)
    closed_form_matches = pad(min(leads, key=order.key)) == cap_lead

    cap_term = Polynomial.term(cap_lead, p)
    cap_poly = cap_term - normal_form(cap_term, Reducer(base.elements, order))

    x2 = Polynomial.term(variable(n, 2), p)
    shifted_basis = GroebnerBasis(tuple(x2 * g for g in base.elements), order)
    extended_set = (cap_poly,) + shifted_basis.elements
    extended_basis = buchberger(list(extended_set), order)
    set_leads = {g.leading_term(order) for g in extended_set}

    return ForgedPair(
        base=base,
        agree_degree=agree_degree,
        cap_lead=cap_lead,
        cap_poly=cap_poly,
        extended_set=extended_set,
        shifted_basis=shifted_basis,
        extended_basis=extended_basis,
        extended_is_groebner=set(extended_basis.leading_terms()) <= set_leads,
        closed_form_matches=closed_form_matches,
        order=order,
        n=n,
        p=p,
    )


class BoundDemo(NamedTuple):
    """Reconstruction of the extended ideal at two bounds: the small one
    reproduces the shifted ideal's staircase, the large one the real
    staircase, and the two disagree."""

    bound_small: int
    bound_big: int
    small_generators: frozenset[Term]
    big_generators: frozenset[Term]
    small_matches_shifted: bool
    big_matches_extended: bool
    differ: bool
    queries_small: int
    queries_big: int


def demonstrate_bound_necessity(pair: ForgedPair) -> BoundDemo:
    """Reconstruct over the extended ideal's oracle at the agreement degree,
    then one above it, charged only its new queries; report both runs."""
    small, big = pair.agree_degree, pair.agree_degree + 1

    oracle = CanOracle.commutative(pair.extended_basis)
    res_small = reconstruct(oracle, pair.n, small)
    res_big = reconstruct(oracle, pair.n, big)
    # the leads of a reduced basis are its minimal generators
    expected_small = frozenset(
        t for t in pair.shifted_basis.leading_terms() if max(t) <= small
    )
    expected_big = frozenset(
        t for t in pair.extended_basis.leading_terms() if max(t) <= big
    )
    return BoundDemo(
        bound_small=small,
        bound_big=big,
        small_generators=res_small.generators,
        big_generators=res_big.generators,
        small_matches_shifted=res_small.generators == expected_small,
        big_matches_extended=res_big.generators == expected_big,
        differ=res_small.generators != res_big.generators,
        queries_small=res_small.queries_used,
        queries_big=res_big.queries_used,
    )


def render_demo(demo: BoundDemo) -> str:
    def show(ts):
        return ", ".join(term_to_text(t) for t in sorted(ts, key=lambda t: (sum(t), t))) or "-"

    lines = [
        f"bound {demo.bound_small}: generators {show(demo.small_generators)}"
        f" (queries {demo.queries_small})",
        f"bound {demo.bound_big}: generators {show(demo.big_generators)}"
        f" (queries {demo.queries_big})",
        f"small bound matches shifted ideal: {demo.small_matches_shifted}",
        f"big bound matches extended ideal: {demo.big_matches_extended}",
        f"outputs differ: {demo.differ}",
    ]
    return "\n".join(lines) + "\n"
