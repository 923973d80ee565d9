import hashlib
import random

import pytest

from escalier.errors import ParseError
from escalier.oracle import CanOracle
from escalier.polynomials import Polynomial, buchberger
from escalier.staircase import (
    _corner_generators,
    brute_force_generators,
    check_box,
    parse_result,
    reconstruct,
    render_result,
)
from helpers import (
    DEGLEX,
    P,
    monomial_oracle,
    poly,
    random_monomial_ideal,
    reference_corner_generators,
    zero_oracle,
)

EX51 = [(2, 2), (1, 3), (4, 1), (0, 8)]
EX52 = [(3, 2)]
EX53 = [(2, 4), (4, 3)]
EX6 = [(1, 3, 4), (0, 5, 3), (3, 2, 2), (4, 0, 1)]
CORNERS3 = [(2, 1, 0), (0, 2, 1), (1, 0, 3), (0, 0, 4)]
CORNERS4 = [(1, 1, 0, 0), (0, 2, 1, 0), (0, 0, 2, 2), (3, 0, 0, 1), (0, 3, 0, 3)]
CORNERS5 = [(1, 0, 1, 0, 0), (0, 2, 0, 0, 1), (0, 0, 0, 3, 0), (2, 0, 0, 0, 2), (0, 1, 2, 1, 0)]
# box bound per variable count, shrinking so every n costs about the same
BOUNDS = {1: 12, 2: 12, 3: 6, 4: 4, 5: 3, 6: 2}


def _agrees_with_brute_force(gens, n, bound):
    """Reconstruct in both scan modes, check each against brute force and
    return the brute-force generators."""
    brute = brute_force_generators(monomial_oracle(gens, n), n, bound)
    for binary in (False, True):
        got = reconstruct(monomial_oracle(gens, n), n, bound, binary=binary)
        assert got.generators == frozenset(brute)
    return brute


class TestTwoVariables:
    @pytest.mark.parametrize(
        "gens,bound,budget",
        [(EX51, 8, 81), (EX52, 5, 36), (EX53, 7, 64)],
    )
    def test_golden_staircases(self, gens, bound, budget):
        o = monomial_oracle(gens, 2)
        got = reconstruct(o, 2, bound).generators
        assert got == set(gens)
        assert o.queries < budget

    @pytest.mark.parametrize(
        "gens,bound,linear,binary",
        [(EX51, 8, 23, 25), (EX52, 5, 12, 10), (EX53, 7, 18, 15)],
    )
    def test_pinned_query_counts(self, gens, bound, linear, binary):
        for mode, expected in ((False, linear), (True, binary)):
            res = reconstruct(monomial_oracle(gens, 2), 2, bound, binary=mode)
            assert res.queries_used == expected

    def test_zero_ideal(self):
        assert reconstruct(zero_oracle(2), 2, 5).generators == set()

    def test_unit_ideal(self):
        o = CanOracle.commutative([poly("1")], DEGLEX)
        assert reconstruct(o, 2, 5).generators == {(0, 0)}

    def test_brute_force_counts(self):
        o = monomial_oracle(EX51, 2)
        got = brute_force_generators(o, 2, 8)
        assert got == set(EX51)
        assert o.queries == 81

    def test_brute_force_zero_ideal(self):
        o = zero_oracle(3)
        assert brute_force_generators(o, 3, 2) == set()
        assert o.queries == 27

    @pytest.mark.parametrize("n,bound,count", [(1, 2, 3), (2, 1, 4), (3, 8, 729)])
    def test_brute_force_asks_each_box_term_once(self, n, bound, count):
        asked = []

        class Recorder:
            def member_T(self, t):
                asked.append(t)
                return False

        assert brute_force_generators(Recorder(), n, bound) == set()
        assert len(asked) == len(set(asked)) == count
        assert all(len(t) == n and max(t) <= bound for t in asked)

    def test_brute_force_refuses_a_negative_bound(self):
        o = zero_oracle(2)
        with pytest.raises(ValueError):
            brute_force_generators(o, 2, -1)
        assert o.queries == 0

    def test_box_limit_edge(self):
        check_box(3, 99)  # 100^3 = 10^6 terms, the limit itself
        with pytest.raises(ParseError):
            check_box(3, 100)

    def test_box_limit_on_sizes_of_thousands_of_digits(self):
        check_box(10_000, 0)  # a box of one term
        with pytest.raises(ParseError, match="exceeds the limit of 10\\^6 terms"):
            check_box(5000, 10)
        with pytest.raises(ParseError):
            check_box(10_000, 10**5000)

    def test_brute_force_refuses_a_huge_box(self):
        # 101^3 terms, just over the limit: refused before any query
        o = zero_oracle(3)
        with pytest.raises(ValueError):
            brute_force_generators(o, 3, 100)
        assert o.queries == 0


class TestReconstruct:
    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_negative_bound_refused_before_any_query(self, n, binary):
        # the whole ring: at n = 2, (0, 0) is inside the ideal but outside the empty box
        o = monomial_oracle([(0,) * n], n)
        with pytest.raises(ValueError, match="^bound must be nonnegative$"):
            reconstruct(o, n, -1, binary=binary)
        assert o.queries == 0

    def test_three_var_golden(self):
        o = monomial_oracle(EX6, 3)
        res = reconstruct(o, 3, 8)
        assert res.generators == set(EX6)
        assert res.queries_used < 729

    def test_zero_ideal(self):
        res = reconstruct(zero_oracle(3), 3, 4)
        assert res.generators == frozenset()
        assert res.reduced_basis == ()

    def test_one_variable(self):
        o = monomial_oracle([(3,)], 1)
        assert reconstruct(o, 1, 6).generators == {(3,)}

    def test_reduced_basis_contract(self):
        o = monomial_oracle(EX51, 2)
        res = reconstruct(o, 2, 8)
        check = monomial_oracle(EX51, 2)
        for g in res.reduced_basis:
            assert g.leading_term(DEGLEX) in res.generators
            assert check.can_poly(g).is_zero()

    def test_non_monomial_reduced_basis(self):
        gb = buchberger([poly("X1^2 + X2"), poly("X2^2 + 1")], DEGLEX)
        res = reconstruct(CanOracle.commutative(gb), 2, 2)
        got = sorted(res.reduced_basis, key=lambda g: DEGLEX.key(g.leading_term(DEGLEX)))
        assert tuple(got) == gb.elements

    def test_soundness_via_classify(self):
        # every generator is a corner: inside, with every predecessor outside
        res = reconstruct(monomial_oracle(EX6, 3), 3, 8)
        fresh = monomial_oracle(EX6, 3)
        for t in res.generators:
            assert fresh.member_T(t)
            for i in range(3):
                if t[i] > 0:
                    pred = tuple(e - (k == i) for k, e in enumerate(t))
                    assert not fresh.member_T(pred)

    def test_level_growth_off_the_witness_line(self):
        # slices along X3 go (0,5) -> (0,5),(4,2) -> (0,2): the middle
        # level holds a generator off the diagonal witness line
        gens = [(0, 2, 4), (4, 2, 3), (0, 5, 2)]
        res = reconstruct(monomial_oracle(gens, 3), 3, 8)
        assert res.generators == set(gens)

    @pytest.mark.parametrize(
        "gens,n,bound",
        [
            ([(0, 0, 2)], 3, 8),
            ([(0, 0, 2), (5, 0, 0)], 3, 8),
            ([(0, 8, 0)], 3, 8),
            ([(2, 2, 2, 2)], 4, 6),
            ([(0, 0, 0, 3), (3, 0, 0, 0)], 4, 6),
        ],
    )
    def test_pure_power_edges(self, gens, n, bound):
        res = reconstruct(monomial_oracle(gens, n), n, bound)
        assert res.generators == set(gens)
        assert res.queries_used < (bound + 1) ** n

    def test_equivalence_random(self):
        rng = random.Random(42)
        cases = [
            (gens, n, bound)
            for n in range(3, 7)
            for gens in ([], [(0,) * n])
            for bound in (0, BOUNDS[n])
        ]
        for _ in range(60):
            n = rng.choice(sorted(BOUNDS))
            cases.append((random_monomial_ideal(rng, n, BOUNDS[n]), n, BOUNDS[n]))
        for gens, n, bound in cases:
            # the sampled generators are the oracle-free ground truth here
            assert _agrees_with_brute_force(gens, n, bound) == set(gens)

    def test_random_ideal_fits_a_small_box(self):
        # [0, 2]^1 holds two nonunit terms: at most two draws, then it returns
        for seed in range(40):
            assert random_monomial_ideal(random.Random(seed), 1, 2) in ({(1,)}, {(2,)})
        with pytest.raises(ValueError, match="no nonunit term"):
            random_monomial_ideal(random.Random(0), 1, 0)

    def test_equivalence_generators_outside_box(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.choice(sorted(BOUNDS))
            bound = rng.randint(0, BOUNDS[n])
            _agrees_with_brute_force(random_monomial_ideal(rng, n, bound + 3), n, bound)

    @pytest.mark.parametrize("binary", [False, True])
    def test_query_budget_three_variables(self, binary):
        # corner splitting pays per generator and corner, not per level
        res = reconstruct(monomial_oracle(EX6, 3), 3, 8, binary=binary)
        assert res.generators == set(EX6)
        assert res.queries_used < 100

    def test_query_frugality_on_goldens(self):
        for gens, n, bound in [(EX51, 2, 8), (EX52, 2, 5), (EX53, 2, 7), (EX6, 3, 8)]:
            o = monomial_oracle(gens, n)
            res = reconstruct(o, n, bound)
            assert res.queries_used < (bound + 1) ** n

    @pytest.mark.parametrize(
        "gens,n,bound,binary,total,digest",
        [
            (CORNERS3, 3, 5, False, 32, "f307cb4947a7"),
            (CORNERS3, 3, 5, True, 36, "63dfd8fd6d56"),
            (CORNERS4, 4, 4, False, 42, "4f936e613f98"),
            (CORNERS4, 4, 4, True, 49, "fa96cb835c33"),
            (CORNERS5, 5, 3, False, 49, "c2ec1fe94208"),
            (CORNERS5, 5, 3, True, 55, "7078c4bbf6e8"),
        ],
    )
    def test_pinned_query_sequence(self, gens, n, bound, binary, total, digest):
        # every query and its order, not only the count, is part of the
        # behaviour a faster oracle or corner loop must keep: digest is
        # the first 12 hex digits of sha256(repr(asked))
        oracle, asked = monomial_oracle(gens, n), []

        class Recorder:
            p = oracle.p

            @property
            def queries(self):
                return oracle.queries

            def member_T(self, t):
                asked.append(("member_T", t))
                return oracle.member_T(t)

            def can_term(self, t):
                asked.append(("can_term", t))
                return oracle.can_term(t)

        res = reconstruct(Recorder(), n, bound, binary=binary)
        assert res.generators == set(gens)
        assert res.queries_used == len(asked) == total
        assert hashlib.sha256(repr(asked).encode()).hexdigest()[:12] == digest

    def test_corner_loop_asks_what_its_reference_asks(self):
        # the heap of pending corners and the inline lowering keep the
        # reference loop's member_T sequence and generators exactly
        rng = random.Random(47)
        cases = [(ideal, n, 4) for n in range(3, 7) for ideal in ([], [poly("1", n)])]
        for _ in range(150):
            n, bound = rng.randint(3, 6), rng.randint(0, 6)
            terms = [_sparse_term(rng, n, bound + 1) for _ in range(rng.randint(2, 8))]
            if rng.random() < 0.5:
                ideal = [Polynomial.term(t, P) for t in terms]
            else:  # binomials: the leading-term ideal of a completed basis
                ideal = [Polynomial(n, P, {a: 1, b: P - 1}) for a, b in zip(terms[::2], terms[1::2])]
            cases.append((ideal, n, bound))
        for ideal, n, bound in cases:
            oracle = CanOracle.commutative(ideal, DEGLEX, n=n, p=P)
            for binary in (False, True):
                asked, expected = [], []
                got = _corner_generators(_Asking(oracle, asked), n, bound, binary)
                want = reference_corner_generators(_Asking(oracle, expected), n, bound, binary)
                assert asked == expected
                assert got == want

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_never_asks_a_term_twice(self, n, binary):
        # the corner memo is the only guard against repeats; the inline
        # probe reads it before every query
        rng = random.Random(48 + n)
        for _ in range(10):
            gens = [_sparse_term(rng, n, BOUNDS[n]) for _ in range(rng.randint(2, 8))]
            res = reconstruct(_Once(monomial_oracle(gens, n)), n, BOUNDS[n], binary=binary)
            assert res.generators == brute_force_generators(monomial_oracle(gens, n), n, BOUNDS[n])


def _sparse_term(rng, n, top):
    """A nonunit term with about 40% of its exponents in 1..top, the rest
    0, so that most generators of a few such terms fall inside the box."""
    t = [rng.randint(1, top) if rng.random() < 0.4 else 0 for _ in range(n)]
    t[rng.randrange(n)] = rng.randint(1, top)
    return tuple(t)


class _Asking:
    """Oracle proxy that records every member_T term it passes on."""

    def __init__(self, oracle, asked):
        self.oracle, self.asked = oracle, asked

    def member_T(self, t):
        self.asked.append(t)
        return self.oracle.member_T(t)


class _Once:
    """Oracle proxy that refuses to answer a member_T term twice."""

    def __init__(self, oracle):
        self.oracle, self.p, self.asked = oracle, oracle.p, set()

    @property
    def queries(self):
        return self.oracle.queries

    def member_T(self, t):
        if t in self.asked:
            raise AssertionError(f"member_T asked {t} twice")
        self.asked.add(t)
        return self.oracle.member_T(t)

    def can_term(self, t):
        return self.oracle.can_term(t)


class TestBinarySearchMode:
    def test_same_output_fewer_scans(self):
        for gens, n, bound in [(EX51, 2, 8), (EX6, 3, 8)]:
            linear = reconstruct(monomial_oracle(gens, n), n, bound)
            fast = reconstruct(monomial_oracle(gens, n), n, bound, binary=True)
            assert linear.generators == fast.generators

    def test_random_agreement(self):
        rng = random.Random(44)
        for _ in range(30):
            n = rng.choice([2, 3])
            gens = random_monomial_ideal(rng, n, 6)
            a = reconstruct(monomial_oracle(gens, n), n, 6).generators
            b = reconstruct(monomial_oracle(gens, n), n, 6, binary=True).generators
            assert a == b


class TestSerialization:
    def test_roundtrip(self):
        res = reconstruct(monomial_oracle(EX51, 2), 2, 8)
        back = parse_result(render_result(res))
        # a named tuple also equals a plain tuple: check the type as well
        assert type(back) is type(res) and back == res

    def test_empty_roundtrip(self):
        res = reconstruct(zero_oracle(2), 2, 3)
        assert parse_result(render_result(res)) == res

    def test_zero_variables_refused(self):
        with pytest.raises(ParseError):
            parse_result("generators k=0 D=2 n=0 p=7\nbasis\nqueries 1\n")

    @pytest.mark.parametrize(
        "queries", ["queries -5", "queries 12 13", "queries", "queries x", "query 3", "queries 1.5"]
    )
    def test_bad_queries_line_refused(self, queries):
        text = render_result(reconstruct(monomial_oracle(EX52, 2), 2, 4))
        head, _, _ = text.rstrip("\n").rpartition("\n")
        assert parse_result(f"{head}\nqueries 7\n").queries_used == 7
        with pytest.raises(ParseError):
            parse_result(f"{head}\n{queries}\n")

    def test_bad_queries_line_echo_is_clipped(self):
        text = render_result(reconstruct(monomial_oracle(EX52, 2), 2, 4))
        head, _, _ = text.rstrip("\n").rpartition("\n")
        with pytest.raises(ParseError, match="^bad queries line: 'queries x'$"):
            parse_result(f"{head}\nqueries x\n")
        line = "queries " + "x" * 3000
        with pytest.raises(ParseError) as refused:
            parse_result(f"{head}\n{line}\n")
        assert str(refused.value) == f"bad queries line: '{line[:60]}...'"

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_basis_of_another_size_refused(self, extra):
        # the header's k counts the generators and the basis elements alike
        res = reconstruct(monomial_oracle(EX51, 2), 2, 8)
        lines = render_result(res).splitlines()
        cut = lines.index("basis") + 1
        body = lines[cut:-1] + ["X1^9"] if extra > 0 else lines[cut:-2]
        with pytest.raises(ParseError):
            parse_result("\n".join(lines[:cut] + body + lines[-1:]) + "\n")
