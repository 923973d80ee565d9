"""Command-line front end: build oracles from ideal files, run the
reconstructions and attacks, and emit the documented text formats.

Exit codes, all set in run(): 0 success, 1 math-layer error, 2 a refused
request (a ParseError, raised by the check that decides it) or a file
that cannot be read; each error is one ``error:`` line on stderr. All
randomness flows from --seed, so identical invocations produce identical
bytes.
"""

from __future__ import annotations

import argparse
import random
import sys
from itertools import combinations
from pathlib import Path

from . import crypto, forge
from .errors import ParseError, check_size, clip, decimal
from .nc_polynomials import overlap_check, parse_free_file, render_free_file
from .oracle import CanOracle
from .peeling import covering_basis
from .polynomials import (
    Reducer,
    content_lines,
    normal_form,
    parse_ideal_file,
    parse_polynomial,
    render_ideal_file,
    s_polynomial,
)
from .staircase import brute_force_generators, check_box, reconstruct, render_result
from .terms import ORDER_KINDS, TermOrder
from .words import WordMonoid


def _emit(text: str, out_path):
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _load_ideal(path, order_override=None):
    n, p, order, polys = parse_ideal_file(Path(path).read_text())
    if order_override:
        order = TermOrder(order_override)
    return n, p, order, polys


def _free_oracle(private, public):
    """Oracle of the private free-algebra basis, with the public
    polynomials, which must live in the same algebra."""
    n, p, basis = parse_free_file(Path(private).read_text())
    pn, pp, publics = parse_free_file(Path(public).read_text())
    if (pn, pp) != (n, p):
        raise ParseError("public file and private file use different algebras")
    return CanOracle.noncommutative(basis), publics


def _cmd_recon(args) -> int:
    n, p, order, polys = _load_ideal(args.ideal, args.order)
    check_box(n, args.bound)
    oracle = CanOracle.commutative(polys, order, n=n, p=p)
    res = reconstruct(oracle, n, args.bound, binary=args.binary_search)
    _emit(render_result(res), args.out)
    if args.queries:
        print(f"queries {oracle.queries}")
    return 0


def _cmd_nc_recon(args) -> int:
    oracle, publics = _free_oracle(args.ideal, args.public)
    trace: list[str] = []
    h = covering_basis(oracle, publics, trace=trace)
    comments = "".join(f"# {line}\n" for line in trace)
    _emit(render_free_file(h, oracle.n, oracle.p) + comments, args.out)
    if args.queries:
        print(f"queries {oracle.queries}")
    return 0


def _cmd_forge(args) -> int:
    n, p, order, polys = _load_ideal(args.j, args.order)
    pair = forge.build_counterexample(polys, order, args.delta)
    if args.out:
        stem = Path(args.out)
        Path(f"{stem}.shifted.ideal").write_text(
            render_ideal_file(pair.shifted_basis.elements, order, n, p)
        )
        Path(f"{stem}.extended.ideal").write_text(
            render_ideal_file(pair.extended_basis.elements, order, n, p)
        )
    print(f"agree degree {pair.agree_degree}")
    print(f"cap element {pair.cap_poly.to_text(order)}")
    print(f"extended set is a Groebner basis: {pair.extended_is_groebner}")
    print(f"closed form matches: {pair.closed_form_matches}")
    if args.demo:
        demo = forge.demonstrate_bound_necessity(pair)
        sys.stdout.write(forge.render_demo(demo))
    return 0


def _cmd_keygen(args) -> int:
    n, p, order, polys = _load_ideal(args.ideal, args.order)
    rng = random.Random(args.seed)
    keys = crypto.keygen(
        polys, order, args.public_count, args.noise_degree, args.message_terms, rng
    )
    Path(args.out_private).write_text(
        render_ideal_file(keys.basis.elements, keys.basis.order, n, p)
    )
    Path(args.out_public).write_text(crypto.render_public_key(keys.public))
    print(f"wrote {args.out_private} and {args.out_public}")
    return 0


def _cmd_encrypt(args) -> int:
    pk = crypto.parse_public_key(Path(args.public).read_text())
    msg = parse_polynomial(args.message, pk.n, pk.p)
    rng = random.Random(args.seed)
    c = crypto.encrypt(pk, msg, rng)
    _emit(crypto.render_ciphertext(c, pk.n, pk.p), args.out)
    return 0


def _cmd_decrypt(args) -> int:
    n, p, order, polys = _load_ideal(args.private)
    cipher = crypto.parse_ciphertext(Path(args.cipher).read_text())
    if (cipher.poly.n, cipher.poly.p) != (n, p):
        raise ParseError("ciphertext and private file use different rings")
    oracle = CanOracle.commutative(polys, order, n=n, p=p)
    out = crypto.decrypt(oracle, cipher)
    print(out.to_text(order))
    if args.queries:
        print(f"queries {oracle.queries}")
    return 0


def _cmd_attack(args) -> int:
    n, p, order, polys = _load_ideal(args.private)
    pk = crypto.parse_public_key(Path(args.public).read_text())
    if (pk.n, pk.p) != (n, p):
        raise ParseError("public key and private file use different rings")
    bound = pk.degree_cap if args.bound is None else args.bound
    check_box(pk.n, bound)
    oracle = CanOracle.commutative(polys, order, n=n, p=p)
    result = crypto.attack_commutative(oracle, pk, bound=bound)
    _emit(render_result(result.staircase), args.out)
    if args.queries:
        print(f"queries {oracle.queries}")
    return 0


def _cmd_nc_probe(args) -> int:
    check_size(args.trials, "the probe", "trials")  # before the oracle is built
    oracle, publics = _free_oracle(args.private, args.public)
    rng = random.Random(args.seed)
    report = crypto.nc_attack_probe(oracle, publics, args.trials, rng)
    print(
        f"trials {report.trials} successes {report.successes}"
        f" failures {report.failures} basis {report.basis_size}"
    )
    return 0


def _cmd_verify_gb(args) -> int:
    text = Path(args.ideal).read_text()
    head, *_ = content_lines(text) or [""]
    ok = True
    if head.split()[:1] == ["free"]:
        if args.order is not None:
            raise ParseError("--order does not apply to a free-algebra file")
        n, p, polys = parse_free_file(text)
        order = WordMonoid.default_order
        monic = [g.monic(order) for g in polys if not g.is_zero()]
        ok = overlap_check(Reducer(monic, order))
        print(f"ambiguities resolve: {ok}")
    else:
        n, p, order, polys = _load_ideal(args.ideal, args.order)
        elems = [g for g in polys if not g.is_zero()]
        reducer = Reducer(elems, order)
        for (i, f), (j, g) in combinations(enumerate(elems), 2):
            r = normal_form(s_polynomial(f, g, order), reducer)
            print(f"pair ({i},{j}): {'ok' if r.is_zero() else 'remainder'} {r.to_text(order)}")
            ok = ok and r.is_zero()
    return 0 if ok else 1


def _cmd_bench_queries(args) -> int:
    n, p, order, polys = _load_ideal(args.ideal, args.order)
    check_box(n, args.bound)
    oracle = CanOracle.commutative(polys, order, n=n, p=p)
    res = reconstruct(oracle, n, args.bound)
    before = oracle.queries
    brute = brute_force_generators(oracle, n, args.bound)
    print(f"reconstruct queries {res.queries_used}")
    print(f"brute force queries {oracle.queries - before}")
    print(f"agree {res.generators == frozenset(brute)}")
    return 0


def _integer(text: str) -> int:
    """An integer flag: an optional - and ASCII digits, by errors.decimal's
    rule; int() alone would also take _, + and any script's digits."""
    digits = text.removeprefix("-")
    if not digits.isdecimal():
        raise argparse.ArgumentTypeError(f"invalid int value: {clip(text)!r}")
    try:
        return decimal(digits) if digits == text else -decimal(digits)
    except ParseError as e:
        raise argparse.ArgumentTypeError(e) from None


class _Parser(argparse.ArgumentParser):
    """Flags match whole, and a usage error raises ParseError: one line."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ParseError(clip(message, 200))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="escalier",
        description="staircase reconstruction from canonical-form oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, out=True, queries=True, order=False):
        if out:
            sp.add_argument("--out", help="output file (default stdout)")
        if queries:
            sp.add_argument("--queries", action="store_true", help="print the ledger")
        if order:
            sp.add_argument("--order", choices=ORDER_KINDS, help="override the file order")

    sp = sub.add_parser("recon", help="reconstruct staircase generators")
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--bound", type=_integer, required=True)
    sp.add_argument("--binary-search", action="store_true")
    common(sp, order=True)
    sp.set_defaults(handler=_cmd_recon)

    sp = sub.add_parser("nc-recon", help="free-algebra covering basis")
    sp.add_argument("--ideal", required=True, help="private verified basis file")
    sp.add_argument("--public", required=True, help="public polynomials file")
    common(sp)
    sp.set_defaults(handler=_cmd_nc_recon)

    sp = sub.add_parser("forge", help="build the bound-necessity ideal pair")
    sp.add_argument("--j", required=True, help="ideal file for the base ideal")
    sp.add_argument("--delta", type=_integer, required=True, help="agreement degree")
    sp.add_argument("--demo", action="store_true", help="run both reconstructions")
    common(sp, queries=False, order=True)
    sp.set_defaults(handler=_cmd_forge)

    sp = sub.add_parser("keygen", help="generate a key pair")
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--public-count", type=_integer, default=2)
    sp.add_argument("--noise-degree", type=_integer, default=1)
    sp.add_argument("--message-terms", type=_integer, default=4)
    sp.add_argument("--seed", type=_integer, default=0)
    sp.add_argument("--out-private", required=True)
    sp.add_argument("--out-public", required=True)
    common(sp, out=False, queries=False, order=True)
    sp.set_defaults(handler=_cmd_keygen)

    sp = sub.add_parser("encrypt", help="encrypt a message polynomial")
    sp.add_argument("--public", required=True)
    sp.add_argument("--message", required=True)
    sp.add_argument("--seed", type=_integer, default=0)
    common(sp, queries=False)
    sp.set_defaults(handler=_cmd_encrypt)

    sp = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    sp.add_argument("--private", required=True)
    sp.add_argument("--cipher", required=True)
    common(sp, out=False)
    sp.set_defaults(handler=_cmd_decrypt)

    sp = sub.add_parser("attack", help="reconstruct the basis via the oracle")
    sp.add_argument("--private", required=True, help="builds the decryption oracle")
    sp.add_argument("--public", required=True)
    sp.add_argument("--bound", type=_integer, help="default: the public degree cap")
    common(sp)
    sp.set_defaults(handler=_cmd_attack)

    sp = sub.add_parser("nc-probe", help="free-algebra decryption probe")
    sp.add_argument("--private", required=True)
    sp.add_argument("--public", required=True)
    sp.add_argument("--trials", type=_integer, default=20)
    sp.add_argument("--seed", type=_integer, default=0)
    common(sp, out=False, queries=False)
    sp.set_defaults(handler=_cmd_nc_probe)

    sp = sub.add_parser("verify-gb", help="check the Groebner property")
    sp.add_argument("--ideal", required=True)
    common(sp, out=False, queries=False, order=True)
    sp.set_defaults(handler=_cmd_verify_gb)

    sp = sub.add_parser("bench-queries", help="reconstruction vs brute force")
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--bound", type=_integer, required=True)
    common(sp, out=False, queries=False, order=True)
    sp.set_defaults(handler=_cmd_bench_queries)

    return parser


# the least value each integer option takes, refused below it before any work
_LEAST = {"bound": 0, "public_count": 1, "noise_degree": 0, "message_terms": 0, "trials": 0}


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        for name, least in _LEAST.items():
            value = getattr(args, name, None)
            if value is not None and value < least:
                flag = "--" + name.replace("_", "-")
                raise ParseError(f"{flag} must be at least {least}, got {clip(str(value))}")
        return args.handler(args)
    except (ParseError, OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
