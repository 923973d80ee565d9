"""Independent reference algebra used only to check benchmark outputs.

Polynomials here are plain dicts {exponent tuple or word: coefficient mod
p}. Nothing in this file calls into escalier, so a defect in the library
cannot also hide in the check that is meant to catch it.
"""

from __future__ import annotations

P = 32003


def term_key(kind: str):
    """Sort key for the documented orders with X1 < X2 < ... < Xn."""
    if kind == "deglex":
        return lambda t: (sum(t), t[::-1])
    if kind == "degrevlex":
        return lambda t: (sum(t), tuple(-e for e in t))
    if kind == "lex":
        return lambda t: t[::-1]
    raise ValueError(f"unknown order {kind!r}")


def word_key(w):
    """Length first, then leftmost letter (X1 < X2 < ...)."""
    return (len(w), w)


def _inv(a: int, p: int = P) -> int:
    return pow(a % p, p - 2, p)


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def lead(f: dict, key):
    return max(f, key=key)


def monic(f: dict, key, p: int = P) -> dict:
    c = _inv(f[lead(f, key)], p)
    return {t: v * c % p for t, v in f.items()}


def reduce_comm(f: dict, basis: list, key, p: int = P) -> dict:
    """Full remainder of f modulo basis: no remaining term is divisible by
    a basis lead."""
    reducers = []
    for g in basis:
        lt = lead(g, key)
        reducers.append((key(lt), lt, _inv(g[lt], p), g))
    reducers.sort(key=lambda r: r[0])
    work = dict(f)
    out = {}
    while work:
        t = max(work, key=key)
        c = work.pop(t)
        for _, lt, inv, g in reducers:
            if _divides(lt, t):
                q = tuple(x - y for x, y in zip(t, lt))
                factor = c * inv % p
                for s, cs in g.items():
                    if s == lt:
                        continue
                    u = tuple(x + y for x, y in zip(q, s))
                    v = (work.get(u, 0) - factor * cs) % p
                    if v:
                        work[u] = v
                    else:
                        work.pop(u, None)
                break
        else:
            out[t] = c
    return out


def s_pair(f: dict, g: dict, key, p: int = P) -> dict:
    tf, tg = lead(f, key), lead(g, key)
    m = tuple(max(x, y) for x, y in zip(tf, tg))
    qf = tuple(x - y for x, y in zip(m, tf))
    qg = tuple(x - y for x, y in zip(m, tg))
    cf, cg = _inv(f[tf], p), _inv(g[tg], p)
    out: dict = {}
    for s, c in f.items():
        u = tuple(x + y for x, y in zip(qf, s))
        out[u] = (out.get(u, 0) + c * cf) % p
    for s, c in g.items():
        u = tuple(x + y for x, y in zip(qg, s))
        out[u] = (out.get(u, 0) - c * cg) % p
    return {t: c for t, c in out.items() if c}


def reduced_groebner(gens: list, key, p: int = P) -> list:
    """Reduced Groebner basis, sorted by lead: plain Buchberger with
    smallest-lcm pair selection and the coprime-lead criterion."""
    basis = [monic(g, key, p) for g in gens if g]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        def lcm_key(ij):
            a, b = lead(basis[ij[0]], key), lead(basis[ij[1]], key)
            return key(tuple(max(x, y) for x, y in zip(a, b)))

        pairs.sort(key=lcm_key, reverse=True)
        i, j = pairs.pop()
        a, b = lead(basis[i], key), lead(basis[j], key)
        if all(x == 0 or y == 0 for x, y in zip(a, b)):
            continue
        r = reduce_comm(s_pair(basis[i], basis[j], key, p), basis, key, p)
        if r:
            basis.append(monic(r, key, p))
            k = len(basis) - 1
            pairs.extend((m, k) for m in range(k))
    basis.sort(key=lambda g: key(lead(g, key)))
    minimal: list = []
    for g in basis:
        if not any(_divides(lead(h, key), lead(g, key)) for h in minimal):
            minimal.append(g)
    return [
        monic(reduce_comm(g, minimal[:i] + minimal[i + 1 :], key, p), key, p)
        for i, g in enumerate(minimal)
    ]


def groebner_problems(basis: list, inputs: list, key, p: int = P) -> list:
    """Why basis is not the reduced Groebner basis of the ideal the inputs
    generate, as far as these checks can tell; empty when it passes."""
    problems = []
    leads = [lead(g, key) for g in basis]
    for i, g in enumerate(basis):
        if g[leads[i]] != 1:
            problems.append(f"element {i} is not monic")
        for j, lt in enumerate(leads):
            if i != j and _divides(lt, leads[i]):
                problems.append(f"lead {j} divides lead {i}")
            if any(s != leads[i] and _divides(lt, s) for s in g):
                problems.append(f"a tail term of element {i} is divisible by lead {j}")
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if reduce_comm(s_pair(basis[i], basis[j], key, p), basis, key, p):
                problems.append(f"S-pair ({i},{j}) does not reduce to 0")
    for k, f in enumerate(inputs):
        if reduce_comm(f, basis, key, p):
            problems.append(f"input {k} does not reduce to 0")
    return problems


def reduce_free(f: dict, basis: list, p: int = P) -> dict:
    """Two-sided remainder: smallest basis lead first, leftmost occurrence."""
    reducers = sorted(
        ((lead(g, word_key), g) for g in basis), key=lambda r: word_key(r[0])
    )
    work = dict(f)
    out = {}
    while work:
        w = max(work, key=word_key)
        c = work.pop(w)
        for lw, g in reducers:
            k = len(lw)
            at = next((i for i in range(len(w) - k + 1) if w[i : i + k] == lw), None)
            if at is None:
                continue
            left, right = w[:at], w[at + k :]
            factor = c * _inv(g[lw], p) % p
            for s, cs in g.items():
                if s == lw:
                    continue
                u = left + s + right
                v = (work.get(u, 0) - factor * cs) % p
                if v:
                    work[u] = v
                else:
                    work.pop(u, None)
            break
        else:
            out[w] = c
    return out
