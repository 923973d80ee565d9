"""Prime-field coefficient helpers.

Coefficients are plain integers in [0, p); every ring-carrying object
stores its modulus p, which the caller always supplies: there is no
default prime.
"""

from functools import lru_cache

from .errors import clip


# oracles and file headers ask again and again: one trial division per modulus
@lru_cache
def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


# the largest modulus: trial division up to it takes milliseconds
_MAX_MODULUS = 2**31 - 1


def validate_prime(p: int) -> int:
    if p > _MAX_MODULUS:
        raise ValueError(f"modulus {clip(str(p))} exceeds the limit of {_MAX_MODULUS}")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


def inv_mod(a: int, p: int) -> int:
    """Inverse of a modulo the prime p."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("zero has no inverse")
    return pow(a, p - 2, p)
