class ParseError(ValueError):
    """Malformed textual input (terms, words, polynomials, files), or a
    request refused by its size before any work."""


# the most terms one request may make the library list, query or draw
MAX_TERMS = 10**6


def check_size(size: int, what: str) -> None:
    """Refuse more than MAX_TERMS terms; the message never formats size,
    which can have more digits than Python will print."""
    if size > MAX_TERMS:
        raise ParseError(f"{what} exceeds the limit of 10^6 terms")
