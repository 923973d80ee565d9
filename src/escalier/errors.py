class ParseError(ValueError):
    """A request refused before any work, at the check that decides it:
    malformed text or arguments, an oversized request, or a ring the
    request cannot use. The CLI exits 2 on it."""


# the most terms one request may make the library list, query or draw,
# and the most trials one probe may run
MAX_TERMS = 10**6


def clip(text: str, limit: int = 60) -> str:
    """text to echo in a refusal, cut to limit characters and "..."."""
    return text if len(text) <= limit else text[:limit] + "..."


def check_size(size: int, what: str, unit: str = "terms") -> None:
    """Refuse more than MAX_TERMS of unit; the message never formats size,
    which can have more digits than Python will print."""
    if size > MAX_TERMS:
        raise ParseError(f"{what} exceeds the limit of 10^6 {unit}")


def decimal(digits: str) -> int:
    """The int a run of decimal digits spells. The one digit rule: only
    ASCII 0-9, so a digit of another script is refused, and so is a run
    past Python's limit on digits, without echoing it."""
    if not digits.isascii():
        raise ParseError(f"digits must be ASCII 0-9, got {clip(digits)!r}")
    try:
        return int(digits)
    except ValueError:
        raise ParseError("an integer has more digits than Python converts") from None
