"""Reference implementations that tier-1 tests compare ``src/`` against.

Oracles live here, not under ``src/``: they are kept for what they
accept and reject, never for speed, and nothing in the library imports
them.
"""

from repro.errors import XmlParseError

#: The six parallel columns of a shredded document.
COLUMNS = ("kinds", "names", "values", "sizes", "levels", "parents")


def columns(doc) -> list[list]:
    """The six columns of ``doc`` as plain lists."""
    return [list(getattr(doc, column)) for column in COLUMNS]


def outcome(parse, text: str):
    """What ``parse(text)`` does, in comparable form: the six columns,
    or the :class:`XmlParseError` it raised (``str()`` is the message,
    ``.offset`` the offset). Anything else propagates."""
    try:
        return columns(parse(text))
    except XmlParseError as err:
        return err
