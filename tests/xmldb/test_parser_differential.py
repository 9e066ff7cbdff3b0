"""Differential test: the expat scanner against the regex scanner it
replaced.

The strategy *prints text* — it never touches ``DocumentBuilder`` — so
everything both accept at the character level is in play: comments,
PIs, CDATA next to text, both quote styles, whitespace and newlines
(``\r\n`` and lone ``\r`` too) inside tags, text and attribute values,
predefined/decimal/hex references, an XML declaration and a bracketed
DOCTYPE. Property: the scanner and the oracle
(``tests/oracle/xml_scanner.py``) produce the same six columns, and
serialize byte-equal.

Tier-1 runs a small seeded sample; CI's ``fuzz`` job runs the same
tests under ``--hypothesis-profile=long``. A counterexample found there
is committed as a plain case in ``test_parser.py``.
"""

from hypothesis import given, strategies as st

from repro.xmldb import parser as scanner
from repro.xmldb.serializer import serialize
from tests.conftest import fuzz_settings
from tests.oracle import columns, outcome, xml_scanner as oracle

# Prefixed and non-ASCII names are plain QNames here (no namespace
# processing). Digit-initial ones are not: XML 1.0's Name production
# refuses them, so ``<1st/>`` is an error (``test_parser.py``).
_names = st.sampled_from(["a", "b", "item", "x:y", "n-s.t", "_u", "é",
                          "xrpc:call"])
_space = st.sampled_from(["", " ", "\n", "\t", "\r\n", "  \n "])
_gap = st.sampled_from([" ", "\n", "\t ", "\r\n"])
# No ``&#0;`` or ``&#X43;``: XML 1.0 has no such references (the Char
# production, a lowercase ``x``). The whitespace ones survive where raw
# whitespace is normalized.
_reference = st.sampled_from(["&lt;", "&gt;", "&amp;", "&quot;", "&apos;",
                              "&#65;", "&#x42;", "&#xa;", "&#9;", "&#13;",
                              "&#8364;", "&#x1F600;"])
_plain = st.text(alphabet=st.sampled_from("ab z09>\"'=/;#]-?!\n\t\ré€"),
                 min_size=1, max_size=6)


def _without(text: str, closer: str) -> str:
    while closer in text:
        text = text.replace(closer, "")
    return text


# XML 1.0: no ``]]>`` in text, no ``--`` in a comment nor ``-`` at its end.
_chardata = st.lists(_plain | _reference, min_size=1, max_size=4
                     ).map(lambda parts: _without("".join(parts), "]]>"))
_comment = st.text(alphabet=st.sampled_from("ab -<>&\n"), max_size=8).map(
    lambda body: f"<!--{_without(body, '--').rstrip('-')}-->")
_cdata = st.text(alphabet=st.sampled_from("ab ]<>&\"\n"), max_size=8).map(
    lambda body: f"<![CDATA[{_without(body, ']]>')}]]>")


@st.composite
def _pi(draw) -> str:
    body = _without(draw(st.text(alphabet=st.sampled_from("ab ?<>&="),
                                 max_size=8)), "?>")
    target = draw(_names)
    return f"<?{target}{draw(_gap) if body else draw(_space)}{body}?>"


@st.composite
def _attribute(draw, name: str) -> str:
    quote = draw(st.sampled_from("\"'"))
    # XML 1.0: no raw ``<`` in a value.
    value = draw(st.lists(_plain | _reference, max_size=3)
                 .map("".join)).replace(quote, "")
    return f"{name}{draw(_space)}={draw(_space)}{quote}{value}{quote}"


@st.composite
def _element(draw, depth: int = 0) -> str:
    name = draw(_names)
    out = [f"<{name}"]
    attribute_names = draw(st.lists(_names, max_size=3, unique=True))
    for attribute_name in attribute_names:
        # XML 1.0: whitespace before every attribute, the first or not.
        out.append(draw(_gap))
        out.append(draw(_attribute(attribute_name)))
    out.append(draw(_space))
    if draw(st.booleans()):
        return "".join(out) + "/>"
    out.append(">")
    children = [_chardata, _comment, _cdata, _pi()]
    if depth < 3:
        children.append(_element(depth + 1))
    out.extend(draw(st.lists(st.one_of(children), max_size=4)))
    out.append(f"</{name}{draw(_space)}>")
    return "".join(out)


_misc = st.lists(_space | _comment | _pi(), max_size=3).map("".join)


@st.composite
def fragments(draw) -> str:
    return draw(_misc) + draw(_element()) + draw(_misc)


@st.composite
def documents(draw) -> str:
    declaration = draw(st.sampled_from(
        ["", '<?xml version="1.0"?>',
         "<?xml version='1.0' encoding='UTF-8'?>"]))
    doctype = draw(st.sampled_from(
        ["", "<!DOCTYPE a>", '<!DOCTYPE a SYSTEM "a.dtd">',
         "<!DOCTYPE a [<!ELEMENT a ANY>\n<!ATTLIST a x CDATA #IMPLIED>]>",
         "<!DOCTYPE a [<!ENTITY % p '[x]'>]>"]))
    # XML 1.0: a declaration is the very first thing in the text.
    lead = declaration or draw(_space)
    return (lead + draw(_misc) + doctype + draw(_misc) + draw(_element())
            + draw(_misc))


def _check(parse_name: str, text: str) -> None:
    new = getattr(scanner, parse_name)(text, uri="d.xml")
    old = getattr(oracle, parse_name)(text, uri="d.xml")
    assert columns(new) == columns(old)
    assert serialize(new) == serialize(old)
    assert new.uri == old.uri
    assert all(name is intern_name for name, intern_name
               in zip(new.names, old.names))  # both interned


@given(documents())
@fuzz_settings(150)
def test_parse_document_matches_the_oracle(text):
    _check("parse_document", text)


@given(fragments())
@fuzz_settings(150)
def test_parse_fragment_matches_the_oracle(text):
    _check("parse_fragment", text)


@given(documents() | fragments(), st.sampled_from(["parse_document",
                                                   "parse_fragment"]))
@fuzz_settings(100)
def test_either_entry_point_on_either_text(text, parse_name):
    """A document handed to ``parse_fragment`` (or a fragment with a
    prolog-less text handed to ``parse_document``) is accepted or
    rejected identically. Messages and offsets are expat's, not the
    oracle's: only the outcome is compared."""
    new = outcome(getattr(scanner, parse_name), text)
    old = outcome(getattr(oracle, parse_name), text)
    if isinstance(old, Exception):
        assert isinstance(new, Exception)
    else:
        assert new == old
