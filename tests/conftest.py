"""Shared fixtures: canonical documents and federations."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.system.federation import Federation
from repro.xmldb import serializer
from repro.xmldb.node import Node
from repro.xmldb.parser import parse_document, parse_fragment
from repro.xmldb.serializer import serialize_node

#: CI's ``fuzz`` job (``--hypothesis-profile=long``): unseeded, so every
#: run hunts somewhere new; the failing example's reproduce blob and the
#: job's ``--hypothesis-seed`` are printed on failure.
settings.register_profile("long", max_examples=5000, derandomize=False,
                          print_blob=True, deadline=None)


def fuzz_settings(max_examples: int, hunt: int | None = None) -> settings:
    """Settings for the parser fuzz tests: small and seeded in tier-1
    (same examples, same verdict, every run), the ``long`` profile's
    when the CI fuzz job selects it (``hunt`` examples of it, for a
    property whose one example is many federated runs)."""
    long = settings.get_profile("long")
    if settings.default is long:
        return long if hunt is None else settings(long, max_examples=hunt)
    return settings(max_examples=max_examples, derandomize=True,
                    deadline=None)


@pytest.fixture
def whole_emits(monkeypatch):
    """``whole_emits(doc)``: how many times the serializer's emitter
    has run over all of ``doc``'s rows since the fixture was made."""
    runs = []
    emit = serializer._emit

    def counting(doc, first, last, *spans):
        if first == 0 and last == doc.count - 1:
            runs.append(doc)
        return emit(doc, first, last, *spans)

    monkeypatch.setattr(serializer, "_emit", counting)
    return lambda doc: sum(run is doc for run in runs)


def element(text: str) -> Node:
    """The element an XRPC message part holds, from its text."""
    return parse_fragment(text).root


def over_the_wire(message):
    """``message`` as its receiver decodes it: every fragment and every
    by-value copy a document of its own, new for this delivery."""
    return type(message).from_xml(message.to_xml())


def texts(fragments: list[Node]) -> list[str]:
    """A fragments preamble as it will read on the wire."""
    return [serialize_node(fragment) for fragment in fragments]


#: The abstract tree of the paper's Figure 6 (runtime projection).
FIG6_XML = ("<a><b><c><d><e/><f/></d></c>"
            "<g><h><i/></h><j><k><l/><m/></k><n/></j></g><o/></b></a>")

#: Students/course pair used by Table III/IV tests (query Q2).
STUDENTS_XML = """<people>
 <person><name>Ann</name><tutor>Bob</tutor><id>s1</id></person>
 <person><name>Bob</name><id>s2</id></person>
 <person><name>Col</name><tutor>Zed</tutor><id>s3</id></person>
 <person><name>Dot</name><tutor>Ann</tutor><id>s4</id></person>
</people>"""

COURSE_XML = """<enroll>
 <exam id="s2"><grade>A</grade></exam>
 <exam id="s1"><grade>B</grade></exam>
 <exam id="s3"><grade>C</grade></exam>
 <exam id="s4"><grade>D</grade></exam>
</enroll>"""

#: Table III's query Q2 (original, sugared form).
Q2 = """
(let $s := doc("xrpc://A/students.xml")/child::people/child::person,
     $c := doc("xrpc://B/course42.xml"),
     $t := $s[tutor = $s/name]
 for $e in $c/enroll/exam
 where $e/@id = $t/id
 return $e)/grade
"""


@pytest.fixture
def fig6_doc():
    return parse_fragment(FIG6_XML, uri="fig6.xml")


@pytest.fixture
def simple_doc():
    return parse_document(
        '<a x="1" y="2"><b><c/>text</b><d>hi</d><!--note--><e/></a>',
        uri="simple.xml")


@pytest.fixture
def q2_federation():
    """Three peers hosting the Table III documents."""
    federation = Federation()
    federation.add_peer("A").store("students.xml", STUDENTS_XML)
    federation.add_peer("B").store("course42.xml", COURSE_XML)
    federation.add_peer("local")
    return federation


def find_by_name(doc, name: str):
    """First node with the given element name (test helper)."""
    for node in doc.nodes():
        if node.name == name:
            return node
    raise AssertionError(f"no node named {name!r}")
