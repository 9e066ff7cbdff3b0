"""Differential test: the one-pass message decoder against the column
decoder it replaced.

``RequestMessage.from_xml`` / ``ResponseMessage.from_xml`` read an
envelope in one expat pass and shred each payload on the way; the
oracle (``tests/oracle/xrpc_decoder.py``) parses the whole envelope
with ``parse_document``, walks its columns and copies each payload out.
On any text, decoding and unmarshalling it gives one of three outcomes,
and both sides must give the same one:

* the same message: same fields and items, and payload documents with
  equal columns, ``uri`` and ``serialize()``, made in the same
  ``doc_seq`` order;
* an ``XrpcMarshalError`` on both sides (the refusal's wording may
  differ: the two meet a bad part in different orders);
* the ``XmlParseError`` ``parse_document`` raises, same message, same
  offset.

Texts: the message generators of ``test_codec_differential.py``, every
one-element edit of their envelopes, an envelope part (misplaced,
repeated or malformed) after every tag, markup pieces spliced in after
any tag, item elements as another peer might write them spliced into a
sequence (attributes permuted, extra or missing, ids that are no
integers, any content), a few character edits anywhere, and a DOCTYPE
in front (blanked unread, as ``parse_document`` blanks it). Tier-1 runs a small seeded
sample; CI's ``fuzz`` job runs it under ``--hypothesis-profile=long``.
"""

import time

from hypothesis import given, strategies as st

from repro.errors import XmlParseError, XrpcMarshalError
from repro.xmldb.node import Node, NodeKind
from repro.xmldb.serializer import serialize
from repro.xrpc.marshal import unmarshal_calls, unmarshal_result
from repro.xrpc.messages import NodeCopy, RequestMessage, ResponseMessage
from tests.conftest import fuzz_settings
from tests.oracle import columns, xrpc_decoder as oracle
from tests.xmldb.test_parser_differential import (
    _cdata, _chardata, _comment, _element, _pi,
)
from tests.xrpc.test_codec_differential import (
    _one_element_edits, _requests, _responses,
)

_messages = _requests() | _responses
_ONE_PASS = {RequestMessage: (RequestMessage.from_xml, unmarshal_calls),
             ResponseMessage: (ResponseMessage.from_xml, unmarshal_result)}
_ORACLE = {RequestMessage: (oracle.decode_request, unmarshal_calls),
           ResponseMessage: (oracle.decode_response, unmarshal_result)}


def _document(node) -> tuple:
    doc = node.doc
    return (node.pre, doc.uri, columns(doc),
            serialize(doc) if doc.kinds[0] == NodeKind.ELEMENT else None)


def _plain(items) -> list:
    """Items with each copy as its kind and name: its node is compared
    through what unmarshalling hands out."""
    return [(item.node_kind, item.name) if isinstance(item, NodeCopy)
            else item for item in items]


def _outcome(decoders, message_type, text: str):
    """What decoding and unmarshalling ``text`` gives, comparably."""
    decode, unmarshal = decoders[message_type]
    try:
        message = decode(text)
        if message_type is RequestMessage:
            head = (message.query, message.param_names, message.static_attrs,
                    message.used_paths, message.returned_paths)
            items = [[(name, _plain(sequence)) for name, sequence
                      in call.params] for call in message.calls]
            values = [value for call in unmarshal(
                message.calls, message.fragments, "m")
                for _name, sequence in call for value in sequence]
        else:
            head = ()
            items = [_plain(sequence) for sequence in message.results]
            values = [value for sequence in unmarshal(
                message.results, message.fragments, "m")
                for value in sequence]
    except XmlParseError as error:
        return "malformed", str(error), error.offset
    except XrpcMarshalError:
        return "refused"
    nodes = [value for value in values if isinstance(value, Node)]
    docs = list({id(node.doc): node.doc
                 for node in message.fragments + nodes}.values())
    return (head, items, [_document(root) for root in message.fragments],
            [_document(value) if isinstance(value, Node) else value
             for value in values],
            sorted(range(len(docs)), key=lambda index: docs[index].doc_seq))


def _agree(message_type, text: str):
    """Both decoders' outcomes on ``text`` (returned) are the same."""
    new = _outcome(_ONE_PASS, message_type, text)
    assert new == _outcome(_ORACLE, message_type, text), text
    return new


@given(_messages)
@fuzz_settings(120)
def test_messages_decode_as_the_column_decoder_decodes_them(message):
    # Refused only where unmarshalling refuses a drawn item (an
    # ``xs:integer`` atomic "x", a reference past its fragment).
    assert _agree(type(message), message.to_xml())[0] != "malformed"


@given(_messages)
@fuzz_settings(30)
def test_one_element_edits_decode_or_refuse_alike(message):
    for edited in _one_element_edits(message.to_xml()):
        _agree(type(message), edited)


#: Envelope parts in the wrong place, a second time, or malformed.
_PARTS = [" ", "<!--c-->", "<xrpc:sequence/>", "<xrpc:fragment/>",
          "<xrpc:fragment><a/></xrpc:fragment>", "<xrpc:text/>",
          '<xrpc:element fragid="1" nodeid="x"/>', "<xrpc:params/>",
          '<xrpc:text name="n">t</xrpc:text>', '<xrpc:comment name="n"/>',
          "<xrpc:response><xrpc:fragments/></xrpc:response>",
          "<xrpc:request><xrpc:fragments/><xrpc:query>q</xrpc:query>"
          "<xrpc:params/></xrpc:request>"]
_pieces = (_chardata | _comment | _cdata | _pi() | _element()
           | st.sampled_from(_PARTS))


def _after_each_tag(text: str, piece: str):
    for index, char in enumerate(text):
        if char == ">":
            yield text[:index + 1] + piece + text[index + 1:]


@given(_messages, st.lists(st.tuples(st.integers(0, 10_000), _pieces),
                           min_size=1, max_size=3))
@fuzz_settings(120)
def test_markup_spliced_after_a_tag_decodes_or_refuses_alike(message,
                                                            splices):
    text = message.to_xml()
    for position, piece in splices:
        texts = list(_after_each_tag(text, piece))
        text = texts[position % len(texts)]
    _agree(type(message), text)


@given(_messages)
@fuzz_settings(20)
def test_an_envelope_part_after_any_tag_decodes_or_refuses_alike(message):
    for piece in _PARTS:
        for text in _after_each_tag(message.to_xml(), piece):
            _agree(type(message), text)


#: A sequence item's element, its attributes in any order, some of
#: them missing or not ours, their values no integers, its content
#: anything: what the item reader must read, or refuse, as the column
#: decoder does (a ``name``-less reference and a ``type``-less atomic
#: among them).
_ITEM_TAGS = ["xrpc:element", "xrpc:attribute", "xrpc:atomic", "xrpc:text",
              "xrpc:comment", "xrpc:processing-instruction", "xrpc:sequence",
              "xrpc:fragment"]
_ITEM_ATTRIBUTES = ["fragid", "nodeid", "name", "type", "stray"]
_item_values = st.sampled_from(["1", "2", "3", " 1 ", "x", "", "-1",
                                "xs:integer", "a&amp;b", "fragid", "name"])
_item_content = st.sampled_from(
    ["", "t", "<a/>", "<a>b</a>", "<a/><b/>", "t<a/>", "<a/>t", "<!--c-->",
     "<?p d?><a/>", "<xrpc:atomic>1</xrpc:atomic>"]) | _element()


@st.composite
def _item_elements(draw) -> str:
    tag = draw(st.sampled_from(_ITEM_TAGS))
    names = draw(st.permutations(_ITEM_ATTRIBUTES))[
        :draw(st.integers(0, len(_ITEM_ATTRIBUTES)))]
    attributes = "".join(f' {name}="{draw(_item_values)}"'
                         for name in names)
    return f"<{tag}{attributes}>{draw(_item_content)}</{tag}>"


def _in_each_sequence(text: str, piece: str):
    """``text`` with ``piece`` as the first, then the last, item of
    each sequence."""
    for tag in ("<xrpc:sequence>", "</xrpc:sequence>"):
        at = text.find(tag)
        while at >= 0:
            cut = at + len(tag) if tag[1] != "/" else at
            yield text[:cut] + piece + text[cut:]
            at = text.find(tag, at + 1)


@given(_messages, st.lists(st.tuples(st.integers(0, 10_000),
                                     _item_elements()),
                           min_size=1, max_size=3))
@fuzz_settings(150)
def test_items_written_otherwise_decode_or_refuse_alike(message, splices):
    text = message.to_xml()
    for position, piece in splices:
        texts = list(_in_each_sequence(text, piece))
        if texts:
            text = texts[position % len(texts)]
    _agree(type(message), text)


_edits = st.tuples(st.integers(0, 10_000), st.sampled_from("sid"),
                   st.sampled_from("<>&\"'/= ;#x![]-?a1\n"))


@given(_messages, st.lists(_edits, min_size=1, max_size=3))
@fuzz_settings(150)
def test_edited_texts_fail_where_parse_document_fails(message, edits):
    text = message.to_xml()
    for position, action, character in edits:
        index = position % (len(text) + 1)
        if action == "s":
            text = text[:index] + character + text[index + 1:]
        elif action == "i":
            text = text[:index] + character + text[index:]
        else:
            text = text[:index] + text[index + 1:]
    _agree(type(message), text)


_doctypes = st.sampled_from([
    "<!DOCTYPE env:Envelope>", '<!DOCTYPE a SYSTEM "a.dtd">',
    "<!DOCTYPE a [<!ELEMENT a ANY>\n<!ATTLIST a x CDATA #IMPLIED>]>",
    "<!DOCTYPE a [<!ENTITY % p '[x]'>]>",
    '<!DOCTYPE a [<!ENTITY e "<xrpc:call/>">]>'])


@given(_messages, st.sampled_from(["", '<?xml version="1.0"?>\n']),
       _doctypes, st.booleans())
@fuzz_settings(60)
def test_a_doctype_is_blanked_unread(message, declaration, doctype,
                                     reference):
    """A DOCTYPE changes nothing a decoder reads: its entities are never
    declared, so a reference to one fails where ``parse_document``'s
    does."""
    text = message.to_xml()
    if reference:
        text = text.replace("<env:Body>", "<env:Body>&e;")
    outcome = _agree(type(message),
                     declaration + doctype + "\n" + text)
    if reference:
        assert outcome[0] == "malformed" and "&e;" in outcome[1]
    else:
        assert outcome == _outcome(_ONE_PASS, type(message), text)


def test_a_billion_laughs_message_fails_on_its_first_reference():
    laughs = ['<!ENTITY lol "lol">'] + [
        f'<!ENTITY lol{level} "{("&lol%s;" % (level - 1 or "")) * 10}">'
        for level in range(1, 10)]
    text = RequestMessage(query="&lol9;", param_names=[],
                          calls=[]).to_xml().replace("&amp;", "&")
    text = f"<!DOCTYPE env:Envelope [{''.join(laughs)}]>{text}"
    started = time.process_time()
    outcome = _agree(RequestMessage, text)
    assert time.process_time() - started < 5
    assert outcome == ("malformed", f"unknown entity &lol9; at offset "
                       f"{text.index('&lol9;')}", text.index("&lol9;"))
