"""The XRPC runtime: SOAP-style messages and the three marshalling
semantics (pass-by-value, pass-by-fragment, pass-by-projection).

Messages are genuinely serialised to XML text and read back on the
receiving peer — message sizes (the paper's bandwidth metric) are the
byte lengths of these texts, and the (de)serialisation component of the
Figure 8 breakdown is charged per byte processed. Each message is
serialised once (``to_xml``) and read once (``from_xml``: one expat
pass that shreds each payload with the :mod:`repro.xmldb` scanner's
handlers into a document of its own): in between, ``fragments`` lists
and :class:`NodeCopy` items hold the root
:class:`~repro.xmldb.node.Node` of each shipped subtree, not its text.
"""

from repro.xrpc.messages import (
    Atomic, NodeCopy, NodeRef, AttrRef, Call, RequestMessage,
    ResponseMessage,
)
from repro.xrpc.marshal import (
    marshal_calls, unmarshal_calls, marshal_result, unmarshal_result,
)
from repro.xrpc.peer import RequestHandler

__all__ = [
    "Atomic", "NodeCopy", "NodeRef", "AttrRef", "Call",
    "RequestMessage", "ResponseMessage",
    "marshal_calls", "unmarshal_calls", "marshal_result",
    "unmarshal_result", "RequestHandler",
]
