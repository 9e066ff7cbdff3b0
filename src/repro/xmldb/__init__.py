"""XML storage substrate: a pre/size/level encoded node store.

This package implements the XML data model layer the paper's host
system (MonetDB/XQuery) provides natively: documents stored as arrays
in document order with O(1) node identity, document-order comparison
and ancestry tests, the 13 XPath axes, a small well-formedness parser,
a serialiser, XQuery ``deep-equal``, and the paper's runtime XML
projection (Algorithm 1).

Public entry points:

* :class:`~repro.xmldb.document.Document` — an immutable shredded
  document (or parentless fragment).
* :class:`~repro.xmldb.node.Node` — a lightweight node handle.
* :func:`~repro.xmldb.parser.parse_document` /
  :func:`~repro.xmldb.parser.parse_fragment` — text to store.
* :func:`~repro.xmldb.serializer.serialize` — store to text.
* :mod:`~repro.xmldb.axes` — axis navigation.
* :func:`~repro.xmldb.compare.deep_equal` — XQuery fn:deep-equal.
* :func:`~repro.xmldb.projection.project` — Algorithm 1.
* :class:`~repro.xmldb.columns.ColumnSet` /
  :mod:`~repro.xmldb.kernels` — the typed columnar core and its batch
  kernels (one in-memory physical form: typed arrays plus string
  lists).
"""

from repro.xmldb.node import Node, NodeKind
from repro.xmldb.columns import ColumnSet
from repro.xmldb.document import Document, DocumentBuilder
from repro.xmldb.parser import parse_document, parse_fragment
from repro.xmldb.serializer import serialize, serialize_node
from repro.xmldb.compare import deep_equal, document_order_key, is_same_node
from repro.xmldb.projection import project, ProjectionResult
from repro.xmldb.values import ValueIndex, value_index

__all__ = [
    "Node",
    "NodeKind",
    "ColumnSet",
    "Document",
    "DocumentBuilder",
    "parse_document",
    "parse_fragment",
    "serialize",
    "serialize_node",
    "deep_equal",
    "document_order_key",
    "is_same_node",
    "project",
    "ProjectionResult",
    "ValueIndex",
    "value_index",
]
