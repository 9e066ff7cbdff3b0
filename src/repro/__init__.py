"""repro — Efficient Distribution of Full-Fledged XQuery (ICDE 2009).

A from-scratch reproduction of Zhang, Tang & Boncz's XRPC query
decomposition system: an XQuery engine over a pre/size/level XML store,
the d-graph decomposition framework with the conservative (pass-by-
value), pass-by-fragment and pass-by-projection strategies, runtime XML
projection, and a simulated peer network with byte/time accounting.

Quickstart::

    from repro import Federation, Strategy

    fed = Federation()
    fed.add_peer("peer1").store("d.xml", "<people><p>Ann</p></people>")
    fed.add_peer("local")
    result = fed.run('doc("xrpc://peer1/d.xml")/child::people/child::p',
                     at="local", strategy=Strategy.BY_FRAGMENT)
    print(result.stats.summary())
"""

from repro.cluster import (ClusterCatalog, CollectionSpec,
                           create_sharded_collection)
from repro.decompose import AUTO, Strategy, decompose
from repro.net.costmodel import CostModel
from repro.net.estimate import CostVector
from repro.net.stats import PlanReport, RunStats, TimeBreakdown
from repro.obs import (MetricsRegistry, Span, Tracer, dump_chrome_trace,
                       dump_trace, render_tree)
from repro.planner import (CalibrationBook, PhysicalPlan, QueryPlanner,
                           StatsCatalog)
from repro.runtime import FederationEngine, ResultCache, Transport
from repro.system.federation import Federation, Peer, RunResult
from repro.xmldb import Document, Node, parse_document, parse_fragment
from repro.xquery import Evaluator, parse_query, pretty
from repro.xquery.xdm import sequences_deep_equal, serialize_sequence

__version__ = "1.0.0"

__all__ = [
    "Federation", "Peer", "RunResult",
    "ClusterCatalog", "CollectionSpec", "create_sharded_collection",
    "AUTO", "Strategy", "decompose",
    "CostModel", "CostVector", "PlanReport", "RunStats", "TimeBreakdown",
    "MetricsRegistry", "Span", "Tracer",
    "dump_trace", "dump_chrome_trace", "render_tree",
    "CalibrationBook", "PhysicalPlan", "QueryPlanner", "StatsCatalog",
    "FederationEngine", "ResultCache", "Transport",
    "Document", "Node", "parse_document", "parse_fragment",
    "Evaluator", "parse_query", "pretty",
    "sequences_deep_equal", "serialize_sequence",
    "__version__",
]
