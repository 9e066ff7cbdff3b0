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

from repro._exports import lazy_exports

__version__ = "1.0.0"

__all__ = lazy_exports(globals(), {
    ".system.federation": "Federation Peer RunResult",
    ".cluster.catalog": "ClusterCatalog CollectionSpec",
    ".cluster.placement": "create_sharded_collection",
    ".decompose.strategy": "AUTO Strategy",
    ".net.costmodel": "CostModel",
    ".net.estimate": "CostVector",
    ".net.stats": "PlanReport RunStats TimeBreakdown",
    ".obs.metrics": "MetricsRegistry",
    ".obs.trace": "Span Tracer",
    ".obs.export": "dump_trace dump_chrome_trace render_tree",
    ".planner.feedback": "CalibrationBook",
    ".planner.ir": "PhysicalPlan",
    ".planner.planner": "QueryPlanner",
    ".planner.stats": "StatsCatalog",
    ".runtime.engine": "FederationEngine",
    ".runtime.cache": "ResultCache",
    ".runtime.transport": "Transport",
    ".xmldb.document": "Document",
    ".xmldb.node": "Node",
    ".xmldb.parser": "parse_document parse_fragment",
    ".xquery.evaluator": "Evaluator",
    ".xquery.parser": "parse_query",
    ".xquery.pretty": "pretty",
    ".xquery.xdm": "sequences_deep_equal serialize_sequence",
}) + ["__version__"]
