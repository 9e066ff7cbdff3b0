"""Section II end-to-end: the five semantic problem classes of
pass-by-value remote evaluation, and which message semantics repair
them.

These tests run queries with *explicit* ``execute at`` calls (the
paper's Table I setting) through the full federation stack — real
messages, real shredding — and compare against local evaluation.
"""

import pytest

from repro.decompose import Strategy
from repro.system.federation import Federation
from repro.xquery.xdm import serialize_sequence

MAKENODES = ("declare function makenodes() as node() "
             "{ <a><b><c/></b></a>/child::b };\n")

OVERLAP = ("declare function overlap($l as node(), $r as node()) "
           "as xs:boolean "
           "{ not(empty($l/descendant-or-self::node() intersect "
           "$r/descendant-or-self::node())) };\n")

EARLIER = ("declare function earlier($l as node(), $r as node()) "
           "as node() { if ($l << $r) then $l else $r };\n")


@pytest.fixture
def fed():
    federation = Federation()
    federation.add_peer("example.org")
    federation.add_peer("local")
    return federation


def run(fed, query, strategy):
    return fed.run(query, at="local", strategy=strategy)


class TestProblem1_NonDownwardSteps:
    QUERY = (MAKENODES +
             'let $bc := execute at {"example.org"} { makenodes() } '
             "return $bc/parent::a")

    def test_by_value_loses_parent(self, fed):
        result = run(fed, self.QUERY, Strategy.BY_VALUE)
        assert result.items == []  # the paper's "empty sequence"

    def test_by_fragment_also_loses_parent(self, fed):
        # The fragment only reaches up to the serialised node itself.
        result = run(fed, self.QUERY, Strategy.BY_FRAGMENT)
        assert result.items == []

    def test_by_projection_recovers_parent(self, fed):
        """Figure 5: parent::a travels as a returned projection path,
        so the response ships <a><b><c/></b></a> and $abc binds
        correctly."""
        result = run(fed, self.QUERY, Strategy.BY_PROJECTION)
        assert serialize_sequence(result.items) == "<a><b><c/></b></a>"


class TestProblem2_NodeIdentity:
    QUERY = (MAKENODES + OVERLAP +
             "let $bc := <r><s/></r>/child::s return "
             'execute at {"example.org"} { overlap($bc, $bc) }')

    def test_by_value_breaks_identity(self, fed):
        # Two copies of the same node no longer overlap: false.
        result = run(fed, self.QUERY, Strategy.BY_VALUE)
        assert result.items == [False]

    def test_by_fragment_preserves_identity(self, fed):
        result = run(fed, self.QUERY, Strategy.BY_FRAGMENT)
        assert result.items == [True]


class TestProblem3_DocumentOrder:
    QUERY = (MAKENODES + EARLIER +
             "let $abc := <a><b><c/></b></a> "
             "let $bc := $abc/child::b "
             'let $first := execute at {"example.org"} '
             "{ earlier($bc, $abc) } "
             "return deep-equal($first, $abc)")

    def test_by_value_uses_parameter_order(self, fed):
        # $bc serialises before $abc, so "earlier" picks the copy of
        # $bc — although $abc is $bc's parent.
        result = run(fed, self.QUERY, Strategy.BY_VALUE)
        assert result.items == [False]

    def test_by_fragment_preserves_order(self, fed):
        """The Figure 4 message: one fragment, both parameters as
        references — the remote << comparison sees original order."""
        result = run(fed, self.QUERY, Strategy.BY_FRAGMENT)
        assert result.items == [True]


class TestProblem4_MixedCalls:
    """Nodes returned by different calls to the same peer lose shared
    identity under by-value; Bulk RPC + fragments repair it."""

    QUERY = (
        "declare function pick($n as xs:integer) as node() "
        "{ let $t := <a><b/><b/></a> return $t/child::b[$n] };\n"
        "count((for $i in (1, 1) return "
        'execute at {"example.org"} { pick($i) }) '
        "| ())")

    def test_remote_constructed_nodes_differ_per_call(self, fed):
        # Each call constructs its own tree remotely: two distinct
        # nodes is correct here; the point is the machinery handles
        # per-iteration calls (Bulk RPC path).
        result = run(fed, self.QUERY, Strategy.BY_FRAGMENT)
        assert result.stats.messages == 2  # one bulk request + response
        assert result.items == [2]

    def test_bulk_rpc_single_interaction(self, fed):
        bulk = run(fed, self.QUERY, Strategy.BY_FRAGMENT)
        unbulk = fed.run(self.QUERY, at="local",
                         strategy=Strategy.BY_FRAGMENT, bulk_rpc=False)
        assert bulk.stats.messages == 2
        assert unbulk.stats.messages == 4  # two interactions

    def test_mixed_destinations_are_called_one_by_one(self, fed):
        fed.add_peer("other.org")
        result = run(
            fed,
            "declare function one($n as xs:integer) as xs:integer "
            "{ $n + 1 };\n"
            'for $d in ("example.org", "other.org", "example.org") '
            "return execute at {$d} { one(1) }", Strategy.BY_FRAGMENT)
        assert result.items == [2, 2, 2]
        assert result.stats.messages == 6  # no bulk message to share

    def test_remote_join_invariant_is_called_once(self, fed):
        # The hash join is chosen before the body is asked whether it
        # sends messages: the invariant side's call goes out once, not
        # once per binding.
        result = run(
            fed,
            "declare function keys() as xs:integer* { (2, 3) };\n"
            "for $i in (1, 2, 3, 4) return "
            'if ($i = (execute at {"example.org"} { keys() })) '
            "then $i else ()", Strategy.BY_FRAGMENT)
        assert result.items == [2, 3]
        assert result.stats.messages == 2
        # ... also when a branch sends messages of its own: one
        # interaction for the invariant, one per matching binding.
        result = run(
            fed,
            "declare function keys() as xs:integer* { (2, 3) };\n"
            "declare function one($n as xs:integer) as xs:integer "
            "{ $n + 1 };\n"
            "for $i in (1, 2, 3, 4) return "
            'if ($i = (execute at {"example.org"} { keys() })) '
            'then execute at {"example.org"} { one($i) } else ()',
            Strategy.BY_FRAGMENT)
        assert result.items == [3, 4]
        assert result.stats.messages == 6

    def test_bulk_rpc_with_a_call_in_a_parameter(self, fed):
        fed.add_peer("other.org")
        result = run(
            fed,
            "declare function one($n as xs:integer) as xs:integer "
            "{ $n + 1 };\n"
            "for $i in (1, 2, 3) return "
            'execute at {"example.org"} '
            '{ one(execute at {"other.org"} { one($i) }) }',
            Strategy.BY_FRAGMENT)
        assert result.items == [3, 4, 5]
        # three inner interactions, one bulk message for the outer call
        assert result.stats.messages == 8


class TestProblem5_BuiltinFunctions:
    def test_class1_static_context_shipped(self, fed):
        query = ('declare function f() as xs:string '
                 "{ static-base-uri() };\n"
                 'execute at {"example.org"} { f() }')
        result = run(fed, query, Strategy.BY_VALUE)
        assert result.items == ["http://localhost/"]

    def test_class3_root_under_projection(self, fed):
        query = (MAKENODES +
                 'let $bc := execute at {"example.org"} { makenodes() } '
                 "return root($bc)/child::b/child::c")
        # Projection ships the whole fragment up to the root.
        result = run(fed, query, Strategy.BY_PROJECTION)
        assert serialize_sequence(result.items) == "<c/>"

    def test_current_datetime_identical_everywhere(self, fed):
        query = ('declare function f() as xs:string '
                 "{ current-dateTime() };\n"
                 'let $r := execute at {"example.org"} { f() } '
                 "return $r = current-dateTime()")
        result = run(fed, query, Strategy.BY_VALUE)
        assert result.items == [True]
