"""The XQuery beyond the benchmark query, distributed and checked.

The paper's claim is that a decomposed query returns what local
evaluation returns. This runs two checks of it, each at a peer that
holds no data, against data shipping (the documents fetched whole and
evaluated locally):

* a tour of the language that the benchmark query does not touch —
  set operators, node identity and document order, fn:id / fn:idref,
  the horizontal and descendant-or-self axes, value comparisons that
  probe an index, comments and processing instructions in the stored
  document, attribute and document nodes passed to another peer's
  call, typeswitch, prolog declarations, unary minus, ``and`` / ``or``
  and ``order by`` keys of mixed kinds — under every strategy;
* the built-in table: every registered built-in, at every arity,
  applied at peer B to a node shipped from peer A, under every
  strategy and ``auto``. A row that answers differently is a known
  fault (``BUILTIN_FAULTS``, each naming its ROADMAP item) or the run
  fails; so does a known fault that no longer shows.

Run:  python examples/language_tour.py
"""

from repro import Federation, Strategy, serialize_sequence
from repro.errors import XQueryError

LIBRARY = """<?xml version="1.0"?>
<library>
 <?catalogue sorted-by-year?>
 <book id="b1" year="1999"><title>XQuery</title><author ref="a1"/></book>
 <book id="b2" year="2004"><title>XPath</title><author ref="a2"/>
  <!-- second printing --></book>
 <book id="b3" year="2009"><title>XRPC</title><author ref="a1 a2"/></book>
 <authors>
  <author id="a1"><name>Ann</name></author>
  <author id="a2"><name>Bob</name></author>
 </authors>
</library>"""

LOANS = """<loans>
 <loan book="b1" reader="r1"/><loan book="b3" reader="r2"/>
 <loan book="b3" reader="r1"/>
</loans>"""

LIB = 'doc("xrpc://A/library.xml")'
LOAN = 'doc("xrpc://B/loans.xml")'

TOUR = [
    ("union", f"{LIB}//book[@year < 2000] | {LIB}//book[@year > 2005]"),
    ("intersect", f"({LIB}//book) intersect "
                  f'({LIB}//book[author/@ref = "a1"])'),
    ("except", f"({LIB}//book) except ({LIB}//book[@year = 2004])"),
    ("is", f'({LIB}//book[@id = "b1"] is {LIB}//book[1], '
           f"{LIB}//book[1] is {LIB}//book[2])"),
    ("<< and >>", f"({LIB}//book[1] << {LIB}//book[2], "
                  f"{LIB}//book[1] >> {LIB}//book[2])"),
    ("fn:id", f'id("a2", {LIB})/name'),
    ("fn:idref", f'idref("a1", {LIB})/parent::book/title'),
    ("following", f"{LIB}//book[1]/following::title"),
    ("preceding", f"{LIB}//book[3]/preceding::title"),
    ("descendant-or-self", f"{LIB}/descendant-or-self::title"),
    ("!= probe", f"{LIB}//book[@year != 2004]/title"),
    ("self-axis predicate", f"{LIB}//node()[self::title]"),
    ("self-value probe", f'{LIB}//title[. = "XPath"]'),
    ("attributes shipped", f"let $ids := {LIB}//book[@year > 2000]/@id "
                           f"return {LOAN}//loan[@book = $ids]/@reader"),
    ("a document shipped", f"let $d := {LIB} return {LOAN}//loan"
                           f"[@book = $d//book[@year < 2000]/@id]"),
    ("comment()", f"{LIB}//comment()"),
    ("fn:root", f"root({LIB}//book[2])/*/book[1]/title"),
    ("typeswitch", f"for $v in ({LIB}//book[1], {LIB}//book[1]/@year, "
                   f'{LIB}//title[1]/text(), {LIB}, "s", 2, 2.5, '
                   f"{LIB}//book[1]/title = 'XQuery', ()) return "
                   "typeswitch ($v) case element(book) return 'book' "
                   "case attribute(year) return 'year' "
                   "case text() return 'text' "
                   "case document-node() return 'document' "
                   "case xs:string return 'string' "
                   "case xs:integer return 'integer' "
                   "case xs:double return 'double' "
                   "case $b as xs:boolean return $b "
                   "default return 'other'"),
    ("typeswitch on a sequence", f"typeswitch ({LIB}//book) "
                                 "case empty-sequence() return 0 "
                                 "case element(title)+ return 1 "
                                 "case $n as node()* return count($n) "
                                 "default return 3"),
    ("declare variable", f"declare variable $year as xs:integer := 2000; "
                         f"{LIB}//book[@year > $year]/title"),
    ("unary minus", f"{LIB}//book[-@year < -2000]/title"),
    ("and / or", f"for $b in {LIB}//book return <b>"
                 "{$b/@year > 2000 and $b/@year < 2005 or $b/@id = 'b1'}"
                 "</b>"),
    ("order by empty keys", f"for $b in {LIB}//book "
                            "order by $b[@year > 2000]/@year descending "
                            "empty greatest return $b/@id"),
    ("doubles", f"(avg({LIB}//book/@year), -(0.5 * 3), number('x'))"),
]

#: The built-in table's documents: three ``<x>`` at peer A that differ
#: in children, text, attributes and IDs, and one ``<i>`` at peer B.
BUILTIN_A = ('<r><x id="a1"><a/>t</x><x ref="a1"><b>u</b> 2.5 </x>'
             '<x k="-1">t</x></r>')
BUILTIN_B = '<l><i n="1"/></l>'
XS = 'doc("xrpc://A/d.xml")/child::r/child::x'
IS = 'doc("xrpc://B/e.xml")/child::l/child::i'

#: One row per registered ``(name, arity)``: the built-in applied to
#: ``$x``, a node of peer A; :func:`builtin_query` wraps it so that the
#: loop over peer B's ``<i>`` — and the call — run at B.
BUILTIN_ROWS = {
    ("doc", 1): 'doc("xrpc://B/e.xml")/child::l/child::i'
                "[@n = count($x/child::*)]",
    ("collection", 1): 'collection("xrpc://B/e.xml")/child::l/child::i'
                       "[@n = count($x/child::*)]",
    ("root", 1): "name(root($x)/child::*)",
    ("id", 1): 'count($x[exists(id("a1"))])',
    ("id", 2): 'name(id("a1", $x))',
    ("idref", 1): 'count($x[exists(idref("a1"))])',
    ("idref", 2): 'count(idref("a1", $x))',
    ("base-uri", 1): "base-uri($x)",
    ("xrpc:base-uri", 1): "xrpc:base-uri($x)",
    ("document-uri", 1): "document-uri(root($x))",
    ("xrpc:document-uri", 1): "xrpc:document-uri($x)",
    ("static-base-uri", 0): "if ($x/@k) then static-base-uri() else ()",
    ("default-collation", 0): "if ($x/@k) then default-collation() else ()",
    ("current-dateTime", 0): "if ($x/@k) then current-dateTime() else ()",
    ("count", 1): "count($x/child::node())",
    ("empty", 1): "empty($x/child::a)",
    ("exists", 1): "exists($x/@k)",
    ("distinct-values", 1): "distinct-values(($x, $x/child::*))",
    ("reverse", 1): "reverse($x/child::node())",
    ("subsequence", 2): "subsequence($x/child::node(), 2)",
    ("subsequence", 3): "subsequence($x/child::node(), 1, 1)",
    ("index-of", 2): 'index-of(($x, $x/child::*), "t")',
    ("insert-before", 3): 'insert-before($x/child::node(), 1, "s")',
    ("remove", 2): "remove($x/child::node(), 1)",
    ("exactly-one", 1): "exactly-one($x/child::text())",
    ("zero-or-one", 1): "zero-or-one($x/child::*)",
    ("one-or-more", 1): "one-or-more($x/child::node())",
    ("unordered", 1): "unordered($x/child::node())",
    ("not", 1): "not($x/@k)",
    ("boolean", 1): "boolean($x/child::*)",
    ("true", 0): "if ($x/@k) then true() else ()",
    ("false", 0): "if ($x/@k) then () else false()",
    ("deep-equal", 2): 'deep-equal($x, <x k="-1">t</x>)',
    ("string", 0): 'count($x[string() = "t"])',
    ("string", 1): "string($x)",
    ("data", 1): "data($x)",
    ("number", 0): "count($x/child::text()[number() = 2.5])",
    ("number", 1): "number($x/child::text()[last()])",
    ("concat", 2): 'concat($x, "|")',
    ("concat", 3): 'concat($x, "|", $x/@k)',
    ("concat", 4): "concat($x, 1, 2, 3)",
    ("concat", 5): "concat($x, 1, 2, 3, 4)",
    ("concat", 6): "concat($x, 1, 2, 3, 4, 5)",
    ("concat", 7): "concat($x, 1, 2, 3, 4, 5, 6)",
    ("concat", 8): "concat($x, 1, 2, 3, 4, 5, 6, name($x))",
    ("string-join", 2): 'string-join($x/child::node(), "+")',
    ("string-length", 0): "count($x[string-length() = 1])",
    ("string-length", 1): "string-length($x)",
    ("contains", 2): 'contains($x, ".")',
    ("starts-with", 2): 'starts-with($x, "u")',
    ("ends-with", 2): 'ends-with($x, "t")',
    ("substring", 2): "substring($x, 2)",
    ("substring", 3): "substring($x, 1, 3)",
    ("substring-before", 2): 'substring-before($x, ".")',
    ("substring-after", 2): 'substring-after($x, ".")',
    ("normalize-space", 0): 'count($x[normalize-space() = "u 2.5"])',
    ("normalize-space", 1): "normalize-space($x)",
    ("upper-case", 1): "upper-case($x)",
    ("lower-case", 1): "lower-case(upper-case($x))",
    ("translate", 3): 'translate($x, "t.", "T")',
    ("sum", 1): "sum($x/@k)",
    ("sum", 2): 'sum($x/@k, "none")',
    ("avg", 1): "avg($x/@k)",
    ("max", 1): "max(($x/@k, 0))",
    ("min", 1): "min(($x/@k, 0))",
    ("abs", 1): "abs($x/@k)",
    ("floor", 1): "floor(number($x/child::text()[last()]))",
    ("ceiling", 1): "ceiling(number($x/child::text()[last()]))",
    ("round", 1): "round(number($x/child::text()[last()]))",
    ("local-name", 0): 'count($x/child::*[local-name() = "a"])',
    ("local-name", 1): "local-name($x/child::*)",
    ("name", 0): 'count($x/child::*[name() = "b"])',
    ("name", 1): "name($x)",
    ("position", 0): "$x/child::node()[position() = 2]",
    ("last", 0): "$x/child::node()[last()]",
    ("error", 0): "if ($x/@k) then error() else 1",
    ("error", 1): 'if ($x/@k) then error("k") else 1',
}

#: The strategies a row runs under; data shipping is the reference.
BUILTIN_STRATEGIES = ("by-value", "by-fragment", "by-projection", "auto")

#: Rows whose call stays with the loop over ``$x`` under every
#: strategy: a collection may hold any document, peer A's too.
BUILTIN_LOCAL = {("collection", 1)}

#: Rows known to answer differently from data shipping: the strategies
#: that do, and why.
BUILTIN_FAULTS = {
    ("root", 1): ({"by-projection"}, "ROADMAP item 19(a): root($x) of a "
                  "projected node is its message's root, whose children "
                  "are every node shipped"),
    ("id", 1): ({"by-value", "by-projection"}, "ROADMAP item 19(e): "
                "condition iv does not see fn:id read the focus, so "
                "by-value ships $x alone"),
    ("idref", 1): ({"by-value", "by-projection"}, "ROADMAP item 19(e): "
                   "condition iv does not see fn:idref read the focus, "
                   "so by-value ships $x alone"),
    ("id", 2): ({"by-projection"}, "ROADMAP item 19(b): the projection "
                "of an id() step keeps no ID-bearing element"),
    ("idref", 2): ({"by-projection"}, "ROADMAP item 19(b): the projection "
                   "of an idref() step keeps no IDREF-bearing element"),
    ("base-uri", 1): ({"by-value", "by-fragment", "by-projection"},
                      "ROADMAP item 19(d): a shipped node's base URI is "
                      "its message's, not its document's"),
    ("xrpc:base-uri", 1): ({"by-value", "by-fragment", "by-projection"},
                           "ROADMAP item 19(d): a shipped node's base URI "
                           "is its message's, not its document's"),
    ("document-uri", 1): ({"by-projection"}, "ROADMAP item 19(d): the "
                          "projected fragment's root is not the "
                          "document node"),
}


def builtin_query(row: str) -> str:
    """A row's query: ``$x`` ranges over peer A's ``<x>``, and the
    loop over peer B's ``<i>`` applies the row to it at B."""
    return f"for $x in {XS} return for $i in {IS} return <v>{{{row}}}</v>"


def builtin_federation() -> Federation:
    federation = Federation()
    federation.add_peer("A").store("d.xml", BUILTIN_A)
    federation.add_peer("B").store("e.xml", BUILTIN_B)
    federation.add_peer("local")
    return federation


def answer(federation: Federation, query: str, strategy) -> str:
    """The serialized answer, or the error the query raises."""
    try:
        items = federation.run(query, at="local", strategy=strategy).items
    except XQueryError as error:
        return f"raises {type(error).__name__}: {error}"
    return serialize_sequence(items)


def main() -> None:
    federation = Federation()
    federation.add_peer("A").store("library.xml", LIBRARY)
    federation.add_peer("B").store("loans.xml", LOANS)
    federation.add_peer("local")

    width = max(len(name) for name, _ in TOUR)
    print(f"{'feature':{width}s}  {'bytes (by-projection)':>21s}  answer")
    for name, query in TOUR:
        runs = {strategy: federation.run(query, at="local",
                                         strategy=strategy)
                for strategy in Strategy}
        expected = serialize_sequence(runs[Strategy.DATA_SHIPPING].items)
        for strategy, run in runs.items():
            got = serialize_sequence(run.items)
            if got != expected:
                raise SystemExit(f"{name}: {strategy.value} answered "
                                 f"{got!r}, local evaluation {expected!r}")
        moved = runs[Strategy.BY_PROJECTION].stats.total_transferred_bytes
        print(f"{name:{width}s}  {moved:21d}  "
              f"{' '.join(expected.split())[:60]}")
    print(f"\nEvery strategy returned what local evaluation returned on "
          f"all {len(TOUR)} queries.\n")
    check_builtins()


def check_builtins() -> None:
    federation = builtin_federation()
    print(f"{'built-in':22s}  {'differs under':30s}  data shipping")
    for (name, arity), row in BUILTIN_ROWS.items():
        query = builtin_query(row)
        expected = answer(federation, query, "data-shipping")
        differs = {strategy for strategy in BUILTIN_STRATEGIES
                   if answer(federation, query, strategy) != expected}
        known, _reason = BUILTIN_FAULTS.get((name, arity), (set(), ""))
        if differs != known:
            raise SystemExit(f"{name}#{arity}: differs under "
                             f"{sorted(differs)}, known {sorted(known)}")
        print(f"{name + '#' + str(arity):22s}  "
              f"{', '.join(sorted(differs)) or '-':30s}  "
              f"{' '.join(expected.split())[:40]}")
    print(f"\n{len(BUILTIN_ROWS)} built-ins: "
          f"{len(BUILTIN_ROWS) - len(BUILTIN_FAULTS)} answer as data "
          f"shipping does under every strategy; {len(BUILTIN_FAULTS)} are "
          "known faults:")
    for (name, arity), (_known, reason) in BUILTIN_FAULTS.items():
        print(f"  {name}#{arity}: {reason}")


if __name__ == "__main__":
    main()
