"""The XQuery beyond the benchmark query, distributed and checked.

The paper's claim is that a decomposed query returns what local
evaluation returns. This runs a tour of the language that the
benchmark query does not touch — set operators, node identity and
document order, fn:id / fn:idref, the horizontal and
descendant-or-self axes, value comparisons that probe an index,
comments and processing instructions in the stored document,
attribute and document nodes passed to another peer's call — at a
peer that holds no data, under every strategy, and checks each answer
against data shipping (the documents fetched whole and evaluated
locally).

Run:  python examples/language_tour.py
"""

from repro import Federation, Strategy, serialize_sequence

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
]


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
        answer = serialize_sequence(runs[Strategy.DATA_SHIPPING].items)
        for strategy, run in runs.items():
            got = serialize_sequence(run.items)
            if got != answer:
                raise SystemExit(f"{name}: {strategy.value} answered "
                                 f"{got!r}, local evaluation {answer!r}")
        moved = runs[Strategy.BY_PROJECTION].stats.total_transferred_bytes
        print(f"{name:{width}s}  {moved:21d}  "
              f"{' '.join(answer.split())[:60]}")
    print(f"\nEvery strategy returned what local evaluation returned on "
          f"all {len(TOUR)} queries.")


if __name__ == "__main__":
    main()
