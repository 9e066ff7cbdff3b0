"""What the system refuses, and how it says so.

Input from outside the program — a stored document, a query text, a
peer that stops answering — fails as one of the typed errors in
``repro.errors``, and a fault on a remote peer crosses the wire as the
same type. Each case below is fed on purpose and its error printed.

Run:  python examples/typed_errors.py
"""

from repro import Federation, Strategy, parse_fragment
from repro.errors import (
    NetworkError, UndefinedFunctionError,
    UndefinedVariableError, XmlParseError, XQuerySyntaxError,
)


def refused(label: str, expected: type, action) -> None:
    try:
        action()
    except expected as error:
        where = getattr(error, "offset", None)
        at = f" (offset {where})" if where is not None else ""
        print(f"  {label}: {type(error).__name__}{at}: {error}")
    else:
        raise SystemExit(f"{label}: accepted, expected {expected.__name__}")


def main() -> None:
    federation = Federation()
    peer = federation.add_peer("A").store("ok.xml", "<a><b>1</b></a>")
    federation.add_peer("local")

    print("Malformed documents (Peer.store parses what it is given):")
    refused("unclosed element", XmlParseError,
            lambda: peer.store("bad.xml", "<a><b>1</a>"))
    refused("unknown entity", XmlParseError,
            lambda: peer.store("bad.xml", '<a title="&nbsp;"/>'))
    refused("lone surrogate", XmlParseError,
            lambda: peer.store("bad.xml", "<a>\ud800</a>"))
    refused("prolog in a fragment", XmlParseError,
            lambda: parse_fragment('<?xml version="1.0"?><a/>'))

    print("\nQueries the compiler refuses:")
    refused("syntax", XQuerySyntaxError,
            lambda: federation.run("for $x in", at="local"))
    refused("unbound variable", UndefinedVariableError,
            lambda: federation.run("$nowhere + 1", at="local"))
    refused("undeclared function", UndefinedFunctionError,
            lambda: federation.run("local:twice(2)", at="local"))

    print("\nFaults on the far side of the wire:")
    refused("missing document", NetworkError,
            lambda: federation.run('doc("xrpc://A/none.xml")/child::a',
                                   at="local",
                                   strategy=Strategy.BY_FRAGMENT))
    federation.transport.kill_peer("A")
    refused("peer down", NetworkError,
            lambda: federation.run('doc("xrpc://A/ok.xml")/child::a',
                                   at="local",
                                   strategy=Strategy.BY_FRAGMENT))
    federation.transport.revive_peer("A")
    answer = federation.run('doc("xrpc://A/ok.xml")/child::a/child::b',
                            at="local", strategy=Strategy.BY_FRAGMENT)
    print(f"\nRevived, the same peer answers ({len(answer.items)} node);"
          f" it stores {sorted(peer.documents)}: no refused text was kept.")


if __name__ == "__main__":
    main()
