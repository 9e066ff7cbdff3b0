"""The federation API: peers, transport wiring, and `run()`.

This is the top of the stack — the piece a user of the library touches:

>>> from repro.system import Federation
>>> from repro.decompose import Strategy
>>> fed = Federation()
>>> fed.add_peer("peer1").store("d.xml", "<a><b/></a>")
>>> fed.add_peer("local")
>>> result = fed.run('doc("xrpc://peer1/d.xml")/child::a/child::b',
...                  at="local", strategy=Strategy.BY_FRAGMENT)
"""

from repro._exports import lazy_exports

__all__ = lazy_exports(globals(), {".federation": "Federation Peer RunResult"})
