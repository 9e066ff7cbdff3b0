"""Differential test: the compiled by-projection marshal against the
per-path one it replaced.

``xrpc/marshal.py`` runs a call site's used / returned paths as one
prefix trie (:func:`~repro.paths.relpath.compile_paths`) over each
parameter's nodes grouped by document, and hands Algorithm 1 pre sets;
the reference (``tests/oracle/marshal_reference.py``) evaluates every
path on its own and feeds ``Node`` lists to the list-based Algorithm 1
kept in ``tests/oracle/projection_reference.py``. Property: for
generated documents (element- or document-rooted, ID / IDREF attributes
among them), parameter sequences of any node kind and atomics over one
or two documents, and used / returned path sets that share prefixes
and hold non-downward and ``root()`` / ``id()`` / ``idref()`` steps,
both give the same fragments (columns and text) and the same
references, or raise the same error.

Tier-1 runs a small seeded sample; CI's ``fuzz`` job runs it under
``--hypothesis-profile=long``.
"""

from hypothesis import given, strategies as st

from repro.errors import XmlError, XrpcMarshalError
from repro.paths.analysis import PathSets
from repro.paths.relpath import RelPath, compile_paths
from repro.xmldb.node import Node
from repro.xrpc.marshal import marshal_calls
from tests.conftest import fuzz_settings, texts
from tests.oracle import columns
from tests.oracle.marshal_reference import marshal_by_projection
from tests.xquery.test_indexed_equivalence import _rel_steps, xml_trees


@st.composite
def _path_sets(draw) -> PathSets:
    """Paths off two spines: prefixes of one, some with a step more,
    so shared prefixes are the rule."""
    spines = draw(st.lists(st.lists(_rel_steps, max_size=3),
                           min_size=1, max_size=2))

    def paths():
        spine = draw(st.sampled_from(spines))
        steps = spine[:draw(st.integers(0, len(spine)))]
        if draw(st.booleans()):
            steps.append(draw(_rel_steps))
        return RelPath(tuple(steps))

    return PathSets(
        used={paths() for _ in range(draw(st.integers(0, 3)))},
        returned={paths() for _ in range(draw(st.integers(0, 3)))})


@st.composite
def _requests(draw):
    docs = draw(st.lists(xml_trees(), min_size=1, max_size=2))
    population = [Node(doc, pre) for doc in docs for pre in range(len(doc))]
    items = st.lists(st.sampled_from(population) | st.integers(0, 9),
                     max_size=4)
    names = ["a", "b"][:draw(st.integers(1, 2))]
    calls = [[(name, draw(items)) for name in names]
             for _ in range(draw(st.integers(1, 2)))]
    # A parameter without paths ships its nodes whole.
    param_paths = {name: draw(_path_sets()) for name in names
                   if draw(st.integers(0, 3))}
    return calls, param_paths


def _outcome(marshal):
    try:
        bundle = marshal()
    except (XmlError, XrpcMarshalError) as error:
        return type(error).__name__, str(error)
    return ([columns(root.doc) for root in bundle.fragments],
            [root.pre for root in bundle.fragments], texts(bundle.fragments),
            [call.params for call in bundle.calls])


@given(_requests())
@fuzz_settings(200)
def test_compiled_paths_marshal_as_each_path_did(request):
    calls, param_paths = request
    compiled = {name: compile_paths(sets.used, sets.returned)
                for name, sets in param_paths.items()}
    assert _outcome(lambda: marshal_calls(calls, "by-projection",
                                          compiled)) == \
        _outcome(lambda: marshal_by_projection(calls, param_paths))
