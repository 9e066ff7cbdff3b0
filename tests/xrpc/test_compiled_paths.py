"""A call site's projection paths are compiled once.

The originator compiles a site's parameter paths into one prefix trie
(:class:`~repro.paths.relpath.CompiledPaths`) when the site is built;
a peer interns the trie of a request's result paths by their texts.
So a warm run parses no path text and builds no trie, on either side
of the wire — counted here, with no clock.
"""

import sys

import pytest

import repro.paths.relpath as relpath
from repro.paths.relpath import (
    RETURNED, USED, CompiledPaths, RelStep, compile_paths, parse_rel_path,
)
from repro.workloads import (
    BENCHMARK_QUERY, SHARDED_BENCHMARK_QUERY, build_federation,
    build_sharded_federation,
)
from repro.xquery.xdm import serialize_sequence


@pytest.fixture
def compilations(monkeypatch):
    """Calls of ``parse_rel_path`` (every module's binding of it) and
    :class:`CompiledPaths` built, by name."""
    calls = {"parse_rel_path": 0, "CompiledPaths": 0}
    parse = relpath.parse_rel_path

    def counting_parse(text):
        calls["parse_rel_path"] += 1
        return parse(text)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and \
                getattr(module, "parse_rel_path", None) is parse:
            monkeypatch.setattr(module, "parse_rel_path", counting_parse)
    init = CompiledPaths.__init__

    def counting_init(self, *args, **kwargs):
        calls["CompiledPaths"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(CompiledPaths, "__init__", counting_init)
    return calls


@pytest.mark.parametrize("build, query", [
    (lambda: build_federation(0.004), BENCHMARK_QUERY),
    (lambda: build_sharded_federation(0.004, shard_count=4,
                                      replication_factor=2),
     SHARDED_BENCHMARK_QUERY),
], ids=["semijoin", "sharded"])
def test_warm_runs_parse_and_compile_no_path(compilations, build, query):
    federation = build()
    data_peers = [peer for name, peer in federation.peers.items()
                  if name != "local"]
    # Cold: the originator's site compiles its parameter paths, each
    # peer the result paths its first request carries. A scatter's
    # cover rotates with the load, so one run per data peer lets every
    # replica serve the site once.
    for _ in data_peers:
        cold = federation.run(query, at="local", strategy="by-projection")
    assert all(len(peer.prepared) for peer in data_peers)
    assert compilations["parse_rel_path"] > 0
    assert compilations["CompiledPaths"] > 0
    for name in compilations:
        compilations[name] = 0
    for _ in range(2):
        warm = federation.run(query, at="local", strategy="by-projection")
        assert serialize_sequence(warm.items) == \
            serialize_sequence(cold.items)
        assert warm.stats.message_bytes == cold.stats.message_bytes
    assert compilations == {"parse_rel_path": 0, "CompiledPaths": 0}


def _paths(*texts):
    return [parse_rel_path(text) for text in texts]


def test_shared_prefixes_are_one_stage():
    compiled = compile_paths(
        used=_paths("attribute::id", "attribute::id/descendant::text()"),
        returned=_paths("child::a", "child::a/child::b"))
    assert compiled.stages == (
        (0, None, 0),
        (0, RelStep("attribute", "id"), USED),
        (1, RelStep("descendant", "text()"), USED),
        (0, RelStep("child", "a"), RETURNED),
        (3, RelStep("child", "b"), RETURNED))


def test_a_non_downward_prefix_is_a_used_anchor():
    compiled = compile_paths(returned=_paths(
        "parent::a/child::b", "root()/descendant::c", "child::d/parent::e"))
    assert [(str(step), joins) for _source, step, joins
            in compiled.stages[1:]] == [
        ("parent::a", USED), ("child::b", RETURNED),
        ("root()", USED), ("descendant::c", RETURNED),
        ("child::d", 0), ("parent::e", RETURNED)]


def test_the_empty_path_is_the_context():
    compiled = compile_paths(used=_paths("self::node()"),
                             returned=_paths("self::node()"))
    assert compiled.stages == ((0, None, USED | RETURNED),)
