"""Cross-query Bulk-RPC coalescing: merge windows, slicing, errors."""

import threading

import pytest

from repro.decompose import Strategy
from repro.errors import XrpcMarshalError
from repro.runtime.batching import (
    MAX_CALLS, BulkBatcher, _split_response, batch_key,
)
from repro.workloads import BENCHMARK_QUERY, build_federation
from repro.xquery.xdm import sequences_deep_equal
from repro.xrpc.messages import Atomic, NodeRef, ResponseMessage
from tests.conftest import element, texts


def atomic_response(values):
    return ResponseMessage(results=[[Atomic("xs:integer", str(v))]
                                    for v in values])


def echoing_exchange(log):
    """A merged_exchange that answers call i with its own payload."""
    def exchange(merged_calls):
        log.append(len(merged_calls))
        return atomic_response(
            [params[0][1][0] for params in merged_calls]).to_xml()
    return exchange


def call_with(value):
    return [[("x", [value])]]


class TestBatchKey:
    def test_same_shape_merges(self):
        a = batch_key("B", "$x", ["x"], "by-fragment", {"k": "v"},
                      None, None)
        b = batch_key("B", "$x", ["x"], "by-fragment", {"k": "v"},
                      None, None)
        assert a == b

    def test_any_shape_difference_separates(self):
        base = batch_key("B", "$x", ["x"], "by-fragment", {}, None, None)
        variants = [
            batch_key("A", "$x", ["x"], "by-fragment", {}, None, None),
            batch_key("B", "$y", ["x"], "by-fragment", {}, None, None),
            batch_key("B", "$x", ["y"], "by-fragment", {}, None, None),
            batch_key("B", "$x", ["x"], "by-value", {}, None, None),
            batch_key("B", "$x", ["x"], "by-fragment", {"k": "v"},
                      None, None),
            batch_key("B", "$x", ["x"], "by-fragment", {}, ["p"], None),
            batch_key("B", "$x", ["x"], "by-fragment", {}, None, ["p"]),
        ]
        assert base not in variants
        assert len(set(variants)) == len(variants)


class TestCoalescing:
    def test_concurrent_same_key_calls_merge(self):
        batcher = BulkBatcher(window_s=0.2)
        key = batch_key("B", "$x", ["x"], "by-value", {}, None, None)
        sizes = []
        exchange = echoing_exchange(sizes)
        responses = {}
        barrier = threading.Barrier(2)

        def participant(value):
            barrier.wait()
            responses[value] = batcher.execute(key, call_with(value),
                                               exchange)

        threads = [threading.Thread(target=participant, args=(v,))
                   for v in (7, 11)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert sizes == [2]  # one exchange carried both calls
        for value, xml in responses.items():
            parsed = ResponseMessage.from_xml(xml)
            assert parsed.results == [[Atomic("xs:integer", str(value))]]
        snapshot = batcher.snapshot()
        assert snapshot == {"round_trips": 2, "exchanges": 1,
                            "coalesced": 1, "merge_rate": 0.5}

    def test_different_keys_never_merge(self):
        batcher = BulkBatcher(window_s=0.05)
        sizes = []
        exchange = echoing_exchange(sizes)
        keys = [batch_key("B", f"$x{i}", ["x"], "by-value", {}, None, None)
                for i in range(2)]
        threads = [
            threading.Thread(
                target=lambda k=k, v=v: batcher.execute(
                    k, call_with(v), exchange))
            for k, v in zip(keys, (1, 2))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(sizes) == [1, 1]
        assert batcher.snapshot()["coalesced"] == 0

    def test_zero_window_means_no_waiting(self):
        batcher = BulkBatcher(window_s=0.0)
        sizes = []
        xml = batcher.execute(
            batch_key("B", "$x", ["x"], "by-value", {}, None, None),
            call_with(3), echoing_exchange(sizes))
        assert sizes == [1]
        parsed = ResponseMessage.from_xml(xml)
        assert parsed.results == [[Atomic("xs:integer", "3")]]

    def test_max_calls_closes_the_batch_early(self):
        batcher = BulkBatcher(window_s=60.0)
        sizes = []
        # The window is a minute, but MAX_CALLS calls fire immediately.
        batcher.execute(
            batch_key("B", "$x", ["x"], "by-value", {}, None, None),
            call_with(3) * MAX_CALLS, echoing_exchange(sizes))
        assert sizes == [MAX_CALLS]

    def test_bulk_calls_keep_their_slice(self):
        """A participant contributing several calls gets exactly its
        contiguous slice back."""
        batcher = BulkBatcher(window_s=0.2)
        key = batch_key("B", "$x", ["x"], "by-value", {}, None, None)
        sizes = []
        exchange = echoing_exchange(sizes)
        responses = {}
        barrier = threading.Barrier(2)

        def participant(values):
            calls = [[("x", [v])] for v in values]
            barrier.wait()
            responses[tuple(values)] = batcher.execute(key, calls, exchange)

        threads = [threading.Thread(target=participant, args=(vs,))
                   for vs in ([1, 2], [3])]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sizes == [3]
        for values, xml in responses.items():
            parsed = ResponseMessage.from_xml(xml)
            assert parsed.results == [[Atomic("xs:integer", str(v))]
                                      for v in values]


    def test_rider_answer_equals_solo_exchange(self):
        """Two identical queries coalesce into one merged exchange per
        call site; each participant's split response must unmarshal to
        exactly what a solo exchange returns."""
        solo = build_federation(0.02).run(BENCHMARK_QUERY, at="local",
                                          strategy=Strategy.BY_FRAGMENT)
        federation = build_federation(0.02)
        batcher = BulkBatcher(window_s=0.2)
        barrier = threading.Barrier(2)
        results = []

        def tenant():
            barrier.wait()
            results.append(federation.run(
                BENCHMARK_QUERY, at="local",
                strategy=Strategy.BY_FRAGMENT, batcher=batcher))

        threads = [threading.Thread(target=tenant) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(results) == 2
        assert batcher.snapshot()["coalesced"] >= 1
        for result in results:
            assert sequences_deep_equal(result.items, solo.items)


class TestSplitResponse:
    def test_foreign_fragments_dropped_and_fragids_renumbered(self):
        merged = ResponseMessage(
            results=[[NodeRef(1, 1)], [NodeRef(2, 1)]],
            fragments=[element("<a/>"), element("<b/>")])
        first = _split_response(merged, (0, 1))
        second = _split_response(merged, (1, 2))
        assert texts(first.fragments) == ["<a/>"]
        assert first.results == [[NodeRef(1, 1)]]
        assert texts(second.fragments) == ["<b/>"]
        assert second.results == [[NodeRef(1, 1)]]  # remapped 2 -> 1

    def test_shared_fragment_kept_for_both(self):
        merged = ResponseMessage(
            results=[[NodeRef(1, 1)], [NodeRef(1, 2)]],
            fragments=[element("<a><b/></a>")])
        for slot, nodeid in (((0, 1), 1), ((1, 2), 2)):
            split = _split_response(merged, slot)
            assert texts(split.fragments) == ["<a><b/></a>"]
            assert split.results == [[NodeRef(1, nodeid)]]

    def test_atomic_only_slice_carries_no_fragments(self):
        merged = ResponseMessage(
            results=[[Atomic("xs:integer", "1")], [NodeRef(1, 1)]],
            fragments=[element("<a/>")])
        split = _split_response(merged, (0, 1))
        assert split.fragments == []
        assert split.results == [[Atomic("xs:integer", "1")]]

    @pytest.mark.parametrize("fragid", [0, -1, 3])
    def test_fragid_outside_the_preamble_is_a_marshal_error(self, fragid):
        # Not fragments[-1] / fragments[-2] by negative indexing, and
        # not a bare IndexError: the merged response is wire input.
        merged = ResponseMessage(
            results=[[NodeRef(fragid, 1)]],
            fragments=[element("<a/>"), element("<b/>")])
        with pytest.raises(XrpcMarshalError, match="fragid"):
            _split_response(merged, (0, 1))

    def test_window_skipped_when_not_worth_waiting(self):
        batcher = BulkBatcher(window_s=60.0, worth_waiting=lambda: False)
        sizes = []
        # A 60s window would hang the test if the predicate were ignored.
        xml = batcher.execute(
            batch_key("B", "$x", ["x"], "by-value", {}, None, None),
            call_with(5), echoing_exchange(sizes))
        assert ResponseMessage.from_xml(xml).results == \
            [[Atomic("xs:integer", "5")]]


class TestErrors:
    def test_leader_failure_reaches_every_participant(self):
        batcher = BulkBatcher(window_s=0.2)
        key = batch_key("B", "$x", ["x"], "by-value", {}, None, None)
        errors = []
        barrier = threading.Barrier(2)

        def exploding_exchange(_merged):
            raise ValueError("wire down")

        def participant(value):
            barrier.wait()
            try:
                batcher.execute(key, call_with(value), exploding_exchange)
            except ValueError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=participant, args=(v,))
                   for v in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == ["wire down", "wire down"]

    def test_batcher_reusable_after_failure(self):
        batcher = BulkBatcher(window_s=0.0)
        key = batch_key("B", "$x", ["x"], "by-value", {}, None, None)
        with pytest.raises(ValueError):
            batcher.execute(key, call_with(1),
                            lambda _m: (_ for _ in ()).throw(
                                ValueError("boom")))
        sizes = []
        xml = batcher.execute(key, call_with(2), echoing_exchange(sizes))
        assert ResponseMessage.from_xml(xml).results == \
            [[Atomic("xs:integer", "2")]]
