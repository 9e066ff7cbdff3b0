"""Catalog semantics: registration, epoch versioning, and the epoch
bumps of the peer view's down marks."""

import pytest

from repro.cluster import (
    ClusterCatalog, ClusterError, CollectionSpec, PeerView, ShardInfo,
)
from repro.obs.events import EventLog


def spec(name: str = "c", shards: int = 2) -> CollectionSpec:
    return CollectionSpec(
        name=name, document="d.xml", container_path=("root", "items"),
        member="item", replication_factor=2,
        shards=tuple(
            ShardInfo(index=i, local_name=f"d.xml#s{i}",
                      replicas=(f"p{i}", f"p{i + 1}"))
            for i in range(shards)))


def test_register_lookup_and_get():
    catalog = ClusterCatalog()
    catalog.register(spec("c1"))
    assert catalog.lookup("c1").name == "c1"
    assert catalog.get("c1").shard_count == 2
    assert catalog.lookup("unknown-host") is None
    with pytest.raises(ClusterError):
        catalog.get("unknown-host")


def test_duplicate_registration_rejected():
    catalog = ClusterCatalog()
    catalog.register(spec("c1"))
    with pytest.raises(ClusterError):
        catalog.register(spec("c1"))


def test_epoch_bumps_on_every_mutation():
    catalog = ClusterCatalog()
    view = PeerView(catalog)
    epochs = [catalog.epoch()]
    catalog.register(spec("c1"))
    epochs.append(catalog.epoch())
    catalog.replace(spec("c1", shards=3))
    epochs.append(catalog.epoch())
    view.mark_down("p1")
    epochs.append(catalog.epoch())
    view.mark_up("p1")
    epochs.append(catalog.epoch())
    assert epochs == sorted(set(epochs)), "every mutation bumps the epoch"


def test_mark_down_is_idempotent_for_the_epoch():
    catalog = ClusterCatalog()
    view = PeerView(catalog)
    view.mark_down("p1")
    epoch = catalog.epoch()
    view.mark_down("p1")          # already down: no membership change
    assert catalog.epoch() == epoch
    view.mark_up("p2")            # already up: no membership change
    assert catalog.epoch() == epoch


def test_replace_requires_registration():
    catalog = ClusterCatalog()
    with pytest.raises(ClusterError):
        catalog.replace(spec("ghost"))


def test_update_hands_fn_the_spec_current_at_call_time():
    """Two updaters compose: the second sees the first's change — the
    property ``get`` + ``replace`` lacked."""
    catalog = ClusterCatalog()
    catalog.register(spec("c1"))
    stale = catalog.get("c1")            # a plan made before either

    def add(peer):
        def fn(current):
            shard = current.shard(0)
            return current.placing(shard, shard.replicas + (peer,))
        return fn

    assert catalog.update("c1", add("x"), reason="first") is stale
    before = catalog.update("c1", add("y"), reason="second")
    assert before.shard(0).replicas == ("p0", "p1", "x")
    now = catalog.get("c1")
    assert now.shard(0).replicas == ("p0", "p1", "x", "y")
    assert now.shard(1) is stale.shard(1)          # untouched shard
    assert now.shard_named("d.xml#s1") is now.shard(1)
    assert now.shard(7) is None and now.shard_named("nope") is None
    assert catalog.describe()["collections"]["c1"]["last_reason"] \
        == "second"


def test_update_declined_changes_nothing():
    catalog = ClusterCatalog()
    catalog.events = EventLog()
    catalog.register(spec("c1"))
    epoch, events = catalog.epoch(), catalog.events.count("epoch_bump")
    before = catalog.get("c1")
    assert catalog.update("c1", lambda current: None, reason="x") is None
    assert catalog.get("c1") is before
    assert catalog.epoch() == epoch
    assert catalog.events.count("epoch_bump") == events
    assert catalog.describe()["collections"]["c1"]["last_reason"] \
        == "register"


def test_update_unknown_collection_is_an_error():
    catalog = ClusterCatalog()
    with pytest.raises(ClusterError, match="ghost"):
        catalog.update("ghost", lambda current: current)


def test_update_failing_fn_leaves_spec_and_epoch_untouched():
    catalog = ClusterCatalog()
    catalog.register(spec("c1"))
    epoch, before = catalog.epoch(), catalog.get("c1")

    def boom(current):
        raise ValueError("no")

    with pytest.raises(ValueError):
        catalog.update("c1", boom)
    assert catalog.get("c1") is before
    assert catalog.epoch() == epoch
    catalog.bump("mark_down", peer="p0")  # the lock was released
    assert catalog.epoch() == epoch + 1


def test_down_peers_do_not_serve():
    view = PeerView(ClusterCatalog())
    shard = spec().shards[0]          # replicas (p0, p1)
    assert [p for p in shard.replicas if view.serves(p)] == ["p0", "p1"]
    view.mark_down("p0")
    assert [p for p in shard.replicas if view.serves(p)] == ["p1"]
    view.mark_up("p0")
    assert view.serves("p0")


def test_spec_validation():
    with pytest.raises(ClusterError):
        CollectionSpec(name="c", document="d", container_path=("r",),
                       member="m", shards=(), replication_factor=1)
    with pytest.raises(ClusterError):
        ShardInfo(index=0, local_name="x", replicas=())


def test_describe_snapshot():
    catalog = ClusterCatalog()
    catalog.register(spec("c1"))
    view = PeerView(catalog)
    view.mark_down("p9")
    view.mark_down("p1")
    snap = view.describe()
    assert snap["down"] == ["p1", "p9"]
    assert snap["collections"]["c1"]["shards"][0]["replicas"] == ["p0", "p1"]
    assert snap["collections"]["c1"]["shards"][0]["live"] == ["p0"]
    assert "down" not in catalog.describe()


def test_collection_properties():
    s = spec()
    assert s.replica_peers == ("p0", "p1", "p2")
