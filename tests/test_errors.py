"""One type to catch: every exception class ``src/repro`` defines is a
:class:`~repro.errors.ReproError`, except the evaluator's and the
migration executor's internal control flow, which never leaves the
module that raises it."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import repro
from repro.errors import (
    ClusterError, InsufficientHealthyPeersError, PeerDownError, ReproError,
    ShardUnavailableError,
)

#: Raised and caught inside one module: never seen by a caller.
CONTROL_FLOW = {"repro.xquery.evaluator._Unliftable",
                "repro.cluster.migrate.PlanAbandoned"}


def _defined_exceptions() -> dict[str, type]:
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if inspect.isclass(value) and issubclass(value, BaseException) \
                    and value.__module__ == info.name:
                found[f"{info.name}.{name}"] = value
    return found


def test_every_exception_the_package_defines_is_a_repro_error():
    defined = _defined_exceptions()
    assert CONTROL_FLOW <= defined.keys()
    assert sorted(name for name, cls in defined.items()
                  if name not in CONTROL_FLOW
                  and not issubclass(cls, ReproError)) == []


def test_engine_closed_stays_a_runtime_error():
    from repro.runtime import EngineClosedError
    assert issubclass(EngineClosedError, ReproError)
    assert issubclass(EngineClosedError, RuntimeError)


def test_the_cluster_faults_keep_their_old_import_paths():
    from repro.cluster import (
        ClusterError as cluster_error,
        InsufficientHealthyPeersError as insufficient,
        ShardUnavailableError as unavailable,
    )
    from repro.cluster.catalog import ClusterError as catalog_error
    from repro.cluster.placement import (
        InsufficientHealthyPeersError as placement_insufficient,
    )
    from repro.cluster.router import ShardUnavailableError as router_unavail
    from repro.runtime import PeerDownError as runtime_down
    from repro.runtime.transport import PeerDownError as transport_down
    assert cluster_error is catalog_error is ClusterError
    assert insufficient is placement_insufficient \
        is InsufficientHealthyPeersError
    assert unavailable is router_unavail is ShardUnavailableError
    assert runtime_down is transport_down is PeerDownError

