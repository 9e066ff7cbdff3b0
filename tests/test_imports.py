"""A run imports what it executes: package exports resolve on first use.

Each package ``__init__`` lists its public names under their home
modules (``repro/_exports.py``), so an unsharded federation never
loads the cluster's router side, the ``obs`` event log, health scorer
or exporters, and a sharded run or an explain-analyze rendering loads
them on demand.
No record class is a dataclass, whose creation ``exec``-s generated
methods: a cold run never loads ``dataclasses``. What a fresh
interpreter loads is read off ``sys.modules`` in a subprocess: this
process has long imported everything.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PACKAGES = ["repro"] + sorted(
    f"repro.{path.parent.name}" for path in (SRC / "repro").glob("*/__init__.py"))

#: Modules an unsharded run never executes.
ON_DEMAND = sorted(
    [f"repro.cluster.{name}" for name in (
        "gather", "migrate", "partitioner", "placement", "rebalance",
        "router")]
    + [f"repro.obs.{name}" for name in (
        "events", "explain", "export", "health")])

COLD_RUN = """
import json, sys
from repro.decompose import AUTO, Strategy
from repro.workloads import (BENCHMARK_QUERY, SHARDED_BENCHMARK_QUERY,
                             build_federation, build_sharded_federation)
from repro.xquery.xdm import serialize_sequence

on_demand = sys.argv[1:]
loaded = lambda: [name for name in on_demand if name in sys.modules]
federation = build_federation(0.005)
results = [federation.run(BENCHMARK_QUERY, at="local", strategy=strategy)
           for strategy in [*Strategy, AUTO]]
unsharded = loaded()
explained = results[-1].stats.plan.explain(analyze=True)
after_explain = loaded()
sharded = build_sharded_federation(0.005).run(SHARDED_BENCHMARK_QUERY,
                                              at="local")
after_sharded = loaded()
from repro.runtime import FederationEngine
with FederationEngine(build_federation(0.005), max_workers=1) as engine:
    engined = engine.submit(BENCHMARK_QUERY, "local").result()
print(json.dumps({
    "unsharded": unsharded, "after_explain": after_explain,
    "after_sharded": after_sharded, "explained": explained,
    "answers": sorted({serialize_sequence(result.items)
                       for result in results + [sharded, engined]}),
    "dataclasses": "dataclasses" in sys.modules,
}))
"""

#: What importing the XML store alone loads.
XML_STORE = """
import json, sys
import repro.xmldb.parser
print(json.dumps(sorted(name for name in sys.modules
                        if name.startswith("repro."))))
"""

#: Imports every submodule, then lists each package export that is a
#: module: a submodule of the same name imported after the package
#: replaces the package attribute unless the export is bound eagerly.
SHADOWING = """
import json, pkgutil, sys, types
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    __import__(info.name)
packages = [module for name, module in sys.modules.items()
            if name.split(".")[0] == "repro" and hasattr(module, "__path__")]
print(json.dumps({
    "shadowed": sorted(f"{package.__name__}.{name}" for package in packages
                       for name in package.__all__
                       if isinstance(getattr(package, name), types.ModuleType)),
    "types": [type(export).__name__ for export in (
        repro.xquery.normalize, repro.xquery.pretty)],
}))
"""


def _fresh(script: str, *args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run([sys.executable, "-c", script, *args], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.fixture(scope="module")
def cold_run() -> dict:
    return _fresh(COLD_RUN, *ON_DEMAND)


def test_an_unsharded_run_loads_neither_the_router_nor_the_fleet_layer(
        cold_run):
    seen = cold_run
    assert seen["unsharded"] == []
    assert seen["after_explain"] == ["repro.obs.explain"]
    assert "actual" in seen["explained"]
    assert {"repro.cluster.router", "repro.cluster.gather"} \
        <= set(seen["after_sharded"])
    assert len(seen["answers"]) == 1 and seen["answers"][0]


def test_a_cold_run_creates_no_dataclass(cold_run):
    """Every strategy and ``auto``, explain-analyze, a sharded query and
    an engine query: none loads ``dataclasses``."""
    assert cold_run["dataclasses"] is False


def test_the_xml_store_loads_no_decomposition_pipeline():
    loaded = _fresh(XML_STORE)
    assert not [name for name in loaded
                if name.startswith(("repro.dgraph", "repro.decompose"))
                or name == "repro.xquery.normalize"]


MODULES = sorted(
    "repro." + ".".join(path.relative_to(SRC / "repro").with_suffix("")
                        .parts).removesuffix(".__init__")
    for path in (SRC / "repro").rglob("*.py")
    if path.name != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_every_module_imports_under_its_dotted_name(name):
    """``import repro.<pkg>.<mod> as m`` binds the module, or the
    same-named function its package exports eagerly (``pretty``,
    ``normalize``); a package export that shadows a subpackage makes
    it raise ``ImportError``."""
    namespace: dict = {}
    exec(f"import {name} as m", namespace)
    module = sys.modules[name]
    assert namespace["m"] in (module,
                              getattr(module, name.rpartition(".")[2], None))


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
    listed = dir(module)
    for name in module.__all__:
        value = getattr(module, name)
        assert name in listed
        assert not isinstance(value, types.ModuleType), name
    with pytest.raises(AttributeError):
        module.no_such_export


def test_no_submodule_shadows_an_export():
    seen = _fresh(SHADOWING)
    assert seen == {"shadowed": [], "types": ["function"] * 2}
